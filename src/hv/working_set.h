// Working-set profiles for predictive page prefetch.
//
// PAPERS.md's VM streaming work observes that clones of the same service
// touch nearly the same pages in nearly the same order in their first seconds
// of life: the kernel fault path, the service's code pages, its heap arena.
// A WorkingSetProfile aggregates the first-touch page order of completed
// sessions of one reference image into a ranked prediction, so the clone
// engine can pre-materialise the predicted first-N pages in one batched fault
// instead of taking N demand faults on the session's critical path.
//
// Ranking blends position and recurrence: a page touched first by every
// session outranks a page touched late by one. Older sessions decay
// exponentially, so a profile tracks a drifting working set (a patched image
// generation shifts code pages) without a reset.
#ifndef SRC_HV_WORKING_SET_H_
#define SRC_HV_WORKING_SET_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/hv/types.h"

namespace potemkin {

class WorkingSetProfile {
 public:
  // Folds one completed session's first-touch page order (earliest first)
  // into the profile. Only the first 256 entries contribute.
  void RecordSession(std::span<const Gpfn> touch_order);

  // The predicted early working set, best-ranked first, at most min(n, 256)
  // entries. Empty until a session is recorded: the predictor abstains rather
  // than guessing from nothing. Deterministic: ties break toward the lower
  // gpfn.
  std::vector<Gpfn> PredictFirst(uint32_t n) const;

 private:
  uint64_t sessions_ = 0;
  // gpfn -> decayed positional score. Scores only grow on touch and decay
  // multiplicatively, so the map is pruned of vanishing entries on record.
  std::unordered_map<Gpfn, double> scores_;
};

}  // namespace potemkin

#endif  // SRC_HV_WORKING_SET_H_
