#include "src/hv/working_set.h"

#include <algorithm>

namespace potemkin {

namespace {

// Pages per session that contribute to the profile (and the most a prediction
// can return). The paper's clones diverge by well under 1k pages over a whole
// session; the *early* working set is far smaller.
constexpr uint32_t kMaxPages = 256;
// Per-session decay applied to accumulated scores.
constexpr double kDecay = 0.75;

}  // namespace

void WorkingSetProfile::RecordSession(std::span<const Gpfn> touch_order) {
  // Decay the accumulated history first so this session is the freshest
  // signal, dropping entries that have faded to noise.
  for (auto it = scores_.begin(); it != scores_.end();) {
    it->second *= kDecay;
    if (it->second < 1e-3) {
      it = scores_.erase(it);
    } else {
      ++it;
    }
  }
  const uint32_t n =
      std::min<uint32_t>(kMaxPages, static_cast<uint32_t>(touch_order.size()));
  for (uint32_t i = 0; i < n; ++i) {
    // Positional weight: the first touch is worth kMaxPages, the last worth 1.
    scores_[touch_order[i]] += static_cast<double>(kMaxPages - i);
  }
  ++sessions_;
}

std::vector<Gpfn> WorkingSetProfile::PredictFirst(uint32_t n) const {
  std::vector<Gpfn> out;
  if (sessions_ == 0 || n == 0) {
    return out;
  }
  std::vector<std::pair<Gpfn, double>> ranked(scores_.begin(), scores_.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;  // deterministic tie-break
  });
  const size_t limit =
      std::min<size_t>(std::min<uint32_t>(n, kMaxPages), ranked.size());
  out.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    out.push_back(ranked[i].first);
  }
  return out;
}

}  // namespace potemkin
