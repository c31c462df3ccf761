// Per-source scan detection at the gateway.
//
// The gateway observes every inbound source; a source contacting many distinct farm
// addresses within a window is a scanner (worm or survey). The farm does not block
// scanners — they are the point — but the signal feeds analysis (how much of the
// telescope traffic is scanning) and the optional inbound filtering ablation.
//
// This runs once per inbound packet, so the per-source state is a flat
// slab-backed record sized to one cache line: distinct destinations are kept
// in a small inline array scanned linearly (membership sets this small beat
// any hash set), and the source -> slot mapping is an open-addressing
// FlatIndex. Recording a packet for a known source allocates nothing.
#ifndef SRC_GATEWAY_SCAN_DETECTOR_H_
#define SRC_GATEWAY_SCAN_DETECTOR_H_

#include <array>
#include <cstdint>

#include "src/base/flat_index.h"
#include "src/base/slab.h"
#include "src/base/time_types.h"
#include "src/net/ipv4.h"

namespace potemkin {

struct ScanDetectorConfig {
  // A source becomes a scanner after touching this many distinct destinations...
  uint32_t distinct_threshold = 8;
  // ...within this window.
  Duration window = Duration::Seconds(60);
};

class ScanDetector {
 public:
  explicit ScanDetector(const ScanDetectorConfig& config);

  // Records an inbound (source, destination) contact; returns true if the source
  // is currently classified as a scanner.
  bool Record(Ipv4Address source, Ipv4Address destination, TimePoint now);

  // True iff the most recent Record() call is what flagged its source — the
  // one-shot edge the gateway turns into a kScannerFlagged ledger event
  // without re-deriving the transition from counters.
  bool newly_flagged() const { return newly_flagged_; }

  // Test oracle, reached by no program.
  bool IsScanner(Ipv4Address source) const;
  size_t tracked_sources() const { return slab_.live_count(); }
  uint64_t scanners_flagged() const { return scanners_flagged_; }

  // Drops per-source state idle past the window (bounds memory).
  size_t ExpireIdle(TimePoint now);

 private:
  struct SourceState {
    // Inline distinct-destination set. Counting is exact while the array has
    // room plus one step beyond it (a destination absent from a full array is
    // certainly new), i.e. for thresholds <= kMaxTracked + 1; past that a
    // revisit of an untracked destination may be overcounted. The default
    // threshold (8) and every configured threshold in the repo sit well
    // inside the exact range.
    static constexpr size_t kMaxTracked = 10;

    TimePoint window_start;
    TimePoint last_seen;
    Ipv4Address source;  // mirrors the index key, for expiry sweeps
    uint8_t distinct_count = 0;
    bool flagged = false;
    std::array<Ipv4Address, kMaxTracked> distinct;
  };
  static_assert(sizeof(SourceState) <= 64, "per-source state spills a cache line");

  ScanDetectorConfig config_;
  FlatIndex<uint32_t> index_;
  Slab<SourceState> slab_;
  uint64_t scanners_flagged_ = 0;
  bool newly_flagged_ = false;
};

}  // namespace potemkin

#endif  // SRC_GATEWAY_SCAN_DETECTOR_H_
