// Declarative SLO watchdog over HealthSnapshot history.
//
// A `WatchdogRule` names one snapshot metric row and an operating envelope for
// it; the `Watchdog` evaluates every rule against each snapshot the
// HealthMonitor takes (so the cadence is the snapshot cadence — EventLoop
// virtual time, never the packet path). Two detector kinds:
//
//   kAbove      absolute threshold on the sampled value
//   kRateAbove  threshold on d(value)/dt between consecutive snapshots, in
//               units per *virtual* second (catches counters that start
//               climbing, e.g. containment escapes, drop storms)
//
// Alerts have *hysteresis*: a rule fires crossing `raise` and clears only
// crossing `clear` back, so a value oscillating near the threshold produces
// exactly one alert, not one per snapshot. `cooldown` additionally gates
// re-raises after a clear. Transitions are appended to the event ledger
// (kAlertRaised / kAlertCleared with the rule index in `a`), and the firing
// set is exported into the versioned `alerts` section of each snapshot's JSON.
#ifndef SRC_OBS_WATCHDOG_H_
#define SRC_OBS_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time_types.h"
#include "src/obs/event_ledger.h"
#include "src/obs/health_snapshot.h"

namespace potemkin {

enum class WatchdogKind : uint8_t {
  kAbove,
  kRateAbove,
};

struct WatchdogRule {
  std::string name;    // alert name, e.g. "clone_total_p99"
  std::string metric;  // snapshot metric row to watch
  WatchdogKind kind = WatchdogKind::kAbove;
  // Fire crossing `raise`; clear only crossing `clear` (hysteresis). For
  // kRateAbove both are in metric units per virtual second.
  double raise = 0.0;
  double clear = 0.0;
  // Minimum virtual time between a clear and the next raise of the same rule.
  Duration cooldown = Duration::Seconds(30);
  // Consecutive breaching snapshots required before the rule raises. The
  // default (1) keeps the historical fire-on-first-breach behavior;
  // percentile rules set this higher so a single-window tail spike (one slow
  // clone skewing a p99) does not page — the paper's latency claims are about
  // sustained behavior, and so are the alerts on them.
  size_t for_windows = 1;
};

class Watchdog {
 public:
  // Per-rule evaluation state, exposed for tests and the alerts exporter.
  struct RuleState {
    bool firing = false;
    bool has_prev = false;
    double prev_value = 0.0;
    int64_t prev_time_ns = 0;
    double observed = 0.0;  // last evaluated value (or rate) for the rule
    int64_t since_ns = 0;   // virtual time of the last raise/clear transition
    int64_t last_raise_ns = 0;
    size_t breach_streak = 0;  // consecutive breaching snapshots (for_windows)
    uint64_t raises = 0;
    uint64_t clears = 0;
  };

  // Transitions are appended to `ledger` (null: no ledger emission).
  explicit Watchdog(EventLedger* ledger = nullptr);

  void AddRule(WatchdogRule rule);
  void AddRules(std::vector<WatchdogRule> rules);

  // Evaluates every rule against one snapshot (rules whose metric row is
  // absent keep their previous state). Called by HealthMonitor::SampleNow.
  void Evaluate(const HealthSnapshot& snapshot);

  // Appends one AlertSample per *firing* rule — the snapshot's `alerts`
  // section.
  void AppendAlertSamples(std::vector<AlertSample>* out) const;

  size_t rule_count() const { return rules_.size(); }
  const WatchdogRule& rule(size_t index) const { return rules_[index]; }
  const RuleState& state(size_t index) const { return states_[index]; }
  uint64_t evaluations() const { return evaluations_; }

 private:
  void Raise(size_t index, double observed, int64_t now_ns);
  void Clear(size_t index, double observed, int64_t now_ns);

  EventLedger* ledger_;
  std::vector<WatchdogRule> rules_;
  std::vector<RuleState> states_;
  uint64_t evaluations_ = 0;
};

// The farm's starter rule set: frame-pool watermark, recycler backlog,
// containment-breach counter, gateway drop rate, and the sustained p99 rules
// on the gateway datapath and clone totals. Metric names match the probes and
// histograms the gateway/clone-engine/honeyfarm register.
std::vector<WatchdogRule> DefaultFarmRules();

}  // namespace potemkin

#endif  // SRC_OBS_WATCHDOG_H_
