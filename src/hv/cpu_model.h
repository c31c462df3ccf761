// CPU accounting for physical hosts.
//
// The paper's scalability analysis found the farm memory-bound: honeypot VMs are
// idle almost always, so hundreds share a few cores easily. This accountant makes
// that claim measurable in the reproduction: packet handling, cloning and
// teardown charge CPU time against the host, and telemetry reports utilization —
// which stays low exactly when the memory experiments are hitting their limits.
#ifndef SRC_HV_CPU_MODEL_H_
#define SRC_HV_CPU_MODEL_H_

#include <cstdint>

#include "src/base/time_types.h"

namespace potemkin {

struct CpuCostModel {
  double cores = 2.0;
  // Guest + host cost of receiving/handling one packet in a VM (interrupt,
  // copy, stack traversal, service work).
  Duration per_packet_delivered = Duration::Micros(40);
  // Host-side CPU burned by one flash clone / one teardown (control plane work
  // is CPU, not I/O).
  Duration per_clone = Duration::Millis(60);
  Duration per_destroy = Duration::Millis(12);
};

class CpuAccountant {
 public:
  explicit CpuAccountant(const CpuCostModel& model) : model_(model) {}

  void ChargePacket() { busy_ += model_.per_packet_delivered; }
  void ChargeClone() { busy_ += model_.per_clone; }
  void ChargeDestroy() { busy_ += model_.per_destroy; }

  // Fraction of total capacity (cores x wall time) consumed by `now`; can exceed
  // 1.0, which means the host is oversubscribed (work would queue in reality).
  double Utilization(TimePoint now) const {
    const double elapsed = now.seconds();
    if (elapsed <= 0.0) {
      return 0.0;
    }
    return busy_.seconds() / (elapsed * model_.cores);
  }

 private:
  CpuCostModel model_;
  Duration busy_;
};

}  // namespace potemkin

#endif  // SRC_HV_CPU_MODEL_H_
