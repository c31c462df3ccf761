#include "src/ctrl/backend_pool.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

namespace {

// Placement-score blend (see Score).
constexpr double kFrameWeight = 1.0;
constexpr double kVmWeight = 0.25;
constexpr double kDenialPenalty = 0.5;
constexpr double kVmSoftCap = 4096.0;
// EWMA smoothing for per-refresh denied-counter deltas: next = decay * prev +
// (1 - decay) * delta.
constexpr double kDenialDecay = 0.5;

}  // namespace

const char* BackendStateName(BackendState state) {
  switch (state) {
    case BackendState::kActive:
      return "active";
    case BackendState::kWarming:
      return "warming";
    case BackendState::kDraining:
      return "draining";
    case BackendState::kDown:
      return "down";
  }
  return "?";
}

void BackendPool::Register(HostId host, std::string name, CapacityFn capacity,
                           BackendState initial, TimePoint now) {
  PK_CHECK(host == entries_.size())
      << "backends must register densely in host-id order; got " << host
      << " with " << entries_.size() << " registered";
  Entry entry;
  entry.host = host;
  entry.name = std::move(name);
  entry.capacity_fn = std::move(capacity);
  entry.state = initial;
  entry.state_since = now;
  if (entry.capacity_fn) {
    entry.cap = entry.capacity_fn();
    entry.last_denied = entry.cap.denied_requests;
  }
  entries_.push_back(std::move(entry));
}

const std::string& BackendPool::name(HostId host) const {
  PK_CHECK(host < entries_.size());
  return entries_[host].name;
}

BackendState BackendPool::state(HostId host) const {
  PK_CHECK(host < entries_.size());
  return entries_[host].state;
}

void BackendPool::SetState(HostId host, BackendState next, TimePoint now) {
  PK_CHECK(host < entries_.size());
  Entry& entry = entries_[host];
  if (entry.state == next) {
    return;
  }
  entry.state = next;
  entry.state_since = now;
}

TimePoint BackendPool::state_since(HostId host) const {
  PK_CHECK(host < entries_.size());
  return entries_[host].state_since;
}

size_t BackendPool::CountInState(BackendState state) const {
  size_t count = 0;
  for (const Entry& entry : entries_) {
    if (entry.state == state) {
      ++count;
    }
  }
  return count;
}

double BackendPool::Score(HostId host) const {
  if (host >= entries_.size()) {
    return 0.0;
  }
  const Entry& entry = entries_[host];
  const BackendCapacity& cap = entry.cap;
  const double frame_headroom =
      cap.capacity_frames == 0
          ? 0.0
          : 1.0 - static_cast<double>(cap.used_frames) /
                      static_cast<double>(cap.capacity_frames);
  const double vm_headroom = std::max(
      0.0, 1.0 - static_cast<double>(cap.live_vms) / kVmSoftCap);
  // Squash the unbounded EWMA into [0, 1) so the penalty saturates instead of
  // dominating the blend during a denial storm.
  const double denial_pressure = entry.denial_ewma / (1.0 + entry.denial_ewma);
  return kFrameWeight * frame_headroom + kVmWeight * vm_headroom -
         kDenialPenalty * denial_pressure;
}

void BackendPool::Refresh() {
  for (Entry& entry : entries_) {
    if (!entry.capacity_fn) {
      continue;
    }
    entry.cap = entry.capacity_fn();
    const uint64_t delta = entry.cap.denied_requests - entry.last_denied;
    entry.last_denied = entry.cap.denied_requests;
    entry.denial_ewma = kDenialDecay * entry.denial_ewma +
                        (1.0 - kDenialDecay) * static_cast<double>(delta);
  }
}

double BackendPool::denial_pressure(HostId host) const {
  PK_CHECK(host < entries_.size());
  return entries_[host].denial_ewma;
}

}  // namespace potemkin
