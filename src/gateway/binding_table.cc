#include "src/gateway/binding_table.h"

#include <algorithm>

#include "src/base/log.h"

namespace potemkin {

BindingTable::BindingTable(size_t pending_queue_cap)
    : pending_queue_cap_(pending_queue_cap) {}

Binding& BindingTable::CreatePending(Ipv4Address ip, HostId host, TimePoint now) {
  PK_CHECK(index_.Find(ip.value()) == FlatIndex<uint32_t>::kNotFound)
      << "duplicate binding for " << ip.ToString();
  const uint32_t slot = slab_.Alloc();
  index_.Insert(ip.value(), slot);
  Binding& binding = slab_.At(slot);
  binding.ip = ip;
  binding.host = host;
  binding.state = BindingState::kCloning;
  binding.created = now;
  binding.last_activity = now;
  stats_.peak_live = std::max<uint64_t>(stats_.peak_live, slab_.live_count());
  return binding;
}

Binding* BindingTable::Activate(Ipv4Address ip, VmId vm, TimePoint now) {
  Binding* binding = Find(ip);
  if (binding == nullptr) {
    return nullptr;
  }
  binding->vm = vm;
  binding->state = BindingState::kActive;
  binding->last_activity = now;
  return binding;
}

bool BindingTable::Remove(Ipv4Address ip) {
  const uint32_t slot = index_.Erase(ip.value());
  if (slot == FlatIndex<uint32_t>::kNotFound) {
    return false;
  }
  if (slab_.At(slot).pending_count > 0) {
    pending_.erase(ip.value());
  }
  slab_.Free(slot);
  return true;
}

bool BindingTable::QueuePending(Binding& binding, Packet packet) {
  if (binding.pending_count >= pending_queue_cap_) {
    ++stats_.pending_dropped;
    return false;
  }
  std::vector<Packet>& queue = pending_[binding.ip.value()];
  if (queue.empty()) {
    queue.reserve(std::min<size_t>(pending_queue_cap_, 8));
  }
  queue.push_back(std::move(packet));
  ++binding.pending_count;
  return true;
}

std::vector<Packet> BindingTable::TakePending(Binding& binding) {
  std::vector<Packet> out;
  if (binding.pending_count == 0) {
    return out;
  }
  auto it = pending_.find(binding.ip.value());
  if (it != pending_.end()) {
    out = std::move(it->second);
    pending_.erase(it);
  }
  binding.pending_count = 0;
  return out;
}

}  // namespace potemkin
