#include "src/core/clone_server.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/hv/snapshot.h"

namespace potemkin {

CloneServer::CloneServer(EventLoop* loop, const CloneServerConfig& config,
                         uint64_t seed)
    : loop_(loop),
      config_(config),
      host_(config.host),
      engine_(loop, &host_, config.engine),
      image_(host_.RegisterImage(config.image)),
      guest_config_(config.guest),
      rng_(seed),
      cpu_(CpuCostModel{}) {
  // Guests share the host's telemetry bundle so their ledger events land in the
  // same ring as the gateway's and the clone engine's.
  if (guest_config_.obs == nullptr) {
    guest_config_.obs = config_.engine.obs;
  }
  // Pressure victims ride the normal retire path (forensics, guest teardown,
  // worm deactivation) instead of the engine's bare quiesce-and-destroy.
  engine_.set_pressure_reclaim_handler([this](VmId vm) { RetireVm(vm); });
}

void CloneServer::SpawnVm(Ipv4Address ip, SessionId session,
                          std::function<void(VmId)> done) {
  if (crashed_) {
    // A dead host cannot clone; fail asynchronously like the engine would so
    // callers never see a re-entrant completion.
    if (done) {
      loop_->ScheduleAfter(Duration::Zero(),
                           [done = std::move(done)] { done(kInvalidVm); });
    }
    return;
  }
  const std::string name =
      StrFormat("%s/vm-%s", host_.name().c_str(), ip.ToString().c_str());
  const MacAddress mac =
      MacAddress::FromId((static_cast<uint64_t>(config_.host.id) << 40) | ip.value());
  // The engine calls back once, so the completion moves `done` on rather than
  // copying it (and every closure `done` holds).
  engine_.RequestClone(image_, name, ip, mac, session, config_.clone_memory,
                       [this, done = std::move(done)](
                           VirtualMachine* vm, const CloneTiming&) mutable {
                         OnCloneComplete(vm, std::move(done));
                       });
}

void CloneServer::OnCloneComplete(VirtualMachine* vm,
                                  std::function<void(VmId)> done) {
  if (vm == nullptr) {
    if (done) {
      done(kInvalidVm);
    }
    return;
  }
  if (crashed_) {
    // The engine finished a clone whose request predates the crash; the host
    // is gone, so the machine never existed. Free it and report failure.
    host_.DestroyVm(vm->id());
    if (done) {
      done(kInvalidVm);
    }
    return;
  }
  auto guest = std::make_unique<GuestOs>(vm, guest_config_, rng_.Fork(vm->id()));
  GuestOs* guest_ptr = guest.get();
  guest_ptr->set_infection_observer(
      [this](GuestOs& infected, const PacketView& exploit) {
        if (infection_) {
          infection_(infected, exploit);
        }
      });
  vm->set_tx_handler([this](VirtualMachine& sender, Packet packet) {
    if (outbound_) {
      outbound_(config_.host.id, sender.id(), std::move(packet));
    }
  });
  guests_.emplace(vm->id(), std::move(guest));
  cpu_.ChargeClone();
  if (done) {
    done(vm->id());
  }
}

void CloneServer::MaybeArchiveForensics(VirtualMachine& vm) {
  if (config_.forensics_dir.empty() || !vm.infected()) {
    return;
  }
  const VmSnapshot snapshot = VmSnapshot::Capture(vm, loop_->Now());
  const std::string path = StrFormat("%s/vm-%llu-%s.snap",
                                     config_.forensics_dir.c_str(),
                                     static_cast<unsigned long long>(vm.id()),
                                     vm.ip().ToString().c_str());
  if (snapshot.WriteToFile(path)) {
    ++snapshots_written_;
    PK_INFO << "forensic snapshot of infected VM " << vm.name() << " -> " << path
            << " (" << snapshot.delta_pages() << " delta pages)";
  }
}

void CloneServer::RetireVm(VmId vm) {
  VirtualMachine* machine = host_.FindVm(vm);
  if (machine == nullptr) {
    return;
  }
  MaybeArchiveForensics(*machine);
  // Quiesce immediately: no more packet handling or worm scanning from this VM.
  machine->set_state(VmState::kPaused);
  if (retired_) {
    retired_(vm);
  }
  guests_.erase(vm);
  cpu_.ChargeDestroy();
  engine_.RequestDestroy(vm);
}

void CloneServer::DeliverToVm(VmId vm, Packet packet, const PacketView& view) {
  const size_t capacity = in_flight_.size();
  if (in_flight_tail_ - in_flight_head_ == capacity) {
    std::vector<InFlight> grown(capacity == 0 ? 64 : 2 * capacity);
    for (size_t i = 0; i < capacity; ++i) {
      grown[i] = std::move(in_flight_[(in_flight_head_ + i) & (capacity - 1)]);
    }
    in_flight_.swap(grown);
    in_flight_head_ = 0;
    in_flight_tail_ = capacity;
  }
  const TimePoint due = loop_->Now() + config_.delivery_latency;
  in_flight_[in_flight_tail_++ & (in_flight_.size() - 1)] =
      InFlight{vm, due, std::move(packet), view};
  loop_->ScheduleAt(due, [this] { DeliverNext(); });
}

void CloneServer::DeliverNext() {
  PK_CHECK(in_flight_head_ != in_flight_tail_) << "delivery with nothing in flight";
  // Move the entry out: the guest's reply may deliver more packets, which can
  // grow the ring.
  InFlight next = std::move(in_flight_[in_flight_head_++ & (in_flight_.size() - 1)]);
  PK_CHECK(next.due == loop_->Now())
      << "in-flight packet due at " << next.due.nanos() << " ns delivered at "
      << loop_->Now().nanos() << " ns: deliveries must fall due in send order";
  auto it = guests_.find(next.vm);
  if (it == guests_.end()) {
    return;  // retired while in flight
  }
  cpu_.ChargePacket();
  it->second->HandleFrame(next.packet, next.view, loop_->Now());
}

void CloneServer::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  // Collect ids first: DestroyVm mutates the host's VM map.
  std::vector<VmId> victims;
  victims.reserve(host_.live_vm_count());
  host_.ForEachVm([&](VirtualMachine& vm) { victims.push_back(vm.id()); });
  for (const VmId vm : victims) {
    VirtualMachine* machine = host_.FindVm(vm);
    if (machine != nullptr) {
      machine->set_state(VmState::kPaused);
    }
    // Deactivate worms / observers exactly like a retire, but skip the engine:
    // a crash frees everything instantly, no domain_destroy latency.
    if (retired_) {
      retired_(vm);
    }
    guests_.erase(vm);
    host_.DestroyVm(vm);
  }
}

void CloneServer::Restore() { crashed_ = false; }

GuestOs* CloneServer::FindGuest(VmId vm) {
  auto it = guests_.find(vm);
  return it == guests_.end() ? nullptr : it->second.get();
}

GuestStats CloneServer::AggregateGuestStats() const {
  GuestStats total;
  for (const auto& [id, guest] : guests_) {
    const GuestStats& s = guest->stats();
    total.packets_handled += s.packets_handled;
    total.requests_served += s.requests_served;
    total.responses_sent += s.responses_sent;
    total.rst_sent += s.rst_sent;
    total.exploits_received += s.exploits_received;
    total.oom_events += s.oom_events;
  }
  return total;
}

}  // namespace potemkin
