#include "src/hv/vm.h"

namespace potemkin {

namespace {
// Fixed per-domain overhead (descriptor, vcpu state, shadow structures): the paper
// cites per-VM overheads beyond the memory delta; 1 MiB is a conservative model.
constexpr uint64_t kDomainOverheadBytes = 1 << 20;
}  // namespace

const char* VmStateName(VmState state) {
  switch (state) {
    case VmState::kCloning:
      return "CLONING";
    case VmState::kRunning:
      return "RUNNING";
    case VmState::kPaused:
      return "PAUSED";
    case VmState::kRetired:
      return "RETIRED";
  }
  return "?";
}

VirtualMachine::VirtualMachine(VmId id, std::string name, FrameAllocator* allocator,
                               uint32_t num_pages, const ReferenceDisk* disk_base)
    : id_(id), name_(std::move(name)), memory_(allocator, num_pages), disk_(disk_base) {}

void VirtualMachine::Transmit(Packet packet) {
  if (tx_) {
    tx_(*this, std::move(packet));
  }
}

uint64_t VirtualMachine::FootprintBytes() const {
  return memory_.private_bytes() + kDomainOverheadBytes;
}

}  // namespace potemkin
