#include "src/hv/vm.h"

namespace potemkin {

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
                               uint32_t num_pages)
    : id_(id), name_(std::move(name)), memory_(allocator, num_pages) {}

void VirtualMachine::Transmit(Packet packet) {
  if (tx_) {
    tx_(*this, std::move(packet));
  }
}

}  // namespace potemkin
