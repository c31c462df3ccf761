// A virtual machine (domain) as the hypervisor substrate sees it: an address
// space, a vNIC and a lifecycle state machine. Guest *behaviour* (what runs
// inside) is layered on by src/guest.
#ifndef SRC_HV_VM_H_
#define SRC_HV_VM_H_

#include <functional>
#include <memory>
#include <string>

#include "src/base/time_types.h"
#include "src/hv/address_space.h"
#include "src/hv/reference_image.h"
#include "src/hv/types.h"
#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

enum class VmState {
  kCloning,   // being flash-cloned; cannot receive packets yet
  kRunning,   // live and bound to an IP
  kPaused,    // suspended (e.g. held for forensics)
  kRetired,   // torn down; resources released
};

const char* VmStateName(VmState state);

class VirtualMachine {
 public:
  // Transmit hook: the host wires this to the farm fabric.
  using TxHandler = std::function<void(VirtualMachine&, Packet)>;

  VirtualMachine(VmId id, std::string name, FrameAllocator* allocator,
                 uint32_t num_pages);
  ~VirtualMachine() = default;
  VirtualMachine(const VirtualMachine&) = delete;
  VirtualMachine& operator=(const VirtualMachine&) = delete;

  VmId id() const { return id_; }
  const std::string& name() const { return name_; }
  VmState state() const { return state_; }
  void set_state(VmState state) { state_ = state; }

  AddressSpace& memory() { return memory_; }
  const AddressSpace& memory() const { return memory_; }

  // Late binding: the IP address is assigned at clone time, not boot time.
  void BindAddress(Ipv4Address ip, MacAddress mac) {
    ip_ = ip;
    mac_ = mac;
  }
  Ipv4Address ip() const { return ip_; }
  MacAddress mac() const { return mac_; }

  void set_tx_handler(TxHandler handler) { tx_ = std::move(handler); }
  // Sends a packet out of the vNIC (to the farm fabric / gateway).
  void Transmit(Packet packet);

  void set_last_activity(TimePoint t) { last_activity_ = t; }
  TimePoint last_activity() const { return last_activity_; }

  void set_infected(bool infected) { infected_ = infected; }
  bool infected() const { return infected_; }

 private:
  VmId id_;
  std::string name_;
  VmState state_ = VmState::kCloning;
  AddressSpace memory_;
  Ipv4Address ip_;
  MacAddress mac_;
  TxHandler tx_;
  TimePoint last_activity_;
  bool infected_ = false;
};

}  // namespace potemkin

#endif  // SRC_HV_VM_H_
