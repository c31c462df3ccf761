// Tests for the VirtualMachine wrapper and the CPU accounting model.
#include <gtest/gtest.h>

#include "src/hv/cpu_model.h"
#include "src/hv/physical_host.h"

namespace potemkin {
namespace {

PhysicalHostConfig HostConfig() {
  PhysicalHostConfig config;
  config.memory_mb = 32;
  config.content_mode = ContentMode::kStoreBytes;
  config.domain_overhead_frames = 4;
  return config;
}

TEST(VirtualMachineTest, LateBindingSetsAddress) {
  PhysicalHost host(HostConfig());
  ReferenceImageConfig image_config;
  image_config.num_pages = 64;
  const ImageId image = host.RegisterImage(image_config);
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "vm");
  EXPECT_EQ(vm->ip(), Ipv4Address());  // unbound at creation
  vm->BindAddress(Ipv4Address(10, 1, 0, 9), MacAddress::FromId(9));
  EXPECT_EQ(vm->ip(), Ipv4Address(10, 1, 0, 9));
  EXPECT_EQ(vm->mac(), MacAddress::FromId(9));
}

TEST(VirtualMachineTest, TransmitInvokesHandler) {
  PhysicalHost host(HostConfig());
  ReferenceImageConfig image_config;
  image_config.num_pages = 64;
  const ImageId image = host.RegisterImage(image_config);
  VirtualMachine* vm = host.CreateClone(image, CloneKind::kFlash, "vm");
  int transmitted = 0;
  vm->set_tx_handler([&](VirtualMachine& sender, Packet) {
    EXPECT_EQ(&sender, vm);
    ++transmitted;
  });
  PacketSpec spec;
  spec.src_ip = Ipv4Address(10, 1, 0, 9);
  spec.dst_ip = Ipv4Address(1, 1, 1, 1);
  vm->Transmit(BuildPacket(spec));
  vm->Transmit(BuildPacket(spec));
  EXPECT_EQ(transmitted, 2);
}

TEST(VirtualMachineTest, StateNames) {
  EXPECT_STREQ(VmStateName(VmState::kCloning), "CLONING");
  EXPECT_STREQ(VmStateName(VmState::kRunning), "RUNNING");
  EXPECT_STREQ(VmStateName(VmState::kPaused), "PAUSED");
  EXPECT_STREQ(VmStateName(VmState::kRetired), "RETIRED");
}

TEST(CpuAccountantTest, ChargesAccumulate) {
  CpuCostModel model;
  model.per_packet_delivered = Duration::Micros(100);
  model.per_clone = Duration::Millis(10);
  model.cores = 1.0;
  CpuAccountant cpu(model);
  for (int i = 0; i < 50; ++i) {
    cpu.ChargePacket();
  }
  cpu.ChargeClone();
  // 15 busy ms over 1 wall-second on one core.
  EXPECT_NEAR(cpu.Utilization(TimePoint() + Duration::Seconds(1.0)), 0.015, 1e-12);
}

TEST(CpuAccountantTest, UtilizationAgainstCores) {
  CpuCostModel model;
  model.cores = 2.0;
  model.per_clone = Duration::Seconds(1.0);
  CpuAccountant cpu(model);
  cpu.ChargeClone();
  // 1 CPU-second over 1 wall-second on 2 cores = 50%.
  EXPECT_NEAR(cpu.Utilization(TimePoint() + Duration::Seconds(1.0)), 0.5, 1e-9);
  // Over 4 wall-seconds = 12.5%.
  EXPECT_NEAR(cpu.Utilization(TimePoint() + Duration::Seconds(4.0)), 0.125, 1e-9);
  // At t=0, no divide-by-zero.
  EXPECT_EQ(cpu.Utilization(TimePoint()), 0.0);
}

TEST(CpuAccountantTest, OversubscriptionExceedsOne) {
  CpuAccountant cpu(CpuCostModel{.cores = 1.0, .per_clone = Duration::Seconds(5.0)});
  cpu.ChargeClone();
  EXPECT_GT(cpu.Utilization(TimePoint() + Duration::Seconds(1.0)), 1.0);
}

}  // namespace
}  // namespace potemkin
