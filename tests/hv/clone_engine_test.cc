// Clone-engine timing: the paper's latency model, serialization and queueing.
#include "src/hv/clone_engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace potemkin {
namespace {

struct EngineFixture {
  EventLoop loop;
  PhysicalHost host;
  ImageId image;

  explicit EngineFixture(uint32_t image_pages = 256)
      : host([] {
          PhysicalHostConfig config;
          config.memory_mb = 64;
          config.content_mode = ContentMode::kStoreBytes;
          config.domain_overhead_frames = 8;
          config.admission_reserve_frames = 8;
          return config;
        }()) {
    ReferenceImageConfig image_config;
    image_config.num_pages = image_pages;
    image = host.RegisterImage(image_config);
  }
};

TEST(LatencyModelTest, FlashTotalEqualsSumOfPhases) {
  const CloneLatencyModel model;
  const uint32_t pages = 8192;
  Duration sum;
  for (int p = 0; p < static_cast<int>(ClonePhase::kNumPhases); ++p) {
    sum += model.PhaseCost(static_cast<ClonePhase>(p), pages);
  }
  EXPECT_EQ(model.FlashCloneTotal(pages), sum);
}

TEST(LatencyModelTest, DefaultTotalMatchesPaperScale) {
  // The paper's unoptimized prototype cloned in roughly half a second.
  const CloneLatencyModel model;
  const double total_ms = model.FlashCloneTotal(8192).millis_f();
  EXPECT_GT(total_ms, 400.0);
  EXPECT_LT(total_ms, 700.0);
}

TEST(LatencyModelTest, ControlPlaneDominatesOverPerPageWork) {
  const CloneLatencyModel model;
  const Duration map = model.PhaseCost(ClonePhase::kMemoryMapSetup, 8192);
  const Duration total = model.FlashCloneTotal(8192);
  EXPECT_LT(map / total, 0.25);
}

TEST(LatencyModelTest, FlashBeatsFullCopyAndColdBoot) {
  const CloneLatencyModel model;
  const uint32_t pages = 32768;  // 128 MiB image
  EXPECT_LT(model.FlashCloneTotal(pages), model.FullCopyTotal(pages));
  EXPECT_LT(model.FullCopyTotal(pages).seconds(), model.cold_boot.seconds());
}

TEST(LatencyModelTest, OptimizedModelIsTensOfMillis) {
  const auto model = CloneLatencyModel::Optimized();
  const double total_ms = model.FlashCloneTotal(8192).millis_f();
  EXPECT_LT(total_ms, 100.0);
  EXPECT_GT(total_ms, 10.0);
}

TEST(CloneEngineTest, CloneCompletesAfterModelLatency) {
  EngineFixture fx;
  CloneEngineConfig config;
  CloneEngine engine(&fx.loop, &fx.host, config);
  VirtualMachine* result = nullptr;
  CloneTiming timing;
  engine.RequestClone(fx.image, "vm", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(1),
                      [&](VirtualMachine* vm, const CloneTiming& t) {
                        result = vm;
                        timing = t;
                      });
  fx.loop.RunAll();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->state(), VmState::kRunning);
  EXPECT_EQ(result->ip(), Ipv4Address(10, 1, 0, 1));
  EXPECT_EQ(timing.Total(), config.latency.FlashCloneTotal(256));
  EXPECT_EQ(timing.QueueWait(), Duration::Zero());
  EXPECT_EQ(engine.clones_completed(), 1u);
}

TEST(CloneEngineTest, PhaseBreakdownSumsToTotal) {
  EngineFixture fx;
  CloneEngine engine(&fx.loop, &fx.host, CloneEngineConfig{});
  CloneTiming timing;
  engine.RequestClone(fx.image, "vm", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(1),
                      [&](VirtualMachine*, const CloneTiming& t) { timing = t; });
  fx.loop.RunAll();
  Duration sum;
  for (const Duration& d : timing.phase) {
    sum += d;
  }
  EXPECT_EQ(sum, timing.Total());
}

TEST(CloneEngineTest, SingleWorkerSerializesClones) {
  EngineFixture fx;
  CloneEngineConfig config;
  config.control_plane_workers = 1;
  CloneEngine engine(&fx.loop, &fx.host, config);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    engine.RequestClone(fx.image, "vm", Ipv4Address(10, 1, 0, static_cast<uint8_t>(i)),
                        MacAddress::FromId(static_cast<uint64_t>(i)),
                        [&](VirtualMachine*, const CloneTiming&) {
                          completions.push_back(fx.loop.Now());
                        });
  }
  fx.loop.RunAll();
  ASSERT_EQ(completions.size(), 3u);
  const Duration unit = CloneLatencyModel().FlashCloneTotal(256);
  EXPECT_EQ(completions[0] - TimePoint(), unit);
  EXPECT_EQ(completions[1] - TimePoint(), unit + unit);
  EXPECT_EQ(completions[2] - TimePoint(), unit + unit + unit);
}

TEST(CloneEngineTest, ParallelWorkersOverlap) {
  EngineFixture fx;
  CloneEngineConfig config;
  config.control_plane_workers = 3;
  CloneEngine engine(&fx.loop, &fx.host, config);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    engine.RequestClone(fx.image, "vm", Ipv4Address(10, 1, 0, static_cast<uint8_t>(i)),
                        MacAddress::FromId(static_cast<uint64_t>(i)),
                        [&](VirtualMachine*, const CloneTiming&) {
                          completions.push_back(fx.loop.Now());
                        });
  }
  fx.loop.RunAll();
  ASSERT_EQ(completions.size(), 3u);
  const Duration unit = CloneLatencyModel().FlashCloneTotal(256);
  for (const TimePoint& t : completions) {
    EXPECT_EQ(t - TimePoint(), unit);  // all finish together
  }
}

TEST(CloneEngineTest, QueueWaitRecorded) {
  EngineFixture fx;
  CloneEngine engine(&fx.loop, &fx.host, CloneEngineConfig{});
  CloneTiming second_timing;
  engine.RequestClone(fx.image, "a", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(1),
                      nullptr);
  engine.RequestClone(fx.image, "b", Ipv4Address(10, 1, 0, 2), MacAddress::FromId(2),
                      [&](VirtualMachine*, const CloneTiming& t) { second_timing = t; });
  fx.loop.RunAll();
  EXPECT_EQ(second_timing.QueueWait(), CloneLatencyModel().FlashCloneTotal(256));
}

TEST(CloneEngineTest, FullCopyKindAddsCopyTime) {
  EngineFixture fx;
  CloneEngineConfig flash_config;
  CloneEngineConfig copy_config;
  copy_config.kind = CloneKind::kFullCopy;
  CloneEngine flash(&fx.loop, &fx.host, flash_config);
  CloneEngine copy(&fx.loop, &fx.host, copy_config);
  CloneTiming flash_timing;
  CloneTiming copy_timing;
  flash.RequestClone(fx.image, "f", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(1),
                     [&](VirtualMachine*, const CloneTiming& t) { flash_timing = t; });
  copy.RequestClone(fx.image, "c", Ipv4Address(10, 1, 0, 2), MacAddress::FromId(2),
                    [&](VirtualMachine*, const CloneTiming& t) { copy_timing = t; });
  fx.loop.RunAll();
  EXPECT_GT(copy_timing.Total(), flash_timing.Total());
  EXPECT_GT(copy_timing.memory_copy, Duration::Zero());
  EXPECT_EQ(flash_timing.memory_copy, Duration::Zero());
}

TEST(CloneEngineTest, FailedCloneReportsNull) {
  EngineFixture fx;
  // Exhaust memory so that admission fails: fill with full-copy clones first.
  CloneEngineConfig copy_config;
  copy_config.kind = CloneKind::kFullCopy;
  CloneEngine copy(&fx.loop, &fx.host, copy_config);
  for (int i = 0; i < 200; ++i) {
    copy.RequestClone(fx.image, "fill", Ipv4Address(10, 2, 0, static_cast<uint8_t>(i)),
                      MacAddress::FromId(static_cast<uint64_t>(i)), nullptr);
  }
  fx.loop.RunAll();
  EXPECT_GT(copy.clones_failed(), 0u);
  EXPECT_GT(copy.clones_completed(), 0u);
}

TEST(CloneEngineTest, DestroyFreesCapacityForNewClones) {
  EngineFixture fx;
  CloneEngine engine(&fx.loop, &fx.host, CloneEngineConfig{});
  VirtualMachine* vm = nullptr;
  engine.RequestClone(fx.image, "a", Ipv4Address(10, 1, 0, 1), MacAddress::FromId(1),
                      [&](VirtualMachine* v, const CloneTiming&) { vm = v; });
  fx.loop.RunAll();
  ASSERT_NE(vm, nullptr);
  const VmId id = vm->id();
  bool destroyed = false;
  engine.RequestDestroy(id, [&]() { destroyed = true; });
  fx.loop.RunAll();
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(fx.host.FindVm(id), nullptr);
  EXPECT_EQ(fx.host.live_vm_count(), 0u);
}

TEST(CloneEngineTest, LatencyHistogramPopulated) {
  // Every completed clone's start -> finish time lands once in the registry's
  // clone.phase_ns.total histogram.
  EngineFixture fx;
  Observability obs;
  CloneEngineConfig config;
  config.obs = &obs;
  CloneEngine engine(&fx.loop, &fx.host, config);
  for (int i = 0; i < 5; ++i) {
    engine.RequestClone(fx.image, "vm", Ipv4Address(10, 1, 0, static_cast<uint8_t>(i)),
                        MacAddress::FromId(static_cast<uint64_t>(i)), nullptr);
  }
  fx.loop.RunAll();
  LatencySnapshot total;
  ASSERT_TRUE(obs.metrics.SnapshotLatency("clone.phase_ns.total", &total));
  EXPECT_EQ(total.total, 5u);
  const uint64_t expected_ns =
      static_cast<uint64_t>(CloneLatencyModel().FlashCloneTotal(256).nanos());
  EXPECT_EQ(total.max, expected_ns);
  // Bucket upper bounds over-report by at most 1/16.
  EXPECT_GE(total.Quantile(0.5), expected_ns);
  EXPECT_LE(total.Quantile(0.5), expected_ns + expected_ns / 16);
}

}  // namespace
}  // namespace potemkin
