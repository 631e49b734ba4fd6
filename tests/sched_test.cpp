// Tests for hs::sched — the adaptive heterogeneous scheduler:
//  * DeviceLoadTracker selection (priming, EWMA ranking, stickiness,
//    stealing, exclusion, in-flight accounting across migrations);
//  * AimdBatchSizer (slow-start, regression back-off, rejection clamping,
//    convergence against a real gpusim memory-limited device);
//  * golden equivalence — the adaptive modeled runners and functional
//    pipelines must produce bit-identical output to their static
//    counterparts, including under injected device loss (the queued work
//    drains through the stealing path).
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/modeled.hpp"
#include "dedup/pipelines.hpp"
#include "gpusim/fault_plan.hpp"
#include "kernels/mandel.hpp"
#include "mandel/modeled.hpp"
#include "mandel/pipelines.hpp"
#include "modeled_runners.hpp"
#include "sched/sched.hpp"

namespace hs {
namespace {

using sched::AimdBatchSizer;
using testutil::run_combined;
using testutil::run_fig5;
using testutil::run_gpu_single_thread;
using testutil::run_sequential;
using sched::AimdConfig;
using sched::DeviceLoadTracker;
using sched::SchedMode;

// ---- SchedMode parsing ------------------------------------------------------------

TEST(SchedModeTest, ParsesBothModesAndRejectsJunk) {
  auto s = sched::parse_sched_mode("static");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(), SchedMode::kStatic);
  auto a = sched::parse_sched_mode("adaptive");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), SchedMode::kAdaptive);

  auto bad = sched::parse_sched_mode("fastest");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_STREQ(sched::to_string(SchedMode::kAdaptive), "adaptive");
  EXPECT_STREQ(sched::to_string(SchedMode::kStatic), "static");
}

// ---- DeviceLoadTracker ------------------------------------------------------------

TEST(DeviceLoadTrackerTest, PrimesEveryDeviceBeforeReusingOne) {
  // Unmeasured devices all score 0; the in-flight tie-break must spread the
  // first wave across devices instead of piling onto device 0.
  DeviceLoadTracker t(3);
  EXPECT_EQ(t.acquire(), 0);
  EXPECT_EQ(t.acquire(), 1);
  EXPECT_EQ(t.acquire(), 2);
  EXPECT_EQ(t.picks(), 3u);
}

TEST(DeviceLoadTrackerTest, RanksByExpectedWaitDeterministically) {
  DeviceLoadTracker t(2);
  t.release(t.acquire(), /*service_seconds=*/1.0);  // device 0: ewma 1.0
  t.release(t.acquire(), /*service_seconds=*/0.1);  // device 1: ewma 0.1
  // (0+1)*0.1 < (0+1)*1.0, repeatedly — releases keep the ranking stable.
  for (int i = 0; i < 4; ++i) {
    int d = t.acquire();
    EXPECT_EQ(d, 1) << "iteration " << i;
    t.release(d, 0.1);
  }
  // Load device 1 until its expected wait exceeds device 0's: it absorbs
  // 9 items ((9+1)*0.1 ties device 0's idle 1.0, and the in-flight
  // tie-break then prefers the idle device), so the 10th spills over.
  EXPECT_EQ(t.acquire(), 1);  // (1+1)*0.1 = 0.2 < 1.0
  for (int i = 0; i < 9; ++i) t.acquire();
  EXPECT_EQ(t.snapshot(0).inflight + t.snapshot(1).inflight, 10);
  EXPECT_GT(t.snapshot(0).inflight, 0);  // eventually spilled onto device 0
}

TEST(DeviceLoadTrackerTest, PreferringSticksUntilAnIdleDeviceCanSteal) {
  DeviceLoadTracker t(2);
  // Worker's first item lands on its preferred device.
  EXPECT_EQ(t.acquire_preferring(0), 0);
  // Device 0 now busy, device 1 idle: the next preferring(0) acquisition is
  // stolen by the idle device.
  EXPECT_EQ(t.acquire_preferring(0), 1);
  EXPECT_EQ(t.steals(), 1u);
  // Both busy: stickiness wins again.
  EXPECT_EQ(t.acquire_preferring(0), 0);
  EXPECT_EQ(t.steals(), 1u);
}

TEST(DeviceLoadTrackerTest, ExclusionForcesMigrationAndDrains) {
  DeviceLoadTracker t(2);
  EXPECT_EQ(t.acquire_preferring(0), 0);
  t.exclude(0);
  EXPECT_TRUE(t.is_excluded(0));
  // A worker bound to the lost device is routed to the survivor; the steal
  // counter is untouched (a forced migration is not a steal).
  EXPECT_EQ(t.acquire_preferring(0), 1);
  EXPECT_EQ(t.steals(), 0u);
  t.exclude(1);
  EXPECT_EQ(t.acquire_preferring(0), -1);  // nothing left
  EXPECT_EQ(t.acquire(), -1);
}

TEST(DeviceLoadTrackerTest, TransferAndAbandonKeepInflightConsistent) {
  DeviceLoadTracker t(2);
  int d = t.acquire();  // 0
  EXPECT_EQ(t.snapshot(0).inflight, 1);
  t.transfer(d, 1);  // item migrated mid-service
  EXPECT_EQ(t.snapshot(0).inflight, 0);
  EXPECT_EQ(t.snapshot(1).inflight, 1);
  t.abandon(1);  // attempt failed: no EWMA observation
  EXPECT_EQ(t.snapshot(1).inflight, 0);
  EXPECT_EQ(t.snapshot(1).completed, 0u);
  EXPECT_EQ(t.snapshot(1).ewma_seconds, 0.0);
}

// ---- AimdBatchSizer ---------------------------------------------------------------

TEST(AimdBatchSizerTest, SlowStartDoublesUntilTheCurveFlattens) {
  AimdConfig cfg;
  cfg.initial = 1;
  cfg.max_size = 1024;
  AimdBatchSizer sizer(cfg);
  // Per-element cost halves with each doubling (launch overhead
  // amortizing), then flattens: the sizer must stop at the break-even, the
  // behavior that rediscovers the paper's 32-line constant.
  double cost = 1.0;
  std::vector<std::uint64_t> sizes;
  while (!sizer.converged()) {
    sizes.push_back(sizer.current());
    sizer.on_success(cost);
    cost = sizes.size() < 5 ? cost / 2 : cost;  // flat from the 6th probe
  }
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32}));
  EXPECT_EQ(sizer.current(), 32u);
  EXPECT_EQ(sizer.grows(), 5u);
}

TEST(AimdBatchSizerTest, RegressionHoldsByDefaultAndBacksOffWhenEnabled) {
  // Cost sequence: improves to size 4, then the doubling to 8 regresses.
  auto run = [](bool backoff) {
    AimdConfig cfg;
    cfg.initial = 1;
    cfg.backoff_on_regress = backoff;
    AimdBatchSizer sizer(cfg);
    sizer.on_success(1.0);   // 1 -> 2
    sizer.on_success(0.5);   // 2 -> 4
    sizer.on_success(0.25);  // 4 -> 8
    sizer.on_success(0.4);   // regression at 8
    return sizer;
  };
  AimdBatchSizer held = run(false);
  EXPECT_TRUE(held.converged());
  EXPECT_EQ(held.current(), 8u);  // heterogeneous elements: hold
  AimdBatchSizer backed = run(true);
  EXPECT_TRUE(backed.converged());
  EXPECT_EQ(backed.current(), 4u);  // homogeneous elements: back off
  EXPECT_EQ(backed.shrinks(), 1u);
}

TEST(AimdBatchSizerTest, RejectHalvesClampsLimitAndTerminates) {
  AimdConfig cfg;
  cfg.initial = 64;
  cfg.max_size = 1024;
  cfg.add_step = 4;
  AimdBatchSizer sizer(cfg);
  sizer.on_reject();
  EXPECT_EQ(sizer.current(), 32u);
  EXPECT_EQ(sizer.limit(), 60u);  // strictly below the rejected size
  EXPECT_FALSE(sizer.converged());
  // Additive probing grows toward the limit...
  sizer.on_success(1.0);
  EXPECT_EQ(sizer.current(), 36u);
  // ...and a second rejection keeps shrinking the limit, so the
  // grow/reject cycle cannot loop forever.
  sizer.on_reject();
  EXPECT_EQ(sizer.limit(), 32u);
  std::uint64_t before = sizer.limit();
  for (int i = 0; i < 100 && !sizer.converged(); ++i) {
    sizer.on_success(1.0);
    if (sizer.current() >= before) sizer.on_reject();
  }
  EXPECT_TRUE(sizer.converged());
  EXPECT_LT(sizer.current(), before);
}

TEST(AimdBatchSizerTest, ConvergesBelowARealDeviceMemoryCeiling) {
  // Drive the sizer with genuine gpusim allocations on the 1 MiB TestTiny
  // device — the same OUT_OF_MEMORY accounting the shims surface — and an
  // amortization-shaped cost curve. No hardcoded fallback size anywhere:
  // the ceiling emerges from Device::malloc.
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TestTiny());
  gpusim::Device& dev = machine->device(0);
  const std::uint64_t concurrency = 4;  // replicas x mem-spaces stand-in

  AimdConfig cfg;
  cfg.min_size = 1024;
  cfg.initial = 4096;
  cfg.add_step = 4096;
  cfg.max_size = 64 * 1024 * 1024;
  cfg.backoff_on_regress = true;
  AimdBatchSizer sizer(cfg);

  int iters = 0;
  while (!sizer.converged() && iters++ < 64) {
    const std::uint64_t batch = sizer.current();
    std::vector<void*> bufs;
    bool fits = true;
    for (std::uint64_t i = 0; i < concurrency; ++i) {
      auto r = dev.malloc(batch);
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), ErrorCode::kOutOfMemory);
        fits = false;
        break;
      }
      bufs.push_back(r.value());
    }
    for (void* p : bufs) ASSERT_TRUE(dev.free(p).ok());
    if (fits) {
      sizer.on_success(1.0 / static_cast<double>(batch) + 1e-9);
    } else {
      sizer.on_reject();
    }
  }
  EXPECT_TRUE(sizer.converged());
  EXPECT_GE(sizer.rejects(), 1u);
  // The converged working set genuinely fits on the device.
  EXPECT_LE(sizer.current() * concurrency, dev.memory_capacity());
  EXPECT_GT(sizer.current() * concurrency, dev.memory_capacity() / 4);
}

// ---- golden equivalence: modeled mandel -------------------------------------------

class SchedModeledTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kernels::MandelParams p;
    p.dim = 128;
    p.niter = 20000;
    map_ = new mandel::IterationMap(mandel::IterationMap::compute(p));
  }
  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
  }
  static const mandel::IterationMap& map() { return *map_; }

 private:
  static mandel::IterationMap* map_;
};

mandel::IterationMap* SchedModeledTest::map_ = nullptr;

TEST_F(SchedModeledTest, AdaptiveModeledRunsMatchSequentialChecksum) {
  mandel::ModeledConfig c;
  c.batch_lines = 32;
  auto seq = run_sequential(map(), c);
  ASSERT_NE(seq.checksum, 0u);

  for (int devices : {1, 2}) {
    for (int buffers : {1, 2}) {
      mandel::ModeledConfig a = c;
      a.sched = SchedMode::kAdaptive;
      a.devices = devices;
      a.buffers_per_gpu = buffers;
      for (mandel::GpuApi api :
           {mandel::GpuApi::kCuda, mandel::GpuApi::kOpenCl}) {
        auto single = run_gpu_single_thread(map(), a, api,
                                            mandel::GpuMode::kBatched);
        EXPECT_EQ(single.checksum, seq.checksum);
        EXPECT_GT(single.adaptive_batch_lines, 0u);
        auto combined =
            run_combined(map(), a, mandel::CpuModel::kSpar, api);
        EXPECT_EQ(combined.checksum, seq.checksum);
      }
    }
  }
}

TEST_F(SchedModeledTest, StaticConfigIsUnchangedByDefault) {
  // A default-constructed config must keep the historical scheduler, so
  // existing callers are bit-for-bit unaffected.
  EXPECT_EQ(mandel::ModeledConfig{}.sched, SchedMode::kStatic);
  EXPECT_EQ(dedup::Fig5Config{}.sched, SchedMode::kStatic);
}

// ---- golden equivalence: modeled dedup --------------------------------------------

TEST(SchedFig5Test, AdaptiveSparGpuMatchesStaticWorkAndLabels) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 512 * 1024;
  const auto input = datagen::generate(spec);
  dedup::Fig5Config cfg;
  cfg.replicas = 4;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x7FF;
  const auto trace = dedup::build_trace(input, cfg.dedup);

  dedup::Fig5Config adaptive = cfg;
  adaptive.sched = SchedMode::kAdaptive;
  adaptive.devices = 2;
  dedup::Fig5Config statique = cfg;
  statique.devices = 2;
  for (auto backend :
       {dedup::Fig5Backend::kSparCuda, dedup::Fig5Backend::kSparOcl}) {
    auto s = run_fig5(trace, statique, backend);
    auto a = run_fig5(trace, adaptive, backend);
    // Same kernels launched, only the placement changed; least-loaded
    // dispatch must not lose to round-robin on a homogeneous machine.
    EXPECT_EQ(a.kernel_launches, s.kernel_launches);
    EXPECT_NE(a.label.find(" adaptive"), std::string::npos);
    EXPECT_LE(a.modeled_seconds, s.modeled_seconds * 1.01);
  }
}

// ---- golden equivalence: functional pipelines -------------------------------------

TEST(SchedFunctionalTest, TrackedMandelRenderIsBitExact) {
  kernels::MandelParams params;
  params.dim = 64;
  params.niter = 100;
  const auto reference = mandel::render_sequential(params);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  DeviceLoadTracker tracker(machine->device_count());
  auto r = mandel::render_spar_cuda(params, 4, *machine, nullptr, {},
                                    &tracker);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference);
  // Every line went through the tracker and completed.
  EXPECT_EQ(tracker.picks(), static_cast<std::uint64_t>(params.dim));
  EXPECT_EQ(tracker.snapshot(0).completed + tracker.snapshot(1).completed,
            static_cast<std::uint64_t>(params.dim));
  EXPECT_EQ(tracker.snapshot(0).inflight, 0);
  EXPECT_EQ(tracker.snapshot(1).inflight, 0);
  // Both devices did real work (least-loaded spreads the first wave).
  EXPECT_GT(machine->device(0).counters().kernels_launched, 0u);
  EXPECT_GT(machine->device(1).counters().kernels_launched, 0u);
}

TEST(SchedFunctionalTest, DeviceLossDrainsThroughSurvivorBitExactly) {
  kernels::MandelParams params;
  params.dim = 64;
  params.niter = 100;
  const auto reference = mandel::render_sequential(params);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  gpusim::FaultPlan plan;
  plan.lose_device_at(10);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  DeviceLoadTracker tracker(machine->device_count());
  auto r = mandel::render_spar_cuda(params, 4, *machine, &stats, {},
                                    &tracker);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference);
  EXPECT_TRUE(machine->device(0).lost());
  // The tracker excluded the lost device; its queued lines drained through
  // the survivor.
  EXPECT_TRUE(tracker.is_excluded(0));
  EXPECT_FALSE(tracker.is_excluded(1));
  EXPECT_GT(machine->device(1).counters().kernels_launched, 0u);
  EXPECT_EQ(tracker.snapshot(0).inflight, 0);
  EXPECT_EQ(tracker.snapshot(1).inflight, 0);
}

TEST(SchedFunctionalTest, DeviceLostDuringSetupIsExcluded) {
  // Device 0 dies at its first operation, which is always the row
  // allocation of a worker's setup: the loss surfaces inside setup, never
  // at a launch, and must still exclude the device tracker-wide.
  kernels::MandelParams params;
  params.dim = 64;
  params.niter = 100;
  const auto reference = mandel::render_sequential(params);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  gpusim::FaultPlan plan;
  plan.lose_device_at(1);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  DeviceLoadTracker tracker(machine->device_count());
  auto r = mandel::render_spar_cuda(params, 4, *machine, nullptr, {},
                                    &tracker);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_EQ(machine->device(0).counters().kernels_launched, 0u);
  EXPECT_TRUE(tracker.is_excluded(0));
  EXPECT_FALSE(tracker.is_excluded(1));
  EXPECT_EQ(tracker.snapshot(0).inflight, 0);
  EXPECT_EQ(tracker.snapshot(1).inflight, 0);
}

TEST(SchedFunctionalTest, FaultsAndAdaptiveSchedWithAimdProbingStayBitExact) {
  // The combined regime the serve soak runs in: fault injection (including
  // a device loss) and the adaptive scheduler active at the same time,
  // while an AIMD batch sizer is still probing batch sizes — every probe
  // round must drain through the survivors and stay bit-exact.
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 256 * 1024;
  const auto input = datagen::generate(spec);

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  {
    gpusim::FaultPlan plan =
        gpusim::FaultPlan::Parse("seed=5,launch.p=0.1,lost.nth=30").value();
    machine->device(0).set_fault_plan(std::move(plan));
  }
  {
    gpusim::FaultPlan plan =
        gpusim::FaultPlan::Parse("seed=6,h2d.p=0.05").value();
    machine->device(1).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());

  AimdConfig cfg;
  cfg.initial = 1;
  cfg.max_size = 8;  // batch_size = current() * 16 kB, so 16 kB .. 128 kB
  AimdBatchSizer sizer(cfg);
  DeviceLoadTracker tracker(machine->device_count());
  RetryStats stats;
  int rounds = 0;
  while (!sizer.converged() && rounds < 8) {
    dedup::DedupConfig config;
    config.batch_size = static_cast<std::uint32_t>(sizer.current()) * 16 * 1024;
    auto reference = dedup::archive_sequential(input, config);
    ASSERT_TRUE(reference.ok());
    const auto t0 = std::chrono::steady_clock::now();
    auto archive = dedup::archive_spar_cuda(input, config, 4, *machine,
                                            &stats, {}, &tracker);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(archive.ok()) << "round " << rounds << ": "
                              << archive.status().ToString();
    EXPECT_EQ(archive.value(), reference.value()) << "round " << rounds;
    sizer.on_success(dt.count() / static_cast<double>(sizer.current()));
    ++rounds;
  }
  cudax::unbind_machine();

  // The sizer really probed (several observations, at least one doubling)
  // while the injected loss forced a migration that stuck for every
  // subsequent round.
  EXPECT_GT(rounds, 1);
  EXPECT_EQ(sizer.observations(), static_cast<std::uint64_t>(rounds));
  EXPECT_GT(sizer.grows(), 0u);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_TRUE(tracker.is_excluded(0));
  EXPECT_FALSE(tracker.is_excluded(1));
  EXPECT_GT(stats.retries.load(), 0u);
  EXPECT_GT(machine->device(1).counters().kernels_launched, 0u);
  EXPECT_EQ(tracker.snapshot(0).inflight, 0);
  EXPECT_EQ(tracker.snapshot(1).inflight, 0);
}

TEST(SchedFunctionalTest, TrackedDedupArchiveIsBitExact) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 256 * 1024;
  const auto input = datagen::generate(spec);
  dedup::DedupConfig config;
  config.batch_size = 32 * 1024;
  auto reference = dedup::archive_sequential(input, config);
  ASSERT_TRUE(reference.ok());

  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  DeviceLoadTracker tracker(machine->device_count());
  auto archive = dedup::archive_spar_cuda(input, config, 4, *machine,
                                          nullptr, {}, &tracker);
  cudax::unbind_machine();
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_EQ(archive.value(), reference.value());
  EXPECT_GT(tracker.picks(), 0u);
  EXPECT_EQ(tracker.snapshot(0).inflight, 0);
  EXPECT_EQ(tracker.snapshot(1).inflight, 0);
}

}  // namespace
}  // namespace hs
