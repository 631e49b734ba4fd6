// End-to-end fault injection & graceful degradation tests: FaultPlan
// semantics (determinism, spec parsing), error surfacing through the cudax
// and oclx/cl_api shims, and the acceptance scenarios — transient copy
// failures, sticky device loss on a multi-GPU run, and allocation pressure
// in the dedup GPU stages — all of which must complete bit-exactly against
// the fault-free reference while the telemetry records the injected faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/retry.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "gpusim/fault_plan.hpp"
#include "mandel/pipelines.hpp"
#include "oclx/cl_api.hpp"
#include "oclx/oclx.hpp"

namespace hs {
namespace {

using gpusim::FaultPlan;
using gpusim::FaultSite;

// ---- FaultPlan semantics ----------------------------------------------------------

TEST(FaultPlanTest, NthOpFiresExactlyOnce) {
  FaultPlan plan;
  plan.fail_nth(FaultSite::kH2D, 3);
  EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  Status s = plan.on_op(FaultSite::kH2D);
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(plan.on_op(FaultSite::kH2D).ok());
  EXPECT_EQ(plan.telemetry().total_faults, 1u);
  EXPECT_EQ(plan.telemetry().records.size(), 1u);
  EXPECT_EQ(plan.telemetry().records[0].site_op, 3u);
}

TEST(FaultPlanTest, AllocFaultsDefaultToOutOfMemory) {
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1);
  EXPECT_EQ(plan.on_op(FaultSite::kAlloc).code(), ErrorCode::kOutOfMemory);
}

TEST(FaultPlanTest, StickyLossPoisonsEverySubsequentOp) {
  FaultPlan plan;
  plan.lose_device_at(2);
  EXPECT_TRUE(plan.on_op(FaultSite::kAlloc).ok());
  EXPECT_EQ(plan.on_op(FaultSite::kLaunch).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(plan.device_lost());
  // Every site now fails, forever.
  EXPECT_EQ(plan.on_op(FaultSite::kAlloc).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(plan.on_op(FaultSite::kH2D).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(plan.on_op(FaultSite::kD2H).code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(plan.telemetry().device_lost);
}

TEST(FaultPlanTest, ProbabilisticDecisionsAreSeedDeterministic) {
  auto decisions = [](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.fail_probabilistic(FaultSite::kLaunch, 0.3);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(!plan.on_op(FaultSite::kLaunch).ok());
    }
    return out;
  };
  EXPECT_EQ(decisions(7), decisions(7));
  EXPECT_NE(decisions(7), decisions(8));
  // The rate is roughly honored.
  auto d = decisions(7);
  auto faults = std::count(d.begin(), d.end(), true);
  EXPECT_GT(faults, 20);
  EXPECT_LT(faults, 120);
}

TEST(FaultPlanTest, ParseBuildsEquivalentPlan) {
  auto plan = FaultPlan::Parse("seed=7,h2d.p=0.05,alloc.nth=3,lost.nth=200");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  FaultPlan p = std::move(plan).value();
  // alloc.nth=3 fires at the third allocation with OOM.
  EXPECT_TRUE(p.on_op(FaultSite::kAlloc).ok());
  EXPECT_TRUE(p.on_op(FaultSite::kAlloc).ok());
  EXPECT_EQ(p.on_op(FaultSite::kAlloc).code(), ErrorCode::kOutOfMemory);
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_EQ(FaultPlan::Parse("bogus").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("h2d.nth=").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("h2d.p=1.5").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("unknown.nth=1").status().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(FaultPlan::Parse("").ok());  // empty spec = no faults
}

// ---- shim error surfacing ---------------------------------------------------------

TEST(ShimSurfacingTest, CudaxMapsInjectedFaults) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1).fail_nth(FaultSite::kD2H, 1);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());

  void* p = nullptr;
  EXPECT_EQ(cudax::cudaMalloc(&p, 64),
            cudax::cudaError::cudaErrorMemoryAllocation);
  ASSERT_EQ(cudax::cudaMalloc(&p, 64), cudax::cudaError::cudaSuccess);

  std::uint8_t host[8] = {};
  ASSERT_EQ(cudax::cudaMemcpy(p, host, 8,
                              cudax::cudaMemcpyKind::cudaMemcpyHostToDevice),
            cudax::cudaError::cudaSuccess);
  EXPECT_EQ(cudax::cudaMemcpy(host, p, 8,
                              cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost),
            cudax::cudaError::cudaErrorLaunchFailure);
  cudax::unbind_machine();
}

TEST(ShimSurfacingTest, CudaxReportsLostDeviceAsUnavailable) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  machine->device(0).mark_lost();
  cudax::bind_machine(machine.get());
  void* p = nullptr;
  EXPECT_EQ(cudax::cudaMalloc(&p, 64),
            cudax::cudaError::cudaErrorDevicesUnavailable);
  cudax::unbind_machine();
  EXPECT_EQ(cudax::error_code_of(cudax::cudaError::cudaErrorDevicesUnavailable),
            ErrorCode::kUnavailable);
}

TEST(ShimSurfacingTest, ClApiMapsLostDeviceAndOom) {
  using namespace oclx::capi;
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_nth(FaultSite::kAlloc, 1);
  machine->device(0).set_fault_plan(std::move(plan));
  clSimBindMachine(machine.get());

  cl_platform_id platform = nullptr;
  ASSERT_EQ(clGetPlatformIDs(1, &platform, nullptr), CL_SUCCESS);
  cl_device_id dev = nullptr;
  ASSERT_EQ(clGetDeviceIDs(platform, 1, &dev, nullptr), CL_SUCCESS);
  cl_int err = CL_SUCCESS;
  cl_context ctx = clCreateContext(&dev, 1, &err);
  ASSERT_EQ(err, CL_SUCCESS);

  cl_mem buf = clCreateBuffer(ctx, 64, &err);
  EXPECT_EQ(buf, nullptr);
  EXPECT_EQ(err, CL_OUT_OF_RESOURCES);

  machine->device(0).mark_lost();
  buf = clCreateBuffer(ctx, 64, &err);
  EXPECT_EQ(buf, nullptr);
  EXPECT_EQ(err, CL_DEVICE_NOT_AVAILABLE);
  clReleaseContext(ctx);
  clSimBindMachine(nullptr);
}

// ---- retry policy -----------------------------------------------------------------

/// Delay hook for tests that must not sleep.
void no_delay(int) {}

TEST(RetryTest, RetriesTransientAndStopsOnUnavailable) {
  RetryStats stats;
  int calls = 0;
  Status s = retry_status(
      RetryPolicy{}, &stats, "op",
      [&] {
        ++calls;
        return calls < 3 ? Internal("flaky") : OkStatus();
      },
      no_delay);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries.load(), 2u);

  calls = 0;
  s = retry_status(
      RetryPolicy{}, &stats, "op",
      [&] {
        ++calls;
        return Unavailable("device lost");
      },
      no_delay);
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);  // not retriable: surfaces immediately
  EXPECT_FALSE(stats.events().empty());
}

// Regression: the delay envelope grows geometrically per retry (3^79 us
// after 80 attempts, far beyond the int64 range) and must be clamped in
// the double domain before the cast to integer microseconds — casting an
// out-of-range double is UB. Every retry must still sleep at most
// max_delay, and draws stay in range even when max_delay is the largest
// representable duration.
TEST(RetryTest, BackoffClampsBeforeOverflow) {
  RetryPolicy policy;
  policy.max_attempts = 80;
  policy.base_delay = std::chrono::microseconds(1);
  policy.max_delay = std::chrono::microseconds(100);
  BackoffSequence backoff(policy, /*seed=*/5);
  int calls = 0;
  std::chrono::microseconds longest{0};
  auto start = std::chrono::steady_clock::now();
  Status s = retry_status(
      policy, nullptr, "op",
      [&] {
        ++calls;
        return Internal("always broken");
      },
      [&](int retry_index) {
        if (retry_index == 0) backoff.reset();
        const auto d = backoff.next();
        longest = std::max(longest, d);
        std::this_thread::sleep_for(d);
      });
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  EXPECT_EQ(calls, 80);
  EXPECT_GE(longest, policy.base_delay);
  EXPECT_LE(longest, policy.max_delay);
  // 79 retries clamped to <= 100 us each; generous slack for slow CI.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(5000));

  RetryPolicy huge = policy;
  huge.max_delay = std::chrono::microseconds::max();
  BackoffSequence wide(huge, /*seed=*/9);
  for (int i = 0; i < 200; ++i) {
    const auto d = wide.next();
    ASSERT_GE(d, huge.base_delay) << i;
    ASSERT_LE(d, huge.max_delay) << i;
  }
}

TEST(RetryTest, ExhaustsAfterMaxAttempts) {
  RetryStats stats;
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  Status s = retry_status(
      policy, &stats, "op",
      [&] {
        ++calls;
        return Internal("always broken");
      },
      no_delay);
  EXPECT_EQ(s.code(), ErrorCode::kInternal);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.exhausted.load(), 1u);
}

// ---- acceptance: mandel under faults ----------------------------------------------

class MandelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.dim = 64;
    params_.niter = 100;
    reference_ = mandel::render_sequential(params_);
  }
  kernels::MandelParams params_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(MandelFaultTest, TransientCopyFaultsAreRetriedBitExactly) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan(100 + static_cast<std::uint64_t>(d));
    plan.fail_probabilistic(FaultSite::kD2H, 0.2);
    plan.fail_probabilistic(FaultSite::kLaunch, 0.1);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  // Faults were actually injected and absorbed by retries.
  std::uint64_t injected = machine->device(0).fault_telemetry().total_faults +
                           machine->device(1).fault_telemetry().total_faults;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(stats.retries.load(), 0u);
  EXPECT_FALSE(stats.events().empty());
}

TEST_F(MandelFaultTest, StickyDeviceLossMigratesToSurvivor) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.lose_device_at(10);  // device 0 dies early in the stream
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_FALSE(machine->device(1).lost());
  EXPECT_GT(stats.device_losses.load(), 0u);
  // Workers bound to device 0 re-homed onto device 1 (or fell back to the
  // CPU during the loss window); either way the survivor did real work.
  EXPECT_GT(stats.device_switches.load() + stats.cpu_fallbacks.load(), 0u);
  EXPECT_GT(machine->device(1).counters().kernels_launched, 0u);
}

TEST_F(MandelFaultTest, AllDevicesLostFallsBackToCpu) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan;
    plan.lose_device_at(5);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_TRUE(machine->device(1).lost());
  EXPECT_GT(stats.cpu_fallbacks.load(), 0u);
}

TEST_F(MandelFaultTest, FaultFreeRunStillOffloadsEveryLine) {
  // Guard: the fault-tolerance plumbing must not change fault-free op
  // counts (one kernel launch per line).
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = mandel::render_spar_cuda(params_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  std::uint64_t launches = machine->device(0).counters().kernels_launched +
                           machine->device(1).counters().kernels_launched;
  EXPECT_EQ(launches, static_cast<std::uint64_t>(params_.dim));
  EXPECT_EQ(stats.retries.load(), 0u);
  EXPECT_EQ(stats.cpu_fallbacks.load(), 0u);
}

// ---- acceptance: dedup under faults -----------------------------------------------

class DedupFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CorpusSpec spec;
    spec.kind = datagen::CorpusKind::kParsecLike;
    spec.bytes = 200 * 1024;
    spec.seed = 123;
    input_ = datagen::generate(spec);
    cfg_.batch_size = 64 * 1024;
    cfg_.rabin.min_block = 256;
    cfg_.rabin.max_block = 8192;
    cfg_.rabin.mask = 0x3FF;
    cfg_.lzss.window_size = 128;
    auto ref = dedup::archive_sequential(input_, cfg_);
    ASSERT_TRUE(ref.ok());
    reference_ = std::move(ref).value();
  }
  std::vector<std::uint8_t> input_;
  dedup::DedupConfig cfg_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(DedupFaultTest, TransientOomInGpuStagesIsRetriedBitExactly) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  // One-shot OOM on each device's scratch allocations (the LZSS FindMatch
  // stage allocates the biggest scratch, so it is the likeliest victim).
  for (int d = 0; d < 2; ++d) {
    FaultPlan plan(200 + static_cast<std::uint64_t>(d));
    plan.fail_nth(FaultSite::kAlloc, 1);
    plan.fail_probabilistic(FaultSite::kAlloc, 0.25);
    machine->device(d).set_fault_plan(std::move(plan));
  }
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = dedup::archive_spar_cuda(input_, cfg_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  std::uint64_t injected = machine->device(0).fault_telemetry().total_faults +
                           machine->device(1).fault_telemetry().total_faults;
  EXPECT_GT(injected, 0u);
  EXPECT_GT(stats.attempts.load(), 0u);
  // The archive stays decompressible end to end.
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), input_);
}

TEST_F(DedupFaultTest, PersistentOomDegradesToCpuStages) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.fail_probabilistic(FaultSite::kAlloc, 1.0);  // every alloc fails
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  RetryPolicy policy;
  policy.base_delay = std::chrono::microseconds(1);  // keep the test fast
  auto r = dedup::archive_spar_cuda(input_, cfg_, 2, *machine, &stats, policy);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_GT(stats.cpu_fallbacks.load(), 0u);
  EXPECT_GT(stats.exhausted.load(), 0u);
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input_);
}

TEST_F(DedupFaultTest, DeviceLossMidArchiveStaysBitExact) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  FaultPlan plan;
  plan.lose_device_at(6);
  machine->device(0).set_fault_plan(std::move(plan));
  cudax::bind_machine(machine.get());
  RetryStats stats;
  auto r = dedup::archive_spar_cuda(input_, cfg_, 4, *machine, &stats);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_TRUE(machine->device(0).lost());
  EXPECT_GT(stats.device_losses.load(), 0u);
  auto back = dedup::extract(r.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), input_);
}

}  // namespace
}  // namespace hs
