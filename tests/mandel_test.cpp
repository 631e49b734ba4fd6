// Tests for the Mandelbrot application: every real pipeline variant renders
// identical pixels; the iteration-map cache round-trips; and the modeled
// runners reproduce the paper's qualitative ordering (Fig. 1's ladder).
#include <gtest/gtest.h>

#include <cstdio>

#include "cudax/cudax.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/modeled.hpp"
#include "mandel/pipelines.hpp"
#include "modeled_runners.hpp"

namespace hs::mandel {
namespace {

using cluster::RunResult;
using testutil::run_combined;
using testutil::run_cpu_pipeline;
using testutil::run_gpu_single_thread;
using testutil::run_sequential;

MandelParams tiny_params() {
  MandelParams p;
  p.dim = 64;
  p.niter = 400;
  return p;
}

// ---- real pipelines --------------------------------------------------------------

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_ = tiny_params();
    reference_ = render_sequential(params_);
    ASSERT_EQ(reference_.size(), 64u * 64u);
  }
  MandelParams params_;
  std::vector<std::uint8_t> reference_;
};

TEST_F(PipelineEquivalenceTest, FlowMatchesSequential) {
  auto r = render_flow(params_, 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  // No workers is an error, not a blank image.
  EXPECT_EQ(render_flow(params_, 0).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(PipelineEquivalenceTest, TaskxMatchesSequential) {
  auto r = render_taskx(params_, 4, 8);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
}

TEST_F(PipelineEquivalenceTest, SparMatchesSequential) {
  auto r = render_spar(params_, 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
}

TEST_F(PipelineEquivalenceTest, SparCudaMatchesSequential) {
  auto machine = gpusim::Machine::Create(2, gpusim::DeviceSpec::TitanXP());
  cudax::bind_machine(machine.get());
  auto r = render_spar_cuda(params_, 4, *machine);
  cudax::unbind_machine();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  // Workers offloaded every line to the simulated GPUs.
  std::uint64_t launches = machine->device(0).counters().kernels_launched +
                           machine->device(1).counters().kernels_launched;
  EXPECT_EQ(launches, 64u);
}

TEST_F(PipelineEquivalenceTest, OpenClBatchedMatchesSequential) {
  auto machine = gpusim::Machine::Create(1, gpusim::DeviceSpec::TitanXP());
  auto r = render_opencl_batched(params_, *machine, 16);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), reference_);
  EXPECT_EQ(machine->device(0).counters().kernels_launched, 4u);
}

// ---- iteration map ------------------------------------------------------------------

TEST(IterationMapTest, MatchesDirectMath) {
  MandelParams p = tiny_params();
  IterationMap map = IterationMap::compute(p);
  for (int i = 0; i < p.dim; i += 7) {
    for (int j = 0; j < p.dim; j += 5) {
      EXPECT_EQ(map.iters(i, j), kernels::mandel_iterations(p, i, j));
    }
  }
  // Line costs add up.
  std::uint64_t sum = 0;
  for (int i = 0; i < p.dim; ++i) sum += map.line_cost(i);
  EXPECT_EQ(sum, map.total_cost());
}

TEST(IterationMapTest, RenderedLineMatchesKernel) {
  MandelParams p = tiny_params();
  IterationMap map = IterationMap::compute(p);
  std::vector<std::uint8_t> from_map(static_cast<std::size_t>(p.dim));
  std::vector<std::uint8_t> direct(static_cast<std::size_t>(p.dim));
  map.render_line(20, from_map);
  kernels::mandel_line(p, 20, direct);
  EXPECT_EQ(from_map, direct);
}

TEST(IterationMapTest, CacheRoundtrip) {
  MandelParams p = tiny_params();
  IterationMap map = IterationMap::compute(p);
  std::string path = ::testing::TempDir() + "/hs_map_cache.bin";
  ASSERT_TRUE(map.save(path).ok());
  auto loaded = IterationMap::load(path, p);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().total_cost(), map.total_cost());
  for (int i = 0; i < p.dim; i += 11) {
    EXPECT_EQ(loaded.value().iters(i, i), map.iters(i, i));
  }
  // Parameter mismatch is rejected, not silently accepted.
  MandelParams other = p;
  other.niter = 999;
  EXPECT_FALSE(IterationMap::load(path, other).ok());
  std::remove(path.c_str());
}

TEST(IterationMapTest, LoadOrComputeRecoversFromMissingCache) {
  MandelParams p = tiny_params();
  std::string path = ::testing::TempDir() + "/hs_map_cache2.bin";
  std::remove(path.c_str());
  auto first = IterationMap::load_or_compute(path, p);
  ASSERT_TRUE(first.ok());
  auto second = IterationMap::load_or_compute(path, p);  // now from cache
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().total_cost(), second.value().total_cost());
  std::remove(path.c_str());
}

TEST(IterationMapTest, ChecksumIsOrderSensitive) {
  std::vector<std::uint8_t> a = {1, 2, 3};
  std::vector<std::uint8_t> b = {3, 2, 1};
  EXPECT_NE(image_checksum(a), image_checksum(b));
}

TEST(IterationMapTest, PgmWriter) {
  std::vector<std::uint8_t> img(16, 128);
  std::string path = ::testing::TempDir() + "/hs_test.pgm";
  ASSERT_TRUE(write_pgm(path, img, 4, 4).ok());
  EXPECT_FALSE(write_pgm(path, img, 5, 4).ok());  // size mismatch
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char hdr[3] = {};
  ASSERT_EQ(std::fread(hdr, 1, 2, f), 2u);
  std::fclose(f);
  EXPECT_EQ(hdr[0], 'P');
  EXPECT_EQ(hdr[1], '5');
  std::remove(path.c_str());
}

// ---- modeled runners ------------------------------------------------------------------

class ModeledTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    MandelParams p;
    p.dim = 256;       // scaled workload: same shape, fast tests
    p.niter = 50000;   // deep enough that kernels dominate host overheads
    map_ = new IterationMap(IterationMap::compute(p));
  }
  static void TearDownTestSuite() {
    delete map_;
    map_ = nullptr;
  }

  static ModeledConfig cfg() {
    ModeledConfig c;
    c.batch_lines = 32;
    return c;
  }

  static const IterationMap& map() { return *map_; }

 private:
  static IterationMap* map_;
};

IterationMap* ModeledTest::map_ = nullptr;

TEST_F(ModeledTest, AllVariantsProduceIdenticalImages) {
  auto c = cfg();
  RunResult seq = run_sequential(map(), c);
  EXPECT_NE(seq.checksum, 0u);

  for (CpuModel m : {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
    EXPECT_EQ(run_cpu_pipeline(map(), c, m).checksum, seq.checksum)
        << cpu_model_name(m);
  }
  for (GpuApi api : {GpuApi::kCuda, GpuApi::kOpenCl}) {
    for (GpuMode mode :
         {GpuMode::kPerLine1D, GpuMode::kPerLine2D, GpuMode::kBatched}) {
      EXPECT_EQ(run_gpu_single_thread(map(), c, api, mode).checksum,
                seq.checksum);
    }
    EXPECT_EQ(run_combined(map(), c, CpuModel::kSpar, api).checksum,
              seq.checksum);
  }
  auto c2 = cfg();
  c2.devices = 2;
  c2.buffers_per_gpu = 2;
  EXPECT_EQ(run_gpu_single_thread(map(), c2, GpuApi::kCuda,
                                  GpuMode::kBatched).checksum,
            seq.checksum);
  EXPECT_EQ(run_combined(map(), c2, CpuModel::kTbb, GpuApi::kCuda).checksum,
            seq.checksum);
}

TEST_F(ModeledTest, CpuPipelineScalesWithWorkers) {
  auto seq = run_sequential(map(), cfg());
  auto c = cfg();
  c.cpu_workers = 19;
  auto par = run_cpu_pipeline(map(), c, CpuModel::kFastFlow);
  double speedup = seq.modeled_seconds / par.modeled_seconds;
  // The paper reports 17x with 20 threads; accept a broad band.
  EXPECT_GT(speedup, 8.0);
  EXPECT_LT(speedup, 20.0);
}

TEST_F(ModeledTest, Fig1LadderOrdering) {
  // A 256-wide line yields only 8 warps in 1D mode; on 30 SMs every
  // per-line kernel is one-warp-per-SM regardless of geometry, hiding the
  // 2D penalty that Fig. 1 shows at dim=2000 (63 warps). Shrinking the
  // test device to 4 SMs restores the paper's warps-per-SM ratios.
  auto c = cfg();
  c.device_spec.sm_count = 4;
  auto seq = run_sequential(map(), c);
  auto naive = run_gpu_single_thread(map(), c, GpuApi::kCuda,
                                     GpuMode::kPerLine1D);
  auto twod = run_gpu_single_thread(map(), c, GpuApi::kCuda,
                                    GpuMode::kPerLine2D);
  auto batched = run_gpu_single_thread(map(), c, GpuApi::kCuda,
                                       GpuMode::kBatched);
  auto c2 = cfg();
  c2.buffers_per_gpu = 2;
  auto overlap = run_gpu_single_thread(map(), c2, GpuApi::kCuda,
                                       GpuMode::kBatched);
  auto c4 = cfg();
  c4.buffers_per_gpu = 4;
  auto buf4 = run_gpu_single_thread(map(), c4, GpuApi::kCuda,
                                    GpuMode::kBatched);
  auto cg = cfg();
  cg.devices = 2;
  cg.buffers_per_gpu = 2;
  auto dual = run_gpu_single_thread(map(), cg, GpuApi::kCuda,
                                    GpuMode::kBatched);

  // Fig. 1's ordering: 2D < naive 1D < batched < batched+overlap <= 4buf
  // < dual-GPU. (The absolute ratios are calibrated at paper scale; here
  // we assert the ordering only.)
  EXPECT_GT(twod.modeled_seconds, naive.modeled_seconds);
  EXPECT_GT(naive.modeled_seconds, batched.modeled_seconds);
  EXPECT_GT(batched.modeled_seconds, overlap.modeled_seconds);
  EXPECT_GE(overlap.modeled_seconds, buf4.modeled_seconds * 0.999);
  EXPECT_GT(buf4.modeled_seconds, dual.modeled_seconds);
  // And the naive version is still a (modest) speedup over sequential.
  EXPECT_LT(naive.modeled_seconds, seq.modeled_seconds);
  // Launch accounting: per-line launches dim kernels, batched dim/32.
  EXPECT_EQ(naive.kernel_launches, 256u);
  EXPECT_EQ(batched.kernel_launches, 8u);
}

TEST_F(ModeledTest, CombinedBeatsSingleThreadWithTwoGpus) {
  // Fig. 4: with two GPUs, a single host thread cannot keep both busy;
  // the multicore+GPU versions win.
  auto c = cfg();
  c.devices = 2;
  c.buffers_per_gpu = 2;
  auto single = run_gpu_single_thread(map(), c, GpuApi::kCuda,
                                      GpuMode::kBatched);
  auto combined = run_combined(map(), c, CpuModel::kSpar, GpuApi::kCuda);
  EXPECT_LT(combined.modeled_seconds, single.modeled_seconds * 1.05);
}

TEST_F(ModeledTest, CudaAndOpenClAreClose) {
  auto c = cfg();
  auto cuda = run_gpu_single_thread(map(), c, GpuApi::kCuda,
                                    GpuMode::kBatched);
  auto ocl = run_gpu_single_thread(map(), c, GpuApi::kOpenCl,
                                   GpuMode::kBatched);
  EXPECT_NEAR(cuda.modeled_seconds / ocl.modeled_seconds, 1.0, 0.1);
}

TEST_F(ModeledTest, TracePathDumpsChromeTrace) {
  cluster::RunOptions opts;
  opts.trace_path = ::testing::TempDir() + "/hs_modeled_trace.json";
  auto r = testutil::must(cluster::run_gpu_single_thread(
      map(), cfg(), GpuApi::kCuda, GpuMode::kBatched, opts));
  EXPECT_NE(r.checksum, 0u);
  std::FILE* f = std::fopen(opts.trace_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  EXPECT_GT(size, 1000);  // tracks + one event per op
  std::remove(opts.trace_path.c_str());
}

TEST_F(ModeledTest, GpuUtilizationReported) {
  auto c = cfg();
  c.buffers_per_gpu = 4;
  auto r = run_gpu_single_thread(map(), c, GpuApi::kCuda, GpuMode::kBatched);
  EXPECT_GT(r.gpu_compute_utilization, 0.3);
  EXPECT_LE(r.gpu_compute_utilization, 1.0);
}

TEST_F(ModeledTest, TbbTokenCapMatters) {
  // Starving the pipeline of tokens (fewer than workers) throttles it.
  auto c = cfg();
  c.cpu_workers = 16;
  c.tbb_tokens = 2;
  auto starved = run_cpu_pipeline(map(), c, CpuModel::kTbb);
  c.tbb_tokens = 38;
  auto tuned = run_cpu_pipeline(map(), c, CpuModel::kTbb);
  EXPECT_GT(starved.modeled_seconds, tuned.modeled_seconds * 1.5);
}

}  // namespace
}  // namespace hs::mandel
