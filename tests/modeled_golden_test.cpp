// Golden pins for every modeled schedule.
//
// Each cell runs one modeled variant on a small fixed workload and pins its
// label, kernel-launch count, image checksum (mandel), fabric and shard
// bytes, and modeled seconds. Modeled seconds are pinned as hexfloat
// literals compared with ==: the schedule is a deterministic replay, so
// any change to a modeled number, however small, is a change to the model
// and must be re-pinned on purpose. The build uses -O2 without -march
// outside the AVX2 kernel files, so the pins hold across the Release,
// Debug and sanitizer builds.
//
// Covered: dedup {6 backends} x {batched, per-block kernels} x {1, 2 memory
// spaces} x {1, 2 GPUs} x {static, adaptive}; every mandel runner x
// model/API/mode x {static, adaptive} x {1, 2 buffers} x {1, 2 GPUs}; and
// one 2-node full-mesh cell per workload (round-robin placement), which
// also pins the fabric and sharded-dupcheck byte counts.
//
// On a mismatch the test prints the cell's actual values in the table's
// own syntax, so a deliberate model change can be re-pinned by pasting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/corpus.hpp"
#include "modeled_golden_shim.hpp"

namespace hs::golden {
namespace {

using dedup::Fig5Backend;
using mandel::CpuModel;
using mandel::GpuApi;
using mandel::GpuMode;

struct Pin {
  const char* cell;
  const char* label;
  std::uint64_t kernel_launches;
  std::uint64_t checksum;
  double modeled_seconds;
  std::uint64_t fabric_bytes;
  std::uint64_t shard_bytes;
};

struct Cell {
  std::string name;
  Outcome outcome;
};

std::string pin_literal(const Cell& c) {
  char seconds[64];
  std::snprintf(seconds, sizeof(seconds), "%a", c.outcome.modeled_seconds);
  return "{\"" + c.name + "\", \"" + c.outcome.label + "\", " +
         std::to_string(c.outcome.kernel_launches) + "u, " +
         std::to_string(c.outcome.checksum) + "u, " + seconds + ", " +
         std::to_string(c.outcome.fabric_bytes) + "u, " +
         std::to_string(c.outcome.shard_bytes) + "u},";
}

void expect_pins(const std::vector<Cell>& cells, const std::vector<Pin>& pins) {
  ASSERT_EQ(cells.size(), pins.size()) << [&] {
    std::string all = "actual table:\n";
    for (const Cell& c : cells) all += "    " + pin_literal(c) + "\n";
    return all;
  }();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const Pin& p = pins[i];
    const bool same = c.name == p.cell && c.outcome.label == p.label &&
                      c.outcome.kernel_launches == p.kernel_launches &&
                      c.outcome.checksum == p.checksum &&
                      c.outcome.modeled_seconds == p.modeled_seconds &&
                      c.outcome.fabric_bytes == p.fabric_bytes &&
                      c.outcome.shard_bytes == p.shard_bytes;
    EXPECT_TRUE(same) << "cell " << i << " (" << p.cell
                      << ") differs; actual:\n    " << pin_literal(c);
  }
}

// ---- Workloads ---------------------------------------------------------

dedup::Fig5Config dedup_config() {
  dedup::Fig5Config cfg;
  cfg.replicas = 3;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x3FF;
  return cfg;
}

const dedup::DedupTrace& dedup_trace() {
  static const dedup::DedupTrace trace = [] {
    datagen::CorpusSpec spec;
    spec.kind = datagen::CorpusKind::kParsecLike;
    spec.bytes = 512 * 1024;
    const std::vector<std::uint8_t> input = datagen::generate(spec);
    return dedup::build_trace(input, dedup_config().dedup);
  }();
  return trace;
}

mandel::ModeledConfig mandel_config() {
  mandel::ModeledConfig cfg;
  cfg.batch_lines = 8;
  cfg.cpu_workers = 5;
  cfg.combined_workers = 4;
  cfg.tbb_tokens = 3;  // small enough that the token cap binds
  return cfg;
}

const mandel::IterationMap& mandel_map() {
  static const mandel::IterationMap map = [] {
    kernels::MandelParams p;
    p.dim = 64;
    p.niter = 500;
    return mandel::IterationMap::compute(p);
  }();
  return map;
}

const char* sched_name(sched::SchedMode m) {
  return m == sched::SchedMode::kAdaptive ? "adaptive" : "static";
}

// ---- Pins --------------------------------------------------------------

// clang-format off
const std::vector<Pin> kDedupPins = {
    {"dedup/sequential/batched/mem1/gpu1/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem1/gpu1/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem1/gpu2/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem1/gpu2/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem2/gpu1/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem2/gpu1/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem2/gpu2/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/batched/mem2/gpu2/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem1/gpu1/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem1/gpu1/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem1/gpu2/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem1/gpu2/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem2/gpu1/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem2/gpu1/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem2/gpu2/static", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/sequential/per-block/mem2/gpu2/adaptive", "sequential", 0u, 0u, 0x1.02fa66ab3333bp-3, 0u, 0u},
    {"dedup/spar-cpu/batched/mem1/gpu1/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem1/gpu1/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem1/gpu2/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem1/gpu2/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem2/gpu1/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem2/gpu1/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem2/gpu2/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/batched/mem2/gpu2/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem1/gpu1/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem1/gpu1/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem1/gpu2/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem1/gpu2/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem2/gpu1/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem2/gpu1/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem2/gpu2/static", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/spar-cpu/per-block/mem2/gpu2/adaptive", "spar-cpu", 0u, 0u, 0x1.950b7d3d96af2p-5, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem1/gpu1/static", "cuda-1thread", 16u, 0u, 0x1.cc732530c38d4p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem1/gpu1/adaptive", "cuda-1thread", 16u, 0u, 0x1.cc732530c38d4p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem1/gpu2/static", "cuda-1thread", 16u, 0u, 0x1.cc732530c38d4p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem1/gpu2/adaptive", "cuda-1thread", 16u, 0u, 0x1.cc732530c38d4p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem2/gpu1/static", "cuda-1thread 2x-mem", 16u, 0u, 0x1.cc732530c38d5p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem2/gpu1/adaptive", "cuda-1thread 2x-mem", 16u, 0u, 0x1.cc732530c38d5p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem2/gpu2/static", "cuda-1thread 2x-mem", 16u, 0u, 0x1.cc732530c38d5p-9, 0u, 0u},
    {"dedup/cuda-1thread/batched/mem2/gpu2/adaptive", "cuda-1thread 2x-mem", 16u, 0u, 0x1.cc732530c38d5p-9, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem1/gpu1/static", "cuda-1thread per-block-kernels", 235u, 0u, 0x1.114535487ac23p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem1/gpu1/adaptive", "cuda-1thread per-block-kernels", 235u, 0u, 0x1.114535487ac23p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem1/gpu2/static", "cuda-1thread per-block-kernels", 235u, 0u, 0x1.114535487ac23p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem1/gpu2/adaptive", "cuda-1thread per-block-kernels", 235u, 0u, 0x1.114535487ac23p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem2/gpu1/static", "cuda-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.114535487ac21p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem2/gpu1/adaptive", "cuda-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.114535487ac21p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem2/gpu2/static", "cuda-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.114535487ac21p-7, 0u, 0u},
    {"dedup/cuda-1thread/per-block/mem2/gpu2/adaptive", "cuda-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.114535487ac21p-7, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem1/gpu1/static", "opencl-1thread", 16u, 0u, 0x1.ce8c0424da4adp-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem1/gpu1/adaptive", "opencl-1thread", 16u, 0u, 0x1.ce8c0424da4adp-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem1/gpu2/static", "opencl-1thread", 16u, 0u, 0x1.ce8c0424da4adp-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem1/gpu2/adaptive", "opencl-1thread", 16u, 0u, 0x1.ce8c0424da4adp-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem2/gpu1/static", "opencl-1thread 2x-mem", 16u, 0u, 0x1.0553c932d8c2ep-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem2/gpu1/adaptive", "opencl-1thread 2x-mem", 16u, 0u, 0x1.0553c932d8c2ep-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem2/gpu2/static", "opencl-1thread 2x-mem", 16u, 0u, 0x1.0553c932d8c2ep-9, 0u, 0u},
    {"dedup/opencl-1thread/batched/mem2/gpu2/adaptive", "opencl-1thread 2x-mem", 16u, 0u, 0x1.0553c932d8c2ep-9, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem1/gpu1/static", "opencl-1thread per-block-kernels", 235u, 0u, 0x1.11cb6d058071bp-7, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem1/gpu1/adaptive", "opencl-1thread per-block-kernels", 235u, 0u, 0x1.11cb6d058071bp-7, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem1/gpu2/static", "opencl-1thread per-block-kernels", 235u, 0u, 0x1.11cb6d058071bp-7, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem1/gpu2/adaptive", "opencl-1thread per-block-kernels", 235u, 0u, 0x1.11cb6d058071bp-7, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem2/gpu1/static", "opencl-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.99eae518b61d8p-8, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem2/gpu1/adaptive", "opencl-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.99eae518b61d8p-8, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem2/gpu2/static", "opencl-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.99eae518b61d8p-8, 0u, 0u},
    {"dedup/opencl-1thread/per-block/mem2/gpu2/adaptive", "opencl-1thread per-block-kernels 2x-mem", 235u, 0u, 0x1.99eae518b61d8p-8, 0u, 0u},
    {"dedup/spar+cuda/batched/mem1/gpu1/static", "spar+cuda", 16u, 0u, 0x1.dbbfbf1ab36dcp-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem1/gpu1/adaptive", "spar+cuda adaptive", 16u, 0u, 0x1.dbbfbf1ab36dcp-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem1/gpu2/static", "spar+cuda 2gpu", 16u, 0u, 0x1.51c5b1f87fbe6p-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem1/gpu2/adaptive", "spar+cuda 2gpu adaptive", 16u, 0u, 0x1.51c5b1f87fbe6p-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem2/gpu1/static", "spar+cuda 2x-mem", 16u, 0u, 0x1.dbbfbf1ab36dcp-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem2/gpu1/adaptive", "spar+cuda 2x-mem adaptive", 16u, 0u, 0x1.dbbfbf1ab36dcp-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem2/gpu2/static", "spar+cuda 2x-mem 2gpu", 16u, 0u, 0x1.51c5b1f87fbe6p-10, 0u, 0u},
    {"dedup/spar+cuda/batched/mem2/gpu2/adaptive", "spar+cuda 2x-mem 2gpu adaptive", 16u, 0u, 0x1.7dfe69cb37a17p-10, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem1/gpu1/static", "spar+cuda per-block-kernels", 235u, 0u, 0x1.dac8fbb9e2527p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem1/gpu1/adaptive", "spar+cuda per-block-kernels adaptive", 235u, 0u, 0x1.dac8fbb9e2527p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem1/gpu2/static", "spar+cuda per-block-kernels 2gpu", 235u, 0u, 0x1.36353a3b46938p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem1/gpu2/adaptive", "spar+cuda per-block-kernels 2gpu adaptive", 235u, 0u, 0x1.36353a3b46938p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem2/gpu1/static", "spar+cuda per-block-kernels 2x-mem", 235u, 0u, 0x1.dac8fbb9e2527p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem2/gpu1/adaptive", "spar+cuda per-block-kernels 2x-mem adaptive", 235u, 0u, 0x1.dac8fbb9e2527p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem2/gpu2/static", "spar+cuda per-block-kernels 2x-mem 2gpu", 235u, 0u, 0x1.36353a3b46938p-8, 0u, 0u},
    {"dedup/spar+cuda/per-block/mem2/gpu2/adaptive", "spar+cuda per-block-kernels 2x-mem 2gpu adaptive", 235u, 0u, 0x1.797e1567208cap-8, 0u, 0u},
    {"dedup/spar+opencl/batched/mem1/gpu1/static", "spar+opencl", 16u, 0u, 0x1.e077b4bfe698bp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem1/gpu1/adaptive", "spar+opencl adaptive", 16u, 0u, 0x1.e077b4bfe698bp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem1/gpu2/static", "spar+opencl 2gpu", 16u, 0u, 0x1.54eb0066a1dafp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem1/gpu2/adaptive", "spar+opencl 2gpu adaptive", 16u, 0u, 0x1.54eb0066a1dafp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem2/gpu1/static", "spar+opencl 2x-mem", 16u, 0u, 0x1.e077b4bfe698bp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem2/gpu1/adaptive", "spar+opencl 2x-mem adaptive", 16u, 0u, 0x1.e077b4bfe698bp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem2/gpu2/static", "spar+opencl 2x-mem 2gpu", 16u, 0u, 0x1.54eb0066a1dafp-10, 0u, 0u},
    {"dedup/spar+opencl/batched/mem2/gpu2/adaptive", "spar+opencl 2x-mem 2gpu adaptive", 16u, 0u, 0x1.81a9eff65f6d8p-10, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem1/gpu1/static", "spar+opencl per-block-kernels", 235u, 0u, 0x1.f8ab64d026617p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem1/gpu1/adaptive", "spar+opencl per-block-kernels adaptive", 235u, 0u, 0x1.f8ab64d026617p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem1/gpu2/static", "spar+opencl per-block-kernels 2gpu", 235u, 0u, 0x1.49369ebf54aa9p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem1/gpu2/adaptive", "spar+opencl per-block-kernels 2gpu adaptive", 235u, 0u, 0x1.49369ebf54aa9p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem2/gpu1/static", "spar+opencl per-block-kernels 2x-mem", 235u, 0u, 0x1.f8ab64d026617p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem2/gpu1/adaptive", "spar+opencl per-block-kernels 2x-mem adaptive", 235u, 0u, 0x1.f8ab64d026617p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem2/gpu2/static", "spar+opencl per-block-kernels 2x-mem 2gpu", 235u, 0u, 0x1.49369ebf54aa9p-8, 0u, 0u},
    {"dedup/spar+opencl/per-block/mem2/gpu2/adaptive", "spar+opencl per-block-kernels 2x-mem 2gpu adaptive", 235u, 0u, 0x1.9115e1a12062bp-8, 0u, 0u},
};

const std::vector<Pin> kMandelPins = {
    {"mandel/sequential/static/buf1/gpu1", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/static/buf1/gpu2", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/static/buf2/gpu1", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/static/buf2/gpu2", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/adaptive/buf1/gpu1", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/adaptive/buf1/gpu2", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/adaptive/buf2/gpu1", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/sequential/adaptive/buf2/gpu2", "sequential", 0u, 3803522896200621467u, 0x1.35490d0f32223p-10, 0u, 0u},
    {"mandel/cpu-spar/static/buf1/gpu1", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/static/buf1/gpu2", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/static/buf2/gpu1", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/static/buf2/gpu2", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/adaptive/buf1/gpu1", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/adaptive/buf1/gpu2", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/adaptive/buf2/gpu1", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-spar/adaptive/buf2/gpu2", "spar cpu", 0u, 3803522896200621467u, 0x1.4046a841386a4p-12, 0u, 0u},
    {"mandel/cpu-tbb/static/buf1/gpu1", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/static/buf1/gpu2", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/static/buf2/gpu1", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/static/buf2/gpu2", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/adaptive/buf1/gpu1", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/adaptive/buf1/gpu2", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/adaptive/buf2/gpu1", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-tbb/adaptive/buf2/gpu2", "tbb cpu", 0u, 3803522896200621467u, 0x1.22a06054a0e37p-11, 0u, 0u},
    {"mandel/cpu-fastflow/static/buf1/gpu1", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/static/buf1/gpu2", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/static/buf2/gpu1", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/static/buf2/gpu2", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/adaptive/buf1/gpu1", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/adaptive/buf1/gpu2", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/adaptive/buf2/gpu1", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/cpu-fastflow/adaptive/buf2/gpu2", "fastflow cpu", 0u, 3803522896200621467u, 0x1.3b73daa96a82bp-12, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/static/buf1/gpu1", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/static/buf1/gpu2", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/static/buf2/gpu1", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/static/buf2/gpu2", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/adaptive/buf1/gpu1", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/adaptive/buf1/gpu2", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/adaptive/buf2/gpu1", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-1d/adaptive/buf2/gpu2", "cuda per-line", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/static/buf1/gpu1", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/static/buf1/gpu2", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/static/buf2/gpu1", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/static/buf2/gpu2", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/adaptive/buf1/gpu1", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/adaptive/buf1/gpu2", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/adaptive/buf2/gpu1", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-per-line-2d/adaptive/buf2/gpu2", "cuda 2d", 64u, 3803522896200621467u, 0x1.0a9c46eb347b9p-9, 0u, 0u},
    {"mandel/gpu-cuda-batched/static/buf1/gpu1", "cuda batch8", 8u, 3803522896200621467u, 0x1.4d0c913096023p-12, 0u, 0u},
    {"mandel/gpu-cuda-batched/static/buf1/gpu2", "cuda batch8 2gpu", 8u, 3803522896200621467u, 0x1.35550b920dd8dp-13, 0u, 0u},
    {"mandel/gpu-cuda-batched/static/buf2/gpu1", "cuda batch8 x2buf", 8u, 3803522896200621467u, 0x1.35550b920dd8dp-13, 0u, 0u},
    {"mandel/gpu-cuda-batched/static/buf2/gpu2", "cuda batch8 x2buf 2gpu", 8u, 3803522896200621467u, 0x1.15067fff72442p-13, 0u, 0u},
    {"mandel/gpu-cuda-batched/adaptive/buf1/gpu1", "cuda adaptive", 7u, 3803522896200621467u, 0x1.22f033010acf5p-12, 0u, 0u},
    {"mandel/gpu-cuda-batched/adaptive/buf1/gpu2", "cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.3e61982909c22p-13, 0u, 0u},
    {"mandel/gpu-cuda-batched/adaptive/buf2/gpu1", "cuda adaptive x2buf", 7u, 3803522896200621467u, 0x1.3f4efd2aa8f22p-13, 0u, 0u},
    {"mandel/gpu-cuda-batched/adaptive/buf2/gpu2", "cuda adaptive x2buf 2gpu", 7u, 3803522896200621467u, 0x1.05e2e0afea963p-13, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/static/buf1/gpu1", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/static/buf1/gpu2", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/static/buf2/gpu1", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/static/buf2/gpu2", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/adaptive/buf1/gpu1", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/adaptive/buf1/gpu2", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/adaptive/buf2/gpu1", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-1d/adaptive/buf2/gpu2", "opencl per-line", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/static/buf1/gpu1", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/static/buf1/gpu2", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/static/buf2/gpu1", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/static/buf2/gpu2", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/adaptive/buf1/gpu1", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/adaptive/buf1/gpu2", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/adaptive/buf2/gpu1", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-per-line-2d/adaptive/buf2/gpu2", "opencl 2d", 64u, 3803522896200621467u, 0x1.1b633e8bea693p-9, 0u, 0u},
    {"mandel/gpu-opencl-batched/static/buf1/gpu1", "opencl batch8", 8u, 3803522896200621467u, 0x1.5dd388d14beffp-12, 0u, 0u},
    {"mandel/gpu-opencl-batched/static/buf1/gpu2", "opencl batch8 2gpu", 8u, 3803522896200621467u, 0x1.52b13ceb4c388p-13, 0u, 0u},
    {"mandel/gpu-opencl-batched/static/buf2/gpu1", "opencl batch8 x2buf", 8u, 3803522896200621467u, 0x1.52b13ceb4c388p-13, 0u, 0u},
    {"mandel/gpu-opencl-batched/static/buf2/gpu2", "opencl batch8 x2buf 2gpu", 8u, 3803522896200621467u, 0x1.36946f40de1f2p-13, 0u, 0u},
    {"mandel/gpu-opencl-batched/adaptive/buf1/gpu1", "opencl adaptive", 7u, 3803522896200621467u, 0x1.319e4bada9ff3p-12, 0u, 0u},
    {"mandel/gpu-opencl-batched/adaptive/buf1/gpu2", "opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.4f288fc9bfafap-13, 0u, 0u},
    {"mandel/gpu-opencl-batched/adaptive/buf2/gpu1", "opencl adaptive x2buf", 7u, 3803522896200621467u, 0x1.5015f4cb5edfap-13, 0u, 0u},
    {"mandel/gpu-opencl-batched/adaptive/buf2/gpu2", "opencl adaptive x2buf 2gpu", 7u, 3803522896200621467u, 0x1.219bb9b7fab63p-13, 0u, 0u},
    {"mandel/combined-spar-cuda/static/buf1/gpu1", "spar+cuda", 8u, 3803522896200621467u, 0x1.39c18ccbaf933p-13, 0u, 0u},
    {"mandel/combined-spar-cuda/static/buf1/gpu2", "spar+cuda 2gpu", 8u, 3803522896200621467u, 0x1.ca72b6eb0ef33p-14, 0u, 0u},
    {"mandel/combined-spar-cuda/static/buf2/gpu1", "spar+cuda", 8u, 3803522896200621467u, 0x1.39c18ccbaf933p-13, 0u, 0u},
    {"mandel/combined-spar-cuda/static/buf2/gpu2", "spar+cuda 2gpu", 8u, 3803522896200621467u, 0x1.ca72b6eb0ef33p-14, 0u, 0u},
    {"mandel/combined-spar-cuda/adaptive/buf1/gpu1", "spar+cuda adaptive", 7u, 3803522896200621467u, 0x1.2cd1596b5f993p-13, 0u, 0u},
    {"mandel/combined-spar-cuda/adaptive/buf1/gpu2", "spar+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.f8a3266293bbap-14, 0u, 0u},
    {"mandel/combined-spar-cuda/adaptive/buf2/gpu1", "spar+cuda adaptive", 7u, 3803522896200621467u, 0x1.2cd1596b5f993p-13, 0u, 0u},
    {"mandel/combined-spar-cuda/adaptive/buf2/gpu2", "spar+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.f8a3266293bbap-14, 0u, 0u},
    {"mandel/combined-spar-opencl/static/buf1/gpu1", "spar+opencl", 8u, 3803522896200621467u, 0x1.3df34ab3dd0e9p-13, 0u, 0u},
    {"mandel/combined-spar-opencl/static/buf1/gpu2", "spar+opencl 2gpu", 8u, 3803522896200621467u, 0x1.d2d632bb69e9fp-14, 0u, 0u},
    {"mandel/combined-spar-opencl/static/buf2/gpu1", "spar+opencl", 8u, 3803522896200621467u, 0x1.3df34ab3dd0e9p-13, 0u, 0u},
    {"mandel/combined-spar-opencl/static/buf2/gpu2", "spar+opencl 2gpu", 8u, 3803522896200621467u, 0x1.d2d632bb69e9fp-14, 0u, 0u},
    {"mandel/combined-spar-opencl/adaptive/buf1/gpu1", "spar+opencl adaptive", 7u, 3803522896200621467u, 0x1.310317538d14ap-13, 0u, 0u},
    {"mandel/combined-spar-opencl/adaptive/buf1/gpu2", "spar+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.04b50f01a4d4ap-13, 0u, 0u},
    {"mandel/combined-spar-opencl/adaptive/buf2/gpu1", "spar+opencl adaptive", 7u, 3803522896200621467u, 0x1.310317538d14ap-13, 0u, 0u},
    {"mandel/combined-spar-opencl/adaptive/buf2/gpu2", "spar+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.04b50f01a4d4ap-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/static/buf1/gpu1", "tbb+cuda", 8u, 3803522896200621467u, 0x1.3e28fa991288p-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/static/buf1/gpu2", "tbb+cuda 2gpu", 8u, 3803522896200621467u, 0x1.337bd16158f0dp-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/static/buf2/gpu1", "tbb+cuda", 8u, 3803522896200621467u, 0x1.3e28fa991288p-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/static/buf2/gpu2", "tbb+cuda 2gpu", 8u, 3803522896200621467u, 0x1.337bd16158f0dp-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/adaptive/buf1/gpu1", "tbb+cuda adaptive", 7u, 3803522896200621467u, 0x1.342865c1af312p-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/adaptive/buf1/gpu2", "tbb+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.25b1bec720218p-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/adaptive/buf2/gpu1", "tbb+cuda adaptive", 7u, 3803522896200621467u, 0x1.342865c1af312p-13, 0u, 0u},
    {"mandel/combined-tbb-cuda/adaptive/buf2/gpu2", "tbb+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.25b1bec720218p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/static/buf1/gpu1", "tbb+opencl", 8u, 3803522896200621467u, 0x1.438e658509469p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/static/buf1/gpu2", "tbb+opencl 2gpu", 8u, 3803522896200621467u, 0x1.40110b19e163p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/static/buf2/gpu1", "tbb+opencl", 8u, 3803522896200621467u, 0x1.438e658509469p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/static/buf2/gpu2", "tbb+opencl 2gpu", 8u, 3803522896200621467u, 0x1.40110b19e163p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/adaptive/buf1/gpu1", "tbb+opencl adaptive", 7u, 3803522896200621467u, 0x1.39f9946cb3407p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/adaptive/buf1/gpu2", "tbb+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.2e153a977b184p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/adaptive/buf2/gpu1", "tbb+opencl adaptive", 7u, 3803522896200621467u, 0x1.39f9946cb3407p-13, 0u, 0u},
    {"mandel/combined-tbb-opencl/adaptive/buf2/gpu2", "tbb+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.2e153a977b184p-13, 0u, 0u},
    {"mandel/combined-fastflow-cuda/static/buf1/gpu1", "fastflow+cuda", 8u, 3803522896200621467u, 0x1.39207d1c0f271p-13, 0u, 0u},
    {"mandel/combined-fastflow-cuda/static/buf1/gpu2", "fastflow+cuda 2gpu", 8u, 3803522896200621467u, 0x1.c640f902e178p-14, 0u, 0u},
    {"mandel/combined-fastflow-cuda/static/buf2/gpu1", "fastflow+cuda", 8u, 3803522896200621467u, 0x1.39207d1c0f271p-13, 0u, 0u},
    {"mandel/combined-fastflow-cuda/static/buf2/gpu2", "fastflow+cuda 2gpu", 8u, 3803522896200621467u, 0x1.c640f902e178p-14, 0u, 0u},
    {"mandel/combined-fastflow-cuda/adaptive/buf1/gpu1", "fastflow+cuda adaptive", 7u, 3803522896200621467u, 0x1.2bc4e9f1543a6p-13, 0u, 0u},
    {"mandel/combined-fastflow-cuda/adaptive/buf1/gpu2", "fastflow+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.f61ee7a4120b4p-14, 0u, 0u},
    {"mandel/combined-fastflow-cuda/adaptive/buf2/gpu1", "fastflow+cuda adaptive", 7u, 3803522896200621467u, 0x1.2bc4e9f1543a6p-13, 0u, 0u},
    {"mandel/combined-fastflow-cuda/adaptive/buf2/gpu2", "fastflow+cuda adaptive 2gpu", 7u, 3803522896200621467u, 0x1.f61ee7a4120b4p-14, 0u, 0u},
    {"mandel/combined-fastflow-opencl/static/buf1/gpu1", "fastflow+opencl", 8u, 3803522896200621467u, 0x1.3d523b043ca28p-13, 0u, 0u},
    {"mandel/combined-fastflow-opencl/static/buf1/gpu2", "fastflow+opencl 2gpu", 8u, 3803522896200621467u, 0x1.cea474d33c6edp-14, 0u, 0u},
    {"mandel/combined-fastflow-opencl/static/buf2/gpu1", "fastflow+opencl", 8u, 3803522896200621467u, 0x1.3d523b043ca28p-13, 0u, 0u},
    {"mandel/combined-fastflow-opencl/static/buf2/gpu2", "fastflow+opencl 2gpu", 8u, 3803522896200621467u, 0x1.cea474d33c6edp-14, 0u, 0u},
    {"mandel/combined-fastflow-opencl/adaptive/buf1/gpu1", "fastflow+opencl adaptive", 7u, 3803522896200621467u, 0x1.2ff6a7d981b5cp-13, 0u, 0u},
    {"mandel/combined-fastflow-opencl/adaptive/buf1/gpu2", "fastflow+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.0372efa263fc6p-13, 0u, 0u},
    {"mandel/combined-fastflow-opencl/adaptive/buf2/gpu1", "fastflow+opencl adaptive", 7u, 3803522896200621467u, 0x1.2ff6a7d981b5cp-13, 0u, 0u},
    {"mandel/combined-fastflow-opencl/adaptive/buf2/gpu2", "fastflow+opencl adaptive 2gpu", 7u, 3803522896200621467u, 0x1.0372efa263fc6p-13, 0u, 0u},
};

const std::vector<Pin> kTwoNodePins = {
    {"dedup/spar+cuda/mesh-2/round-robin", "spar+cuda 2gpu", 16u, 0u, 0x1.2ebc38b6447c7p-9, 533200u, 4840u},
    {"mandel/combined-spar-cuda/mesh-2/round-robin", "spar+cuda 2gpu", 8u, 3803522896200621467u, 0x1.1c445d32d92eap-13, 2304u, 0u},
};
// clang-format on

TEST(ModeledGoldenTest, DedupVariantsMatchPins) {
  std::vector<Cell> cells;
  for (Fig5Backend backend :
       {Fig5Backend::kSequential, Fig5Backend::kSparCpu,
        Fig5Backend::kCudaSingle, Fig5Backend::kOclSingle,
        Fig5Backend::kSparCuda, Fig5Backend::kSparOcl}) {
    for (bool batched : {true, false}) {
      for (int mem : {1, 2}) {
        for (int gpus : {1, 2}) {
          for (sched::SchedMode mode :
               {sched::SchedMode::kStatic, sched::SchedMode::kAdaptive}) {
            dedup::Fig5Config cfg = dedup_config();
            cfg.batched_kernel = batched;
            cfg.mem_spaces = mem;
            cfg.devices = gpus;
            cfg.sched = mode;
            cells.push_back(
                {"dedup/" + std::string(dedup::fig5_backend_name(backend)) +
                     (batched ? "/batched" : "/per-block") + "/mem" +
                     std::to_string(mem) + "/gpu" + std::to_string(gpus) +
                     "/" + sched_name(mode),
                 run_dedup(dedup_trace(), cfg, backend)});
          }
        }
      }
    }
  }
  expect_pins(cells, kDedupPins);
}

TEST(ModeledGoldenTest, MandelVariantsMatchPins) {
  struct Variant {
    std::string name;
    MandelRunner runner;
    CpuModel model = CpuModel::kSpar;
    GpuApi api = GpuApi::kCuda;
    GpuMode mode = GpuMode::kBatched;
  };
  std::vector<Variant> variants;
  variants.push_back({"sequential", MandelRunner::kSequential});
  for (CpuModel m : {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
    variants.push_back({"cpu-" + std::string(mandel::cpu_model_name(m)),
                        MandelRunner::kCpuPipeline, m});
  }
  for (GpuApi a : {GpuApi::kCuda, GpuApi::kOpenCl}) {
    for (GpuMode g :
         {GpuMode::kPerLine1D, GpuMode::kPerLine2D, GpuMode::kBatched}) {
      const char* mode_name = g == GpuMode::kPerLine1D   ? "per-line-1d"
                              : g == GpuMode::kPerLine2D ? "per-line-2d"
                                                         : "batched";
      variants.push_back({"gpu-" + std::string(mandel::gpu_api_name(a)) +
                              "-" + mode_name,
                          MandelRunner::kGpuSingleThread, CpuModel::kSpar, a,
                          g});
    }
  }
  for (CpuModel m : {CpuModel::kSpar, CpuModel::kTbb, CpuModel::kFastFlow}) {
    for (GpuApi a : {GpuApi::kCuda, GpuApi::kOpenCl}) {
      variants.push_back({"combined-" + std::string(mandel::cpu_model_name(m)) +
                              "-" + std::string(mandel::gpu_api_name(a)),
                          MandelRunner::kCombined, m, a});
    }
  }

  std::vector<Cell> cells;
  for (const Variant& v : variants) {
    for (sched::SchedMode mode :
         {sched::SchedMode::kStatic, sched::SchedMode::kAdaptive}) {
      for (int buffers : {1, 2}) {
        for (int gpus : {1, 2}) {
          mandel::ModeledConfig cfg = mandel_config();
          cfg.sched = mode;
          cfg.buffers_per_gpu = buffers;
          cfg.devices = gpus;
          cells.push_back({"mandel/" + v.name + "/" + sched_name(mode) +
                               "/buf" + std::to_string(buffers) + "/gpu" +
                               std::to_string(gpus),
                           run_mandel(mandel_map(), cfg, v.runner, v.model,
                                      v.api, v.mode)});
        }
      }
    }
  }
  expect_pins(cells, kMandelPins);
}

TEST(ModeledGoldenTest, TwoNodeCellsMatchPins) {
  std::vector<Cell> cells;
  {
    dedup::Fig5Config cfg = dedup_config();
    cfg.devices = 2;
    const cluster::Topology topo =
        cluster::full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
    const cluster::StageGraph graph =
        cluster::dedup_stage_graph(dedup_trace(), cfg.replicas, true);
    cells.push_back({"dedup/spar+cuda/mesh-2/round-robin",
                     run_dedup_on(topo, cluster::place_round_robin(graph, topo),
                                  dedup_trace(), cfg,
                                  Fig5Backend::kSparCuda)});
  }
  {
    mandel::ModeledConfig cfg = mandel_config();
    cfg.devices = 2;
    const cluster::Topology topo =
        cluster::full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
    const cluster::StageGraph graph = cluster::mandel_stage_graph(
        mandel_map().params().dim, cfg.batch_lines, cfg.combined_workers,
        true);
    cells.push_back(
        {"mandel/combined-spar-cuda/mesh-2/round-robin",
         run_mandel_combined_on(topo, cluster::place_round_robin(graph, topo),
                                mandel_map(), cfg, GpuApi::kCuda)});
  }
  expect_pins(cells, kTwoNodePins);
}

}  // namespace
}  // namespace hs::golden
