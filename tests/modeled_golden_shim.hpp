// Adapter between the golden pins in modeled_golden_test.cpp and the
// modeled runner API. The pins file only speaks in terms of this header, so
// it stays untouched when the runner API changes shape; only the four
// functions below follow the API.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/modeled.hpp"
#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "dedup/modeled.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/modeled.hpp"

namespace hs::golden {

/// What a golden cell pins. Single-host runs report zero fabric traffic.
struct Outcome {
  std::string label;
  std::uint64_t kernel_launches = 0;
  std::uint64_t checksum = 0;  ///< mandel only
  double modeled_seconds = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t shard_bytes = 0;
};

enum class MandelRunner { kSequential, kCpuPipeline, kGpuSingleThread, kCombined };

inline Outcome outcome(const Result<cluster::RunResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  const cluster::RunResult& v = r.value();
  return {v.label,           v.kernel_launches, v.checksum,
          v.modeled_seconds, v.fabric_bytes,    v.shard_bytes};
}

/// Single-host modeled Fig. 5 run.
inline Outcome run_dedup(const dedup::DedupTrace& trace,
                         const dedup::Fig5Config& cfg,
                         dedup::Fig5Backend backend) {
  return outcome(cluster::run_fig5(trace, cfg, backend));
}

/// Modeled Fig. 5 run on an explicit topology and placement.
inline Outcome run_dedup_on(const cluster::Topology& topo,
                            const cluster::Placement& placement,
                            const dedup::DedupTrace& trace,
                            const dedup::Fig5Config& cfg,
                            dedup::Fig5Backend backend) {
  cluster::RunOptions opts;
  opts.topo = topo;
  opts.placement = placement;
  return outcome(cluster::run_fig5(trace, cfg, backend, opts));
}

/// Single-host modeled mandel run; `model`, `api` and `mode` are read only
/// by the runners that take them.
inline Outcome run_mandel(const mandel::IterationMap& map,
                          const mandel::ModeledConfig& cfg,
                          MandelRunner runner, mandel::CpuModel model,
                          mandel::GpuApi api, mandel::GpuMode mode) {
  switch (runner) {
    case MandelRunner::kSequential:
      return outcome(cluster::run_sequential(map, cfg));
    case MandelRunner::kCpuPipeline:
      return outcome(cluster::run_cpu_pipeline(map, cfg, model));
    case MandelRunner::kGpuSingleThread:
      return outcome(cluster::run_gpu_single_thread(map, cfg, api, mode));
    case MandelRunner::kCombined:
      return outcome(cluster::run_combined(map, cfg, model, api));
  }
  return {};
}

/// Modeled SPar + GPU combined mandel run on an explicit topology.
inline Outcome run_mandel_combined_on(const cluster::Topology& topo,
                                      const cluster::Placement& placement,
                                      const mandel::IterationMap& map,
                                      const mandel::ModeledConfig& cfg,
                                      mandel::GpuApi api) {
  cluster::RunOptions opts;
  opts.topo = topo;
  opts.placement = placement;
  return outcome(
      cluster::run_combined(map, cfg, mandel::CpuModel::kSpar, api, opts));
}

}  // namespace hs::golden
