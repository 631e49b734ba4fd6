// Test-side shorthand for the modeled runners (cluster/modeled.hpp). Every
// configuration the tests using it build is valid, so a rejected run is a
// test failure and the result comes back unwrapped.
#pragma once

#include <gtest/gtest.h>

#include <utility>

#include "cluster/modeled.hpp"

namespace hs::testutil {

inline cluster::RunResult must(Result<cluster::RunResult> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : cluster::RunResult{};
}

inline cluster::RunResult run_fig5(const dedup::DedupTrace& trace,
                                   const dedup::Fig5Config& cfg,
                                   dedup::Fig5Backend backend) {
  return must(cluster::run_fig5(trace, cfg, backend));
}

inline cluster::RunResult run_sequential(const mandel::IterationMap& map,
                                         const mandel::ModeledConfig& cfg) {
  return must(cluster::run_sequential(map, cfg));
}

inline cluster::RunResult run_cpu_pipeline(const mandel::IterationMap& map,
                                           const mandel::ModeledConfig& cfg,
                                           mandel::CpuModel model) {
  return must(cluster::run_cpu_pipeline(map, cfg, model));
}

inline cluster::RunResult run_gpu_single_thread(
    const mandel::IterationMap& map, const mandel::ModeledConfig& cfg,
    mandel::GpuApi api, mandel::GpuMode mode) {
  return must(cluster::run_gpu_single_thread(map, cfg, api, mode));
}

inline cluster::RunResult run_combined(const mandel::IterationMap& map,
                                       const mandel::ModeledConfig& cfg,
                                       mandel::CpuModel model,
                                       mandel::GpuApi api) {
  return must(cluster::run_combined(map, cfg, model, api));
}

}  // namespace hs::testutil
