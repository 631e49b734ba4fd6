#include "cluster/calibrate.hpp"


#include <algorithm>

#include "cluster/modeled.hpp"

namespace hs::cluster {

using mandel::GpuApi;
using mandel::GpuMode;
using mandel::IterationMap;
using mandel::ModeledConfig;

double batched_warp_cost_total(const IterationMap& map, int batch_lines,
                               const gpusim::DeviceSpec& spec) {
  const int dim = map.params().dim;
  const std::uint32_t warp = spec.warp_size;
  double total = 0;
  for (int first = 0; first < dim; first += batch_lines) {
    const int count = std::min(batch_lines, dim - first);
    const std::uint64_t threads =
        static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim);
    // Listing-2 linearization: tid -> (i_batch, j); warps are `warp`
    // consecutive tids (256-thread blocks are warp-aligned).
    for (std::uint64_t base = 0; base < threads; base += warp) {
      double wmax = 0;
      for (std::uint32_t lane = 0; lane < warp; ++lane) {
        std::uint64_t tid = base + lane;
        if (tid >= threads) {
          wmax = std::max(wmax, 1.0);
          continue;
        }
        std::uint64_t i_batch = tid / static_cast<std::uint64_t>(dim);
        std::uint64_t j = tid - i_batch * static_cast<std::uint64_t>(dim);
        wmax = std::max(
            wmax, static_cast<double>(map.lane_cost(
                      first + static_cast<int>(i_batch), static_cast<int>(j))));
      }
      total += wmax + spec.warp_fixed_cost_units;
    }
  }
  return total;
}

double per_line_max_cost_total(const IterationMap& map) {
  const int dim = map.params().dim;
  double total = 0;
  for (int i = 0; i < dim; ++i) {
    std::uint64_t wmax = 0;
    for (int j = 0; j < dim; ++j) {
      wmax = std::max(wmax, map.lane_cost(i, j));
    }
    total += static_cast<double>(wmax);
  }
  return total;
}

ModeledConfig calibrate_to_paper(const IterationMap& map,
                                 const PaperAnchors& anchors,
                                 ModeledConfig base) {
  const int dim = map.params().dim;

  // Anchor 1: CPU iteration cost from the sequential time.
  base.host.seconds_per_mandel_iter =
      anchors.sequential_seconds / static_cast<double>(map.total_cost());

  // Display cost: show_total spread over the lines.
  const double per_line_show = anchors.show_total_seconds / dim;
  base.host.show_line_base = 1.0e-6;
  base.host.show_line_per_pixel =
      std::max(0.0, (per_line_show - base.host.show_line_base) / dim);

  // Anchor 2: GPU warp-unit cost from the batched compute time.
  //   C = n_launches * L + (sum of warp costs / sm_count) * u
  const double warp_total =
      batched_warp_cost_total(map, base.batch_lines, base.device_spec);
  const int launches = (dim + base.batch_lines - 1) / base.batch_lines;
  double compute_budget =
      anchors.batched_compute_seconds -
      launches * base.device_spec.kernel_launch_latency;
  compute_budget = std::max(compute_budget,
                            0.1 * anchors.batched_compute_seconds);
  base.device_spec.seconds_per_warp_cost_unit =
      compute_budget * base.device_spec.sm_count / warp_total;

  // Refine u against the actual modeled schedule: the analytic solve uses
  // the mean per-SM load, but the makespan follows the *worst* SM
  // (round-robin warp imbalance), so run the pure-compute batched
  // configuration (display cost zeroed, deep buffering) and rescale.
  for (int iter = 0; iter < 4; ++iter) {
    ModeledConfig probe = base;
    probe.devices = 1;
    probe.buffers_per_gpu = 4;
    probe.host.show_line_base = 0;
    probe.host.show_line_per_pixel = 0;
    Result<RunResult> r =
        run_gpu_single_thread(map, probe, GpuApi::kCuda, GpuMode::kBatched);
    if (!r.ok()) break;  // device too small: keep the analytic solve
    double ratio = anchors.batched_compute_seconds / r.value().modeled_seconds;
    if (ratio > 0.99 && ratio < 1.01) break;
    base.device_spec.seconds_per_warp_cost_unit *= ratio;
  }

  // Anchor 3: latency-hiding depth from the per-line naive time.
  //   T = sum_lines (L + H * wmax_line * u + d2h + show)
  const double u = base.device_spec.seconds_per_warp_cost_unit;
  const double d2h = gpusim::copy_duration_seconds(
      base.device_spec, gpusim::CopyDir::kDeviceToHost,
      gpusim::HostMem::kPinned, static_cast<std::uint64_t>(dim));
  const double fixed_per_line =
      base.device_spec.kernel_launch_latency + d2h + per_line_show;
  const double wmax_total = per_line_max_cost_total(map);
  double h = (anchors.per_line_seconds - dim * fixed_per_line) /
             (wmax_total * u);
  // Keep H physical: at least 1 warp, and below the 67 warps/SM of the
  // batched configuration so the batched anchor stays unstalled.
  base.device_spec.latency_hiding_warps = std::clamp(h, 1.0, 48.0);

  // The analytic H assumes the per-line kernel is bounded by its single
  // worst warp; in the model the worst SM holds 2-3 warps whose costs
  // average below the max, so refine H against the actual modeled run
  // (a few cheap fixed-point steps).
  const double overhead_total = dim * fixed_per_line;
  for (int iter = 0; iter < 4; ++iter) {
    ModeledConfig probe = base;
    probe.devices = 1;
    Result<RunResult> r =
        run_gpu_single_thread(map, probe, GpuApi::kCuda, GpuMode::kPerLine1D);
    if (!r.ok()) break;
    double measured = r.value().modeled_seconds - overhead_total;
    double target = anchors.per_line_seconds - overhead_total;
    if (measured <= 0 || target <= 0) break;
    double ratio = target / measured;
    if (ratio > 0.98 && ratio < 1.02) break;
    base.device_spec.latency_hiding_warps = std::clamp(
        base.device_spec.latency_hiding_warps * ratio, 1.0, 48.0);
  }

  return base;
}

}  // namespace hs::cluster
