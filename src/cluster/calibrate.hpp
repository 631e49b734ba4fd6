// Anchored calibration of the performance model (EXPERIMENTS.md explains
// the methodology).
//
// Three quantities are taken from the paper and used as anchors:
//   * the sequential time (400 s)           -> CPU seconds-per-iteration
//   * the best single-GPU compute time
//     (batch32 x 4 buffers, 5.4-5.6 s)      -> GPU seconds-per-warp-unit
//   * the per-line naive GPU time (129 s)   -> the SM latency-hiding depth
// plus the display cost (~3.3 s total), inferred from the 1-buffer vs
// multi-buffer gap (the overlap ladder hides host-side ShowLine work).
//
// Everything else in Figs. 1 and 4 — the 2D penalty, each overlap rung,
// multi-GPU scaling, every model combination — is *predicted* by the model
// from these anchors; none of those rows is fitted.
#pragma once

#include "mandel/iteration_map.hpp"
#include "mandel/modeled.hpp"

namespace hs::cluster {

struct PaperAnchors {
  double sequential_seconds = 400.0;
  double batched_compute_seconds = 5.3;  ///< batch32, copies/show hidden
  double per_line_seconds = 129.0;
  /// Host-side display work; bounded above by the paper's dual-GPU
  /// 2-buffer time (3.02 s, which is show-bound: compute halves to ~2.7 s
  /// while a single host thread still performs all ShowLine calls) and
  /// below by the single-buffer gap.
  double show_total_seconds = 2.4;
};

/// Sum over the Listing-2 batched kernel's warps of the max-lane cost
/// (including the partial final batch), i.e. the total warp work the
/// batched GPU versions execute. Exposed for tests.
double batched_warp_cost_total(const mandel::IterationMap& map,
                               int batch_lines,
                               const gpusim::DeviceSpec& spec);

/// Sum over lines of the max-lane cost (the per-line kernel's critical
/// warp), the basis of the latency-hiding anchor. Exposed for tests.
double per_line_max_cost_total(const mandel::IterationMap& map);

/// Returns `base` with host and device timing constants replaced by the
/// anchored values for this map's workload.
mandel::ModeledConfig calibrate_to_paper(const mandel::IterationMap& map,
                                         const PaperAnchors& anchors = {},
                                         mandel::ModeledConfig base = {});

}  // namespace hs::cluster
