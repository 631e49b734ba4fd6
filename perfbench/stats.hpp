// Order statistics and the serve ladder rule used by every workload.
//
// Percentiles are computed from the benchmark's own per-request samples
// (never from the service's log2 latency histogram). A request that was
// refused or failed is recorded as +infinity, so it counts as missing any
// latency limit and pushes the tail up instead of silently vanishing.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Linearly interpolated percentile (the "R-7" rule: rank q*(n-1) between
/// the two closest order statistics). q in [0, 1]. Returns 0 for an empty
/// sample. Reorders `samples` (selection, not a full sort).
double percentile(std::vector<double>& samples, double q);

/// Median of a copy of `samples`.
double median(std::vector<double> samples);

/// Latency summary of one set of samples.
struct Latency {
  std::size_t n = 0;       ///< samples, missed ones included
  std::size_t missed = 0;  ///< samples that were kMissed
  double p50 = 0;
  double p99 = 0;
};

Latency summarize(std::vector<double> samples);

/// One rung of an open-loop ladder: a fixed offered rate and what it got.
struct Rung {
  double rate = 0;        ///< offered jobs/s
  double p99_ms = 0;      ///< kMissed-aware p99 of the rung's samples
  double fail_share = 0;  ///< refused + failed + wrong, over attempted
};

/// Goodput rule: index of the highest rung such that it and every lower
/// rung have p99_ms <= limit_ms and fail_share <= max_fail_share. A rung
/// above the knee that happens to pass after a failing one does not count:
/// past the first failure the backlog is already growing. -1 when even the
/// lowest rung fails.
int goodput_rung(const std::vector<Rung>& rungs, double limit_ms,
                 double max_fail_share);

}  // namespace perfbench
