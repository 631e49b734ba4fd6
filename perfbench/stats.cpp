#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const double frac = rank - static_cast<double>(lo);
  auto lo_it = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), lo_it, samples.end());
  const double lo_v = *lo_it;
  if (frac == 0 || lo + 1 >= samples.size()) return lo_v;
  // After nth_element everything past lo_it is >= lo_v; the next order
  // statistic is the smallest of them.
  const double hi_v = *std::min_element(lo_it + 1, samples.end());
  if (std::isinf(hi_v)) return hi_v;
  return lo_v + (hi_v - lo_v) * frac;
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

Latency summarize(std::vector<double> samples) {
  Latency out;
  out.n = samples.size();
  out.missed = static_cast<std::size_t>(
      std::count(samples.begin(), samples.end(), kMissed));
  out.p50 = percentile(samples, 0.50);
  out.p99 = percentile(samples, 0.99);
  return out;
}

int goodput_rung(const std::vector<Rung>& rungs, double limit_ms,
                 double max_fail_share) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].p99_ms > limit_ms || rungs[i].fail_share > max_fail_share) {
      break;
    }
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
