#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/sha1_ni.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifdef __linux__
#include <sched.h>
#endif
#include <sys/resource.h>
#include <time.h>

namespace perfbench {
namespace {

/// A fixed amount of dependent integer work (no memory traffic), so the
/// 1-thread/N-thread time ratio measures how many cores actually run.
std::uint64_t spin(std::uint64_t iters) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  return x;
}

double timed_spin(int threads, std::uint64_t iters) {
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(
        [&sink, t, iters] { sink[static_cast<std::size_t>(t)] = spin(iters); });
  }
  for (std::thread& th : pool) th.join();
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  volatile std::uint64_t keep = sink[0];
  (void)keep;
  return dt.count();
}

int online_cpus() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace

Host fingerprint_host() {
  namespace simd = hs::kernels::simd;
  Host host;
  host.nproc = online_cpus();
  // Median of three interleaved pairs: one descheduled window must not
  // decide the figure.
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> ratios;
  for (int i = 0; i < 3; ++i) {
    const double t1 = timed_spin(1, kIters);
    const double tn = timed_spin(host.nproc, kIters);
    ratios.push_back(static_cast<double>(host.nproc) * t1 / tn);
  }
  host.parallelism = median(ratios);
  host.simd = std::string(simd::level_name(simd::active_level()));
  host.sha_ni = simd::sha1_ni_available();
#ifdef NDEBUG
  host.build_type = PERFBENCH_BUILD_TYPE;
#else
  host.build_type = std::string(PERFBENCH_BUILD_TYPE) + "+asserts";
#endif
  return host;
}

std::string host_json(const Host& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) +
         ", \"parallelism\": " + json_number(host.parallelism) +
         ", \"simd\": \"" + host.simd + "\", \"sha_ni\": " +
         (host.sha_ni ? "true" : "false") + ", \"build_type\": \"" +
         host.build_type + "\"}";
}

void add_host_metrics(const Host& host, Report& report) {
  namespace simd = hs::kernels::simd;
  report.set("host.nproc", host.nproc, "count");
  report.set("host.parallelism", host.parallelism, "count");
  report.set("host.simd_level",
             static_cast<double>(static_cast<int>(simd::active_level())),
             "level");
  report.set("host.sha_ni", host.sha_ni ? 1 : 0, "bool");
  report.set("process.peak_rss_mb", peak_rss_mb(), "MB");
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace perfbench
