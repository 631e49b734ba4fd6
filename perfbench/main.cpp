// hsbench: one run of one benchmark workload.
//
//   hsbench --workload archive-silesia|archive-source|serve-open
//           --seed N --seconds S --trace 0|1
//
// Prints the host fingerprint, a human-readable table, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 when the run completed (correct or not is in the JSON), 2 on bad
// arguments, 1 when a metric the benchmark promises was not produced.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s", "seq_jobs_s", "cpu_ms_per_job"};

const std::vector<std::string> kPerLayer = {
    "dedup.fragment_ms",     "dedup.hash_ms",
    "dedup.dupcheck_ms",     "dedup.compress_ms",
    "dedup.write_ms",        "dedup.finish_ms",
    "dedup.residual_ms",     "dedup.sequential_ms",
    "dedup.unique_block_share", "dedup.extract_seq_ms",
    "dedup.extract_mb_s",    "dedup.archive_ratio",
    "kernels.lzss_mb_s",     "kernels.sha1_mb_s",
    "kernels.rabin_mb_s",    "kernels.mandel_frame_us",
    "flow.speedup_vs_seq",   "flow.busy_share",
    "serve.submit_us_p99",   "serve.job_mandel_ms",
    "serve.job_dedup_ms",    "serve.job_contention",
    "serve.queue_wait_ms_p50", "serve.shed",
    "serve.quota_rejects",   "serve.deadline_miss",
    "serve.cpu_jobs",        "serve.retries",
    "serve.backlog_max",     "gpusim.kernels_per_job",
    "gpusim.h2d_bytes_per_job", "gpusim.d2h_bytes_per_job",
    "wire.parse_us",         "wire.encode_us",
    "wire.bytes_per_job",    "wire.overhead_ms",
    "loadgen.late_p99_ms",   "loadgen.sent",
    "loadgen.p50_ms",        "loadgen.p99_ms",
    "loadgen.samples",       "loadgen.goodput_jobs_s",
    "trace.overhead_share",  "host.nproc",
    "host.parallelism",      "host.simd_level",
    "host.sha_ni",           "process.peak_rss_mb"};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hsbench: %s\nusage: hsbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::uint64_t trace = 0, seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, opt.seed)) return usage("--seed wants an integer");
    } else if (a == "--seconds") {
      if (!parse_u64(v, seconds) || seconds < 1 || seconds > 600) {
        return usage("--seconds wants an integer in [1, 600]");
      }
    } else if (a == "--trace") {
      if (!parse_u64(v, trace) || trace > 1) return usage("--trace wants 0 or 1");
    } else {
      return usage("unknown option");
    }
  }
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == 1;

  const Host host = fingerprint_host();
  Report report;
  if (opt.workload == "archive-silesia") {
    run_archive(opt, hs::datagen::CorpusKind::kSilesiaLike, report);
  } else if (opt.workload == "archive-source") {
    run_archive(opt, hs::datagen::CorpusKind::kSourceLike, report);
  } else if (opt.workload == "serve-open") {
    run_serve_open(opt, report);
  } else {
    return usage("unknown --workload");
  }
  if (opt.trace) add_host_metrics(host, report);

  // Emit exactly the promised metric set, in a fixed order.
  const std::vector<std::string>& names = opt.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    if (!report.has(name)) {
      std::fprintf(stderr, "hsbench: %s did not produce metric %s\n",
                   opt.workload.c_str(), name.c_str());
      return 1;
    }
  }
  std::printf("host %s\n", host_json(host).c_str());
  std::printf("%s %s (seed %llu, %llu s)\n", opt.workload.c_str(),
              opt.trace ? "per-layer" : "end-to-end",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(seconds));
  std::printf("%s", report.table().c_str());
  for (const std::string& e : report.errors()) {
    std::printf("WRONG OUTPUT: %s\n", e.c_str());
  }
  std::printf("peak RSS %.1f MB\n", peak_rss_mb());
  std::printf("fail_share %.6f (%llu of %llu operations)\n",
              static_cast<double>(report.failed()) /
                  static_cast<double>(report.attempted() ? report.attempted() : 1),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  std::printf("%s\n", report.json(names).c_str());
  std::fflush(stdout);
  return 0;
}
