// The benchmark workloads and the shared pieces their traced runs use.
//
// Every workload reports the same end-to-end metrics (setup_s, seq_jobs_s,
// cpu_ms_per_job) for its own unit of work: one pass over the corpus for the
// archive workloads, one request for serve-open. A traced run (--trace 1) reports every per-layer
// metric instead; README.md lists which end-to-end metric each one moves.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "datagen/corpus.hpp"
#include "dedup/types.hpp"
#include "kernels/mandel.hpp"
#include "report.hpp"
#include "serve/jobs.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// ---- archive-silesia / archive-source ------------------------------------

/// The chain-mode dedup configuration of micro_substrate's e2e rows:
/// 256 KiB batches, Rabin mask 0x7FF, LZSS hash chain window 4096 depth 2.
hs::dedup::DedupConfig chain_config();

/// Wall time of each stage of one stage-composed archive pass.
struct StageTimes {
  double fragment_s = 0;
  double hash_s = 0;
  double dupcheck_s = 0;
  double compress_s = 0;
  double write_s = 0;
  double finish_s = 0;  ///< whole-input digest + ArchiveWriter::finish
  std::uint64_t blocks = 0;
  std::uint64_t unique_blocks = 0;
  std::uint64_t unique_bytes = 0;

  [[nodiscard]] double total_s() const {
    return fragment_s + hash_s + dupcheck_s + compress_s + write_s + finish_s;
  }
};

/// archive_sequential rebuilt from the public stage functions, timing each
/// stage. Emits the same bytes as archive_sequential (a unit test holds it
/// to that), so the dedup.* breakdown measures the real path.
hs::Result<std::vector<std::uint8_t>> compose_archive(
    std::span<const std::uint8_t> input, const hs::dedup::DedupConfig& config,
    StageTimes* times);

/// Traced dedup breakdown over `input`: stage-composed passes alternating
/// with archive_sequential for about `seconds`. Fills dedup.* and the LZSS,
/// SHA-1 and Rabin kernel rates; checks each composed archive against
/// archive_sequential's bytes.
void dedup_breakdown(std::span<const std::uint8_t> input,
                     const hs::dedup::DedupConfig& config, double seconds,
                     Report& report);

void run_archive(const Options& opt, hs::datagen::CorpusKind kind,
                 Report& report);

// ---- serve-open and the serve-layer probe ---------------------------------

/// One request of a serve job mix, with its CPU-reference checksum.
struct MixJob {
  hs::serve::JobRequest request;
  std::uint64_t reference = 0;
};

/// CPU reference of a job's output: image_checksum(render_sequential) for
/// mandel frames, dedup_job_checksum of the stage functions for payloads.
std::uint64_t reference_checksum(const hs::serve::JobRequest& request);

/// Bytes of each dedup payload in a serve mix.
inline constexpr std::size_t kServePayloadBytes = 48 * 1024;

/// The serve job mix: 32x300 mandel frames alternating with dedup jobs over
/// `payloads` (16 KiB batches), each with its reference checksum.
std::vector<MixJob> serve_mix(std::vector<std::vector<std::uint8_t>> payloads);

/// Per-layer serve/wire/gpusim/loadgen metrics for any job mix: JobEngine
/// alone and under contention, wire framing costs, and in-process vs wire
/// closed loops over the same clients and jobs. Used by every traced run;
/// a workload that drives a layer itself overwrites that layer's figures.
void job_probe(const std::vector<MixJob>& mix, double seconds, Report& report);

void run_serve_open(const Options& opt, Report& report);

// ---- shared -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The time point `seconds` from now.
inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Median time of render_sequential on `frame`, in microseconds.
double mandel_frame_us(const hs::kernels::MandelParams& frame, int calls);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// CPU time (user + system, all threads) this process has used, in seconds.
double cpu_seconds();

/// CPU time (user + system) the calling thread has used, in seconds.
double thread_cpu_seconds();

/// Busy time in seconds of the flow stages recorded in `registry` (the sum
/// of every "*.svc_ns" histogram) and how many stage threads reported it.
std::pair<double, int> stage_busy(const hs::telemetry::Registry& registry);

}  // namespace perfbench
