// archive-silesia / archive-source: one corpus archived by archive_spar_cpu
// and archive_sequential and extracted by extract_parallel, interleaved.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "dedup/container.hpp"
#include "dedup/pipelines.hpp"
#include "dedup/stages.hpp"
#include "kernels/simd/sha1_ni.hpp"
#include "mandel/pipelines.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace dedup = hs::dedup;

/// Corpus size of both archive workloads: large enough that one SPar pass
/// takes a few hundred ms (many batches in flight), small enough for
/// dozens of passes per run.
constexpr std::uint64_t kCorpusBytes = 24ull << 20;

/// The SPar-CPU shape under test: one SHA-1 worker, two LZSS workers.
dedup::SparCpuOptions spar_options() {
  dedup::SparCpuOptions o;
  o.workers_hash = 1;
  o.workers_compress = 2;
  return o;
}
constexpr int kExtractReplicas = 2;

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

struct Corpus {
  std::vector<std::uint8_t> input;
  std::vector<std::uint8_t> warm_archive;  ///< SPar archive from set-up
};

/// Set-up: generate the corpus and run one warm-up SPar pass (buffer
/// pools, page faults of the archive-sized allocations).
hs::Result<Corpus> set_up(hs::datagen::CorpusKind kind, std::uint64_t seed,
                          const dedup::DedupConfig& cfg) {
  hs::datagen::CorpusSpec spec;
  spec.kind = kind;
  spec.bytes = kCorpusBytes;
  spec.seed = seed;
  Corpus c;
  c.input = hs::datagen::generate(spec);
  auto warm = dedup::archive_spar_cpu(c.input, cfg, spar_options());
  if (!warm.ok()) return warm.status();
  c.warm_archive = std::move(warm).value();
  return c;
}

}  // namespace

dedup::DedupConfig chain_config() {
  dedup::DedupConfig cfg;
  cfg.batch_size = 256 * 1024;
  cfg.rabin.mask = 0x7FF;
  cfg.lzss.mode = hs::kernels::LzssMode::kChain;
  cfg.lzss.window_size = 4096;
  cfg.lzss.chain_depth = 2;
  return cfg;
}

hs::Result<std::vector<std::uint8_t>> compose_archive(
    std::span<const std::uint8_t> input, const dedup::DedupConfig& config,
    StageTimes* times) {
  StageTimes t;
  auto t0 = Clock::now();
  std::vector<dedup::Batch> batches = dedup::fragment_input(input, config);
  t.fragment_s = seconds_since(t0);

  dedup::DupStore cache;
  dedup::ArchiveWriter writer(config);
  for (dedup::Batch& batch : batches) {
    t0 = Clock::now();
    dedup::hash_blocks(batch);
    const auto t1 = Clock::now();
    cache.check(batch);
    const auto t2 = Clock::now();
    dedup::compress_blocks_cpu(batch, config);
    const auto t3 = Clock::now();
    hs::Status s = writer.append(batch);
    const auto t4 = Clock::now();
    if (!s.ok()) return s;
    t.hash_s += std::chrono::duration<double>(t1 - t0).count();
    t.dupcheck_s += std::chrono::duration<double>(t2 - t1).count();
    t.compress_s += std::chrono::duration<double>(t3 - t2).count();
    t.write_s += std::chrono::duration<double>(t4 - t3).count();
    for (const dedup::BlockInfo& b : batch.blocks) {
      ++t.blocks;
      if (!b.duplicate) {
        ++t.unique_blocks;
        t.unique_bytes += b.len;
      }
    }
  }
  t0 = Clock::now();
  std::vector<std::uint8_t> out =
      writer.finish(hs::kernels::simd::sha1_hash_fast(input));
  t.finish_s = seconds_since(t0);
  if (times != nullptr) *times = t;
  return out;
}

void dedup_breakdown(std::span<const std::uint8_t> input,
                     const dedup::DedupConfig& config, double seconds,
                     Report& report) {
  std::vector<double> frag, hash, check, comp, write, fin, seq, extract_seq,
      extract_par;
  StageTimes last;
  std::size_t archive_bytes = 0;
  const auto deadline = deadline_after(seconds);
  // At least three pairs so the medians exist on a slow host.
  for (int pass = 0; pass < 3 || Clock::now() < deadline; ++pass) {
    StageTimes t;
    auto composed = compose_archive(input, config, &t);
    auto t0 = Clock::now();
    auto reference = dedup::archive_sequential(input, config);
    seq.push_back(seconds_since(t0) * 1e3);
    const bool ok = composed.ok() && reference.ok() &&
                    composed.value() == reference.value();
    report.count(ok);
    report.count(reference.ok());
    if (!ok) {
      report.wrong("stage-composed archive differs from archive_sequential");
      break;
    }
    t0 = Clock::now();
    auto restored = dedup::extract(reference.value());
    extract_seq.push_back(seconds_since(t0) * 1e3);
    const bool restored_ok = restored.ok() && restored.value().size() ==
                                 input.size() &&
                             std::memcmp(restored.value().data(), input.data(),
                                         input.size()) == 0;
    report.count(restored_ok);
    if (!restored_ok) report.wrong("extract() did not restore the input");
    t0 = Clock::now();
    auto parallel = dedup::extract_parallel(reference.value(), kExtractReplicas);
    extract_par.push_back(seconds_since(t0) * 1e3);
    const bool parallel_ok = parallel.ok() && parallel.value() == restored.value();
    report.count(parallel_ok);
    if (!parallel_ok) report.wrong("extract_parallel differs from extract()");

    frag.push_back(t.fragment_s * 1e3);
    hash.push_back(t.hash_s * 1e3);
    check.push_back(t.dupcheck_s * 1e3);
    comp.push_back(t.compress_s * 1e3);
    write.push_back(t.write_s * 1e3);
    fin.push_back(t.finish_s * 1e3);
    last = t;
    archive_bytes = reference.value().size();
  }
  if (frag.empty()) return;
  const double f = median(frag), h = median(hash), c = median(check),
               z = median(comp), w = median(write), e = median(fin),
               s = median(seq);
  report.set("dedup.fragment_ms", f, "ms");
  report.set("dedup.hash_ms", h, "ms");
  report.set("dedup.dupcheck_ms", c, "ms");
  report.set("dedup.compress_ms", z, "ms");
  report.set("dedup.write_ms", w, "ms");
  report.set("dedup.finish_ms", e, "ms");
  report.set("dedup.residual_ms", s - (f + h + c + z + w + e), "ms");
  report.set("dedup.sequential_ms", s, "ms");
  report.set("dedup.unique_block_share",
             last.blocks ? static_cast<double>(last.unique_blocks) /
                               static_cast<double>(last.blocks)
                         : 0,
             "share");
  report.set("dedup.extract_seq_ms", median(extract_seq), "ms");
  report.set("dedup.extract_mb_s", mb(input.size()) / (median(extract_par) / 1e3),
             "MB/s");
  report.set("dedup.archive_ratio",
             static_cast<double>(archive_bytes) /
                 static_cast<double>(std::max<std::size_t>(input.size(), 1)),
             "ratio");
  report.set("kernels.lzss_mb_s", mb(last.unique_bytes) / (z / 1e3), "MB/s");
  report.set("kernels.sha1_mb_s", mb(input.size()) / (h / 1e3), "MB/s");
  report.set("kernels.rabin_mb_s", mb(input.size()) / (f / 1e3), "MB/s");
}

double mandel_frame_us(const hs::kernels::MandelParams& frame, int calls) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    auto image = hs::mandel::render_sequential(frame);
    us.push_back(seconds_since(t0) * 1e6);
    if (image.empty()) break;
  }
  return median(us);
}

void run_archive(const Options& opt, hs::datagen::CorpusKind kind,
                 Report& report) {
  const dedup::DedupConfig cfg = chain_config();

  // Set up three times and keep the median, so set-up time is steady.
  std::vector<double> setup;
  Corpus corpus;
  for (int i = 0; i < 3; ++i) {
    const double c0 = cpu_seconds();
    auto c = set_up(kind, opt.seed, cfg);
    setup.push_back(cpu_seconds() - c0);
    if (!c.ok()) {
      report.count(false);
      report.wrong("set-up archive failed: " + c.status().ToString());
      return;
    }
    corpus = std::move(c).value();
  }
  const std::vector<std::uint8_t>& input = corpus.input;

  if (opt.trace) {
    // Per-layer run: the stage breakdown, the serve-layer probe, then SPar
    // passes alternating untraced / traced (telemetry::set_enabled) for
    // flow.* and the tracing overhead.
    dedup_breakdown(input, cfg, opt.seconds * 0.4, report);
    // The serve-layer probe on jobs cut from this corpus.
    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto from = input.begin() + static_cast<std::ptrdiff_t>(
                                            k * input.size() / 4);
      payloads.emplace_back(from, from + kServePayloadBytes);
    }
    const std::vector<MixJob> mix = serve_mix(std::move(payloads));
    job_probe(mix, opt.seconds * 0.2, report);
    std::vector<double> off_ms, on_ms, seq_ms;
    double busy_s = 0, busy_wall_s = 0;
    int stages = 0;
    const auto deadline = deadline_after(opt.seconds * 0.4);
    for (int pass = 0; pass < 3 || Clock::now() < deadline; ++pass) {
      for (bool traced : {pass % 2 == 0, pass % 2 != 0}) {
        hs::telemetry::set_enabled(traced);
        const double busy0 =
            stage_busy(hs::telemetry::Registry::Default()).first;
        const auto t0 = Clock::now();
        auto archive = dedup::archive_spar_cpu(input, cfg, spar_options());
        const double dt = seconds_since(t0);
        hs::telemetry::set_enabled(false);
        const bool ok = archive.ok() && archive.value() == corpus.warm_archive;
        report.count(ok);
        if (!ok) report.wrong("SPar-CPU archive changed between passes");
        (traced ? on_ms : off_ms).push_back(dt * 1e3);
        if (traced) {
          const auto [busy1, stages1] =
              stage_busy(hs::telemetry::Registry::Default());
          busy_s += busy1 - busy0;
          busy_wall_s += dt;
          stages = stages1;
        }
      }
      auto t0 = Clock::now();
      auto seq = dedup::archive_sequential(input, cfg);
      seq_ms.push_back(seconds_since(t0) * 1e3);
      report.count(seq.ok());
    }
    const Latency spar_lat = summarize(off_ms);
    const double spar = spar_lat.p50;
    report.set("loadgen.p50_ms", spar_lat.p50, "ms");
    report.set("loadgen.p99_ms", spar_lat.p99, "ms");
    report.set("loadgen.samples", static_cast<double>(spar_lat.n), "count");
    report.set("loadgen.goodput_jobs_s", 1e3 / spar_lat.p50, "jobs/s");
    report.set("flow.speedup_vs_seq", median(seq_ms) / spar, "ratio");
    report.set("flow.busy_share",
               stages > 0 ? busy_s / (busy_wall_s * stages) : 0, "share");
    report.set("trace.overhead_share", median(on_ms) / spar - 1, "share");
    report.set("kernels.mandel_frame_us",
               mandel_frame_us(mix.front().request.mandel, 200), "us");
    return;
  }

  // Untraced run: interleave the three operations, rotating their order so
  // no one of them always runs on a cache warmed by another.
  std::vector<double> spar_ms, spar_cpu_ms, seq_ms, seq_cpu_ms, extract_ms;
  std::vector<std::uint8_t> spar_out = corpus.warm_archive;
  std::vector<std::uint8_t> seq_out;
  std::size_t archive_bytes = spar_out.size();
  const auto deadline = deadline_after(opt.seconds);
  for (int trial = 0; trial < 1 || Clock::now() < deadline; ++trial) {
    for (int k = 0; k < 3; ++k) {
      const int op = (trial + k) % 3;
      const auto t0 = Clock::now();
      if (op == 0) {
        const double c0 = cpu_seconds();
        auto a = dedup::archive_spar_cpu(input, cfg, spar_options());
        spar_ms.push_back(seconds_since(t0) * 1e3);
        spar_cpu_ms.push_back((cpu_seconds() - c0) * 1e3);
        report.count(a.ok());
        if (a.ok()) spar_out = std::move(a).value();
      } else if (op == 1) {
        const double c0 = thread_cpu_seconds();
        auto a = dedup::archive_sequential(input, cfg);
        seq_ms.push_back(seconds_since(t0) * 1e3);
        seq_cpu_ms.push_back((thread_cpu_seconds() - c0) * 1e3);
        report.count(a.ok());
        if (a.ok()) seq_out = std::move(a).value();
      } else {
        auto r = dedup::extract_parallel(spar_out, kExtractReplicas);
        extract_ms.push_back(seconds_since(t0) * 1e3);
        const bool ok = r.ok() && r.value() == input;
        report.count(ok);
        if (!ok) report.wrong("extract_parallel did not restore the input");
      }
    }
    if (spar_out != seq_out) {
      report.wrong("SPar-CPU archive differs from archive_sequential");
    }
    archive_bytes = seq_out.size();
  }

  const Latency lat = summarize(spar_ms);
  const double seq = median(seq_ms);
  report.set("setup_s", median(setup), "s");
  // archive_sequential runs on this thread alone, so its CPU time is its
  // cost without the time the host gave other processes.
  report.set("seq_jobs_s", 1e3 / median(seq_cpu_ms), "jobs/s");
  report.set("cpu_ms_per_job", median(spar_cpu_ms), "ms");

  std::printf("archive: %zu B corpus, %zu SPar / %zu sequential / %zu extract "
              "passes\n",
              input.size(), spar_ms.size(), seq_ms.size(), extract_ms.size());
  std::printf("  archive_mb_s     %.2f MB/s (SPar-CPU, 1 hash + 2 LZSS workers)\n",
              mb(input.size()) / (lat.p50 / 1e3));
  std::printf("  archive_seq_mb_s %.2f MB/s\n", mb(input.size()) / (seq / 1e3));
  std::printf("  extract_mb_s     %.2f MB/s (extract_parallel, %d replicas)\n",
              mb(input.size()) / (median(extract_ms) / 1e3), kExtractReplicas);
  std::printf("  archive_ratio    %.4f\n",
              static_cast<double>(archive_bytes) /
                  static_cast<double>(input.size()));
  std::printf("  SPar pass p50 %.1f ms, p99 %.1f ms over n=%zu passes "
              "(goodput %.3f passes/s)\n",
              lat.p50, lat.p99, lat.n, 1e3 / lat.p50);
}

}  // namespace perfbench
