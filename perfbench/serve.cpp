// serve-open (in-process open loop over a fixed ladder of rates) and the
// serve-layer probe every traced run uses (JobEngine alone and contended,
// wire framing, in-process vs WireServer/WireClient closed loops).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "cudax/cudax.hpp"
#include "dedup/stages.hpp"
#include "gpusim/device.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/pipelines.hpp"
#include "sched/sched.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = hs::serve;

constexpr int kDevices = 2;  // simulated TitanXP
constexpr int kWorkers = 4;
constexpr int kTenants = 3;

/// serve-open's fixed ladder of offered rates (jobs/s), from light load to
/// past the knee. Written once, never calibrated, so two commits run with
/// the same seed see identical traffic.
constexpr double kLadder[] = {150, 300, 600, 2400};
/// Requests per rung per ladder pass.
constexpr int kRungJobs = 500;
/// The rung whose latency is reported as p50_ms / p99_ms.
constexpr std::size_t kNominalRung = 1;  // 300 jobs/s
/// goodput_jobs_s: highest rung whose p99 stays within this limit with at
/// most 1% of its requests refused, failed or wrong.
constexpr double kP99LimitMs = 50;
constexpr double kMaxFailShare = 0.01;
/// Set-ups per run (setup_s is their median).
constexpr int kSetups = 5;
/// Share of a run spent on single-thread JobEngine chunks, each on a fresh
/// machine and thread, before, between and after the ladder passes.
constexpr double kSeqShare = 0.3;
constexpr double kSeqChunkSeconds = 0.25;
/// seq_jobs_s is this quantile of the per-pass rates: the rate the thread
/// sustains, not the one it reaches in bursts when a shared host's other
/// tenants are quiet (README.md, "End-to-end metrics").
constexpr double kSeqQuantile = 0.1;
/// Clients of the probe's in-process and wire closed loops (one generator
/// thread each). Fewer than the cores, so the server's connection and worker
/// threads are not starved by the generators on a small host.
constexpr unsigned kProbeClients = 2;

std::string tenant_of(std::uint64_t n) {
  return "tenant-" + std::to_string(n % kTenants);
}

/// Admission that never sheds within the ladder: no deadline, no p99 gate,
/// no soft watermark and queues deep enough for a whole overloaded rung, so
/// past the knee the backlog (and latency) grows instead of requests being
/// refused.
serve::ServiceConfig service_config(hs::telemetry::Registry* registry) {
  serve::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.sched = hs::sched::SchedMode::kAdaptive;
  cfg.tenant_queue_capacity = 4096;
  cfg.shed_watermark = 1.0;
  cfg.registry = registry;
  return cfg;
}

/// A started Service on its own simulated machine, optionally behind a
/// WireServer. cudax binding is process-wide, so only one Rig lives at a
/// time.
struct Rig {
  std::unique_ptr<hs::gpusim::Machine> machine;
  std::unique_ptr<hs::telemetry::Registry> registry;
  std::unique_ptr<serve::Service> service;
  std::unique_ptr<serve::WireServer> wire;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (wire) wire->stop();
    if (service) (void)service->stop();
    hs::cudax::unbind_machine();
  }
};

hs::Result<std::unique_ptr<Rig>> make_rig(bool traced, bool wire) {
  auto rig = std::make_unique<Rig>();
  rig->machine = hs::gpusim::Machine::Create(
      kDevices, hs::gpusim::DeviceSpec::TitanXP());
  hs::cudax::bind_machine(rig->machine.get());
  if (traced) rig->registry = std::make_unique<hs::telemetry::Registry>();
  rig->service = std::make_unique<serve::Service>(
      rig->machine.get(), service_config(rig->registry.get()));
  HS_RETURN_IF_ERROR(rig->service->start());
  if (wire) {
    rig->wire = std::make_unique<serve::WireServer>(rig->service.get());
    HS_RETURN_IF_ERROR(rig->wire->start());
  }
  return rig;
}

bool result_ok(const serve::JobResult& r, std::uint64_t reference) {
  return r.status.ok() && !r.deadline_missed && r.checksum == reference;
}

/// Closed-loop warm-up through the service: every mix job twice, outputs
/// checked.
void warm_up(Rig& rig, const std::vector<MixJob>& mix, Report& report) {
  for (std::size_t i = 0; i < 2 * mix.size(); ++i) {
    const MixJob& j = mix[i % mix.size()];
    auto r = rig.service->submit(tenant_of(i), j.request, true);
    const bool ok = r.accepted() && result_ok(r.result.get(), j.reference);
    if (!ok) report.wrong("warm-up job failed or returned a wrong checksum");
  }
}

struct DeviceTotals {
  std::uint64_t kernels = 0, h2d = 0, d2h = 0;
};
DeviceTotals device_totals(hs::gpusim::Machine& m) {
  DeviceTotals t;
  for (int d = 0; d < m.device_count(); ++d) {
    const auto c = m.device(d).counters();
    t.kernels += c.kernels_launched;
    t.h2d += c.h2d_bytes;
    t.d2h += c.d2h_bytes;
  }
  return t;
}

void set_device_metrics(const DeviceTotals& before, const DeviceTotals& after,
                        std::uint64_t jobs, Report& report) {
  const double n = static_cast<double>(std::max<std::uint64_t>(jobs, 1));
  report.set("gpusim.kernels_per_job",
             static_cast<double>(after.kernels - before.kernels) / n, "count");
  report.set("gpusim.h2d_bytes_per_job",
             static_cast<double>(after.h2d - before.h2d) / n, "B");
  report.set("gpusim.d2h_bytes_per_job",
             static_cast<double>(after.d2h - before.d2h) / n, "B");
}

void set_service_counters(Rig& rig, std::size_t backlog_max, Report& report) {
  const serve::ServiceStats s = rig.service->stats();
  report.set("serve.shed", static_cast<double>(s.shed), "count");
  report.set("serve.quota_rejects", static_cast<double>(s.quota_rejects),
             "count");
  report.set("serve.deadline_miss", static_cast<double>(s.deadline_miss),
             "count");
  report.set("serve.cpu_jobs", static_cast<double>(s.cpu_jobs), "count");
  report.set("serve.retries",
             static_cast<double>(rig.service->retry_stats().retries.load()),
             "count");
  report.set("serve.backlog_max", static_cast<double>(backlog_max), "count");
}

// ---- JobEngine alone / under contention ---------------------------------

struct AloneTimes {
  std::vector<double> mandel_ms, dedup_ms;
  /// mix size / the calling thread's CPU time of each whole pass through
  /// the mix, per thread. CPU time, so a pass the host descheduled for a
  /// while reads the same as one it did not (JobEngine::run starts no
  /// threads and, without faults, never sleeps).
  std::vector<double> cycle_rates;
  /// Median of mix size / wall time per pass: robust to a descheduled call.
  double jobs_s = 0;
};

/// JobEngine::run back to back on `threads` threads (each its own engine,
/// one shared machine), for about `seconds`. Outputs are checked.
AloneTimes engine_loop(hs::gpusim::Machine* machine,
                       const std::vector<MixJob>& mix, int threads,
                       double seconds, Report& report) {
  serve::BreakerBoard board(machine->device_count(), serve::BreakerConfig{});
  hs::sched::DeviceLoadTracker tracker(machine->device_count());
  hs::RetryStats stats;
  std::mutex mu;
  AloneTimes out;
  std::vector<double> rates, cpu_rates;
  std::uint64_t calls = 0, bad = 0;
  const auto deadline = deadline_after(seconds);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      serve::JobEngine engine(machine, &board, &tracker, hs::RetryPolicy{},
                              &stats, t);
      std::vector<double> m, d, r_s, r_cpu;
      std::uint64_t n = 0, wrong = 0;
      double cycle_ms = 0, cycle_c0 = thread_cpu_seconds();
      for (std::size_t i = static_cast<std::size_t>(t);
           n < 2 * mix.size() || Clock::now() < deadline; ++i, ++n) {
        const MixJob& j = mix[i % mix.size()];
        const auto c0 = Clock::now();
        const serve::JobResult r = engine.run(j.request);
        const double ms = seconds_since(c0) * 1e3;
        (j.request.kind == serve::JobKind::kMandel ? m : d).push_back(ms);
        if (!result_ok(r, j.reference)) ++wrong;
        cycle_ms += ms;
        if ((n + 1) % mix.size() == 0) {
          const double c1 = thread_cpu_seconds();
          r_s.push_back(static_cast<double>(mix.size()) / (cycle_ms / 1e3));
          r_cpu.push_back(static_cast<double>(mix.size()) / (c1 - cycle_c0));
          cycle_ms = 0;
          cycle_c0 = c1;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      out.mandel_ms.insert(out.mandel_ms.end(), m.begin(), m.end());
      out.dedup_ms.insert(out.dedup_ms.end(), d.begin(), d.end());
      rates.insert(rates.end(), r_s.begin(), r_s.end());
      cpu_rates.insert(cpu_rates.end(), r_cpu.begin(), r_cpu.end());
      calls += n;
      bad += wrong;
    });
  }
  for (std::thread& th : pool) th.join();
  out.jobs_s = median(rates);
  out.cycle_rates = std::move(cpu_rates);
  for (std::uint64_t i = 0; i < calls; ++i) report.count(i >= bad);
  if (bad > 0) report.wrong("JobEngine::run returned a wrong checksum");
  return out;
}

// ---- closed loops -------------------------------------------------------

struct LoopResult {
  std::vector<double> rtt_ms;     ///< kMissed for a failed request
  std::vector<double> wait_ms;    ///< rtt minus the job kind's alone time
  std::vector<double> submit_us;  ///< in-process submit() call
  std::vector<double> turn_ms;    ///< client turnaround between requests
  std::uint64_t ok = 0, failed = 0;
  std::size_t backlog_max = 0;
  double wall_s = 0;
};

/// `clients` threads, each sending its next request when the previous one
/// returns, for about `seconds`. In-process (through Service::submit) when
/// `port` is 0, else over WireClient to that port. Outputs of in-process
/// jobs are checked against their reference; a wire reply must be "ok".
/// wait_ms subtracts the job kind's time alone from each round trip.
LoopResult closed_loop(Rig& rig, const std::vector<MixJob>& jobs,
                       const std::vector<std::string>& lines, int clients,
                       int port, double seconds, double alone_mandel_ms,
                       double alone_dedup_ms) {
  std::mutex mu;
  LoopResult out;
  std::atomic<bool> connect_failed{false};
  const auto deadline = deadline_after(seconds);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      LoopResult mine;
      serve::WireClient client;
      if (port != 0 && !client.connect("127.0.0.1", port).ok()) {
        connect_failed = true;
        return;
      }
      auto last_reply = Clock::now();
      for (std::size_t i = static_cast<std::size_t>(c) * 7;
           Clock::now() < deadline; ++i) {
        const std::size_t k = i % jobs.size();
        const MixJob& j = jobs[k];
        const auto s0 = Clock::now();
        bool ok = false;
        if (port == 0) {
          auto r = rig.service->submit(tenant_of(i), j.request, true);
          mine.submit_us.push_back(seconds_since(s0) * 1e6);
          mine.backlog_max = std::max(mine.backlog_max, rig.service->backlog());
          ok = r.accepted() && result_ok(r.result.get(), j.reference);
        } else {
          auto r = client.call(lines[k]);
          ok = r.ok() && r.value().kind == serve::WireResponse::Kind::kOk;
        }
        const auto now = Clock::now();
        const double rtt = std::chrono::duration<double>(now - s0).count() * 1e3;
        mine.rtt_ms.push_back(ok ? rtt : kMissed);
        mine.turn_ms.push_back(
            std::chrono::duration<double>(s0 - last_reply).count() * 1e3);
        mine.wait_ms.push_back(rtt - (j.request.kind == serve::JobKind::kMandel
                                          ? alone_mandel_ms
                                          : alone_dedup_ms));
        last_reply = now;
        (ok ? mine.ok : mine.failed) += 1;
      }
      std::lock_guard<std::mutex> lock(mu);
      auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append(out.rtt_ms, mine.rtt_ms);
      append(out.wait_ms, mine.wait_ms);
      append(out.submit_us, mine.submit_us);
      append(out.turn_ms, mine.turn_ms);
      out.ok += mine.ok;
      out.failed += mine.failed;
      out.backlog_max = std::max(out.backlog_max, mine.backlog_max);
    });
  }
  for (std::thread& th : pool) th.join();
  out.wall_s = seconds_since(t0);
  if (connect_failed) out.failed += 1;
  return out;
}

int probe_clients() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, kProbeClients));
}

/// Wire lines for `mix` and the jobs the server will actually run for them
/// (dedup payloads are synthesized server-side from the size on the line),
/// each with its reference checksum.
std::vector<MixJob> wire_jobs(const std::vector<MixJob>& mix,
                              std::vector<std::string>& lines) {
  std::vector<MixJob> jobs;
  std::map<std::string, std::uint64_t> refs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::string line = serve::encode_job_line(tenant_of(i), mix[i].request);
    auto parsed = serve::parse_request(line);
    if (!parsed.ok()) continue;
    MixJob j;
    j.request = std::move(parsed).value().job;
    auto it = refs.find(line);
    if (it == refs.end()) {
      it = refs.emplace(line, reference_checksum(j.request)).first;
    }
    j.reference = it->second;
    lines.push_back(std::move(line));
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Median microseconds of encode_job_line and of parse_request +
/// parse_response on the mix's own wire lines, and the mean request + reply
/// bytes per job.
void wire_framing(const std::vector<MixJob>& mix, Report& report) {
  std::vector<double> enc, par;
  double bytes = 0;
  std::size_t count = 0;
  for (int rep = 0; rep < 50; ++rep) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const auto t0 = Clock::now();
      std::string line = serve::encode_job_line(tenant_of(i), mix[i].request);
      const auto t1 = Clock::now();
      serve::WireResponse resp;
      resp.kind = serve::WireResponse::Kind::kOk;
      resp.job_id = 1000000 + i;
      resp.latency_ns = 1234567;
      resp.device = static_cast<int>(i % kDevices);
      const std::string reply = serve::encode_response(resp);
      const auto t2 = Clock::now();
      auto req = serve::parse_request(line);
      auto rsp = serve::parse_response(reply);
      const auto t3 = Clock::now();
      if (!req.ok() || !rsp.ok()) {
        report.count(false);
        report.wrong("wire framing did not round-trip: " + line);
        continue;
      }
      enc.push_back(std::chrono::duration<double>(t1 - t0).count() * 1e6);
      par.push_back(std::chrono::duration<double>(t3 - t2).count() * 1e6);
      bytes += static_cast<double>(line.size() + 1 + reply.size() + 1);
      ++count;
    }
  }
  report.set("wire.encode_us", median(enc), "us");
  report.set("wire.parse_us", median(par), "us");
  report.set("wire.bytes_per_job",
             bytes / static_cast<double>(std::max<std::size_t>(count, 1)), "B");
}

/// Concatenated dedup payloads of a mix and their common config, for the
/// dedup.* breakdown of serve workloads.
std::vector<std::uint8_t> mix_payload(const std::vector<MixJob>& mix,
                                      hs::dedup::DedupConfig& config) {
  std::vector<std::uint8_t> all;
  for (const MixJob& j : mix) {
    if (j.request.kind != serve::JobKind::kDedup) continue;
    config = j.request.dedup;
    all.insert(all.end(), j.request.payload.begin(), j.request.payload.end());
  }
  return all;
}

// ---- serve-open ---------------------------------------------------------

/// The serve-open mix: serve_mix over four seeded 48 KB parsec-like
/// payloads.
std::vector<MixJob> open_mix(std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::uint64_t k = 0; k < 4; ++k) {
    hs::datagen::CorpusSpec spec;
    spec.kind = hs::datagen::CorpusKind::kParsecLike;
    spec.bytes = kServePayloadBytes;
    spec.seed = seed * 7919 + k;
    payloads.push_back(hs::datagen::generate(spec));
  }
  return serve_mix(std::move(payloads));
}

/// p50_ms of a two-kind mix: the mean of each kind's median. Jobs alternate
/// between kinds of very different cost, so the pooled median of a 50/50
/// mix sits on the edge between the two latency clusters and jumps between
/// them from run to run.
double mix_p50(std::vector<double> mandel, std::vector<double> dedup) {
  return (median(std::move(mandel)) + median(std::move(dedup))) / 2;
}

struct RungSamples {
  std::vector<double> latency_ms;  ///< due time -> completion; kMissed
  std::vector<std::size_t> job;    ///< mix index of each latency sample
  std::vector<double> late_ms;     ///< submit time - due time
  std::vector<double> submit_us;
  std::uint64_t attempted = 0, failed = 0, ok = 0;
  double span_s = 0;  ///< first due time -> last completion, summed
  std::size_t backlog_max = 0;
};

/// One rung: kRungJobs Poisson arrivals at exactly `rate` on average (the
/// gaps are rescaled so the rung's span is kRungJobs / rate), submitted on
/// schedule regardless of how the service keeps up.
void run_rung(Rig& rig, const std::vector<MixJob>& mix, double rate,
              hs::Xoshiro256& rng, std::uint64_t& serial, bool sample_backlog,
              RungSamples& out, Report& report) {
  std::vector<double> due(kRungJobs);
  double t = 0;
  for (double& d : due) {
    t += -std::log(std::max(rng.uniform(), 1e-12));
    d = t;
  }
  const double scale = (kRungJobs / rate) / t;
  for (double& d : due) d *= scale;

  struct Pending {
    serve::SubmitResult submitted;
    std::size_t job = 0;
    double due_s = 0;
    double late_ms = 0;
  };
  std::vector<Pending> pending;
  pending.reserve(kRungJobs);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (int i = 0; i < kRungJobs; ++i) {
    const auto when = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(when);
    const std::uint64_t n = serial++;
    const std::size_t k = n % mix.size();
    const auto s0 = Clock::now();
    Pending p;
    p.submitted = rig.service->submit(tenant_of(n), mix[k].request, true);
    const auto s1 = Clock::now();
    p.job = k;
    p.due_s = due[i];
    p.late_ms = std::chrono::duration<double>(s0 - when).count() * 1e3;
    out.submit_us.push_back(std::chrono::duration<double>(s1 - s0).count() * 1e6);
    out.late_ms.push_back(p.late_ms);
    if (sample_backlog) {
      out.backlog_max = std::max(out.backlog_max, rig.service->backlog());
    }
    pending.push_back(std::move(p));
  }
  double last_done = 0;
  for (Pending& p : pending) {
    ++out.attempted;
    out.job.push_back(p.job);
    if (!p.submitted.accepted()) {
      ++out.failed;
      out.latency_ms.push_back(kMissed);
      continue;
    }
    const serve::JobResult r = p.submitted.result.get();
    if (!result_ok(r, mix[p.job].reference)) {
      ++out.failed;
      out.latency_ms.push_back(kMissed);
      if (r.status.ok() && r.checksum != mix[p.job].reference) {
        report.wrong("serve job returned a wrong checksum");
      }
      continue;
    }
    const double ms = static_cast<double>(r.latency_ns) / 1e6 + p.late_ms;
    out.latency_ms.push_back(ms);
    last_done = std::max(last_done, p.due_s + ms / 1e3);
    ++out.ok;
  }
  out.span_s += last_done - due.front();
}

/// One ascending pass over the ladder; samples pooled per rung in `rungs`
/// (sized to the ladder). `rng` and `serial` carry over between passes so
/// every pass draws fresh arrivals.
void run_pass(Rig& rig, const std::vector<MixJob>& mix, hs::Xoshiro256& rng,
              std::uint64_t& serial, bool sample_backlog,
              std::vector<RungSamples>& rungs, Report& report) {
  for (std::size_t r = 0; r < std::size(kLadder); ++r) {
    run_rung(rig, mix, kLadder[r], rng, serial, sample_backlog, rungs[r],
             report);
  }
}

void count_requests(const std::vector<RungSamples>& rungs, Report& report) {
  for (const RungSamples& r : rungs) {
    for (std::uint64_t i = 0; i < r.attempted; ++i) report.count(i >= r.failed);
  }
}

hs::Xoshiro256 arrival_rng(std::uint64_t seed) {
  return hs::Xoshiro256(seed ^ 0x4C41444445520000ull);
}

double ladder_pass_seconds() {
  double s = 0;
  for (double r : kLadder) s += kRungJobs / r;
  return s;
}

/// Latency and goodput of a ladder: the nominal rung's p50 (mix_p50) and
/// p99, and the completed requests per second at the goodput rung.
struct LadderFigures {
  double p50_ms = 0;
  Latency nominal;
  int best = -1;  ///< goodput rung, -1 when none meets the limit
  double goodput_jobs_s = 0;
};

LadderFigures ladder_figures(const std::vector<RungSamples>& rungs,
                             const std::vector<MixJob>& mix, bool print) {
  LadderFigures out;
  std::vector<Rung> summary;
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const Latency lat = summarize(rungs[r].latency_ms);
    Rung rung{kLadder[r], lat.p99,
              static_cast<double>(rungs[r].failed) /
                  static_cast<double>(std::max<std::uint64_t>(rungs[r].attempted, 1))};
    summary.push_back(rung);
    if (print) {
      std::vector<double> late = rungs[r].late_ms;
      std::printf("  rate %6.0f/s  n=%zu  p50 %8.3f ms  p99 %9.3f ms  "
                  "fail %.4f  late p99 %.3f ms\n",
                  kLadder[r], lat.n, lat.p50, lat.p99, rung.fail_share,
                  percentile(late, 0.99));
    }
  }
  out.best = goodput_rung(summary, kP99LimitMs, kMaxFailShare);
  if (out.best >= 0) {
    const RungSamples& b = rungs[static_cast<std::size_t>(out.best)];
    out.goodput_jobs_s = static_cast<double>(b.ok) / b.span_s;
  }
  const RungSamples& nominal = rungs[kNominalRung];
  out.nominal = summarize(nominal.latency_ms);
  std::vector<double> mandel_ms, dedup_ms;
  for (std::size_t i = 0; i < nominal.latency_ms.size(); ++i) {
    const bool mandel =
        mix[nominal.job[i]].request.kind == serve::JobKind::kMandel;
    (mandel ? mandel_ms : dedup_ms).push_back(nominal.latency_ms[i]);
  }
  out.p50_ms = mix_p50(mandel_ms, dedup_ms);
  if (print) {
    std::printf("  at %.0f/s: p50 %.3f ms (mandel %.3f, dedup %.3f), p99 %.3f "
                "ms over n=%zu requests; goodput %.1f jobs/s (rung %s)\n",
                kLadder[kNominalRung], out.p50_ms, median(mandel_ms),
                median(dedup_ms), out.nominal.p99, out.nominal.n,
                out.goodput_jobs_s,
                out.best < 0 ? "none"
                             : std::to_string(static_cast<int>(kLadder[out.best])).c_str());
  }
  return out;
}

}  // namespace

std::vector<MixJob> serve_mix(std::vector<std::vector<std::uint8_t>> payloads) {
  std::vector<MixJob> mix;
  for (std::vector<std::uint8_t>& bytes : payloads) {
    MixJob frame;
    frame.request.kind = serve::JobKind::kMandel;
    frame.request.mandel.dim = 32;
    frame.request.mandel.niter = 300;
    MixJob payload;
    payload.request.kind = serve::JobKind::kDedup;
    payload.request.payload = std::move(bytes);
    payload.request.dedup.batch_size = 16 * 1024;
    mix.push_back(std::move(frame));
    mix.push_back(std::move(payload));
  }
  for (MixJob& j : mix) j.reference = reference_checksum(j.request);
  return mix;
}

std::uint64_t reference_checksum(const serve::JobRequest& request) {
  if (request.kind == serve::JobKind::kMandel) {
    return hs::mandel::image_checksum(
        hs::mandel::render_sequential(request.mandel));
  }
  std::vector<hs::dedup::Batch> batches =
      hs::dedup::fragment_input(request.payload, request.dedup);
  hs::dedup::DupCache cache;
  for (hs::dedup::Batch& b : batches) {
    hs::dedup::hash_blocks(b);
    cache.check(b);
  }
  return serve::dedup_job_checksum(batches);
}

std::pair<double, int> stage_busy(const hs::telemetry::Registry& registry) {
  double busy = 0;
  int stages = 0;
  const std::string suffix = ".svc_ns";
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name.size() > suffix.size() &&
        h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      busy += static_cast<double>(h.hist.sum) / 1e9;
      ++stages;
    }
  }
  return {busy, stages};
}

void job_probe(const std::vector<MixJob>& mix, double seconds,
               Report& report) {
  auto made = make_rig(/*traced=*/true, /*wire=*/true);
  if (!made.ok()) {
    report.count(false);
    report.wrong("probe service failed to start: " + made.status().ToString());
    return;
  }
  Rig& rig = *made.value();
  const double slice = seconds / 6;

  // JobEngine alone and under contention on the workload's own jobs.
  const AloneTimes alone = engine_loop(rig.machine.get(), mix, 1, slice, report);
  const AloneTimes busy =
      engine_loop(rig.machine.get(), mix, kWorkers, slice, report);
  const double alone_m = median(alone.mandel_ms), alone_d = median(alone.dedup_ms);
  report.set("serve.job_mandel_ms", alone_m, "ms");
  report.set("serve.job_dedup_ms", alone_d, "ms");
  report.set("serve.job_contention",
             (median(busy.mandel_ms) / alone_m + median(busy.dedup_ms) / alone_d) / 2,
             "ratio");
  wire_framing(mix, report);

  // In-process and wire closed loops over the same clients and jobs (the
  // jobs the wire lines parse into).
  std::vector<std::string> lines;
  const std::vector<MixJob> jobs = wire_jobs(mix, lines);
  const AloneTimes wire_alone =
      engine_loop(rig.machine.get(), jobs, 1, slice, report);
  const double wm = median(wire_alone.mandel_ms), wd = median(wire_alone.dedup_ms);
  const int clients = probe_clients();
  warm_up(rig, jobs, report);

  const DeviceTotals dev0 = device_totals(*rig.machine);
  const double busy0 = stage_busy(*rig.registry).first;
  LoopResult local =
      closed_loop(rig, jobs, lines, clients, 0, slice, wm, wd);
  const auto [busy1, stages1] = stage_busy(*rig.registry);
  set_device_metrics(dev0, device_totals(*rig.machine), local.ok, report);
  LoopResult remote = closed_loop(rig, jobs, lines, clients,
                                  rig.wire->port(), slice, wm, wd);
  for (const LoopResult* l : {&local, &remote}) {
    for (std::uint64_t i = 0; i < l->ok + l->failed; ++i) {
      report.count(i >= l->failed);
    }
  }

  const double local_rate = static_cast<double>(local.ok) / local.wall_s;
  report.set("flow.speedup_vs_seq", local_rate / wire_alone.jobs_s, "ratio");
  report.set("flow.busy_share",
             stages1 > 0 ? (busy1 - busy0) / (local.wall_s * stages1) : 0,
             "share");
  std::vector<double> sub = local.submit_us;
  report.set("serve.submit_us_p99", percentile(sub, 0.99), "us");
  report.set("serve.queue_wait_ms_p50", median(local.wait_ms), "ms");
  set_service_counters(rig, local.backlog_max, report);
  report.set("wire.overhead_ms", median(remote.rtt_ms) - median(local.rtt_ms),
             "ms");
  std::vector<double> turns = local.turn_ms;
  turns.insert(turns.end(), remote.turn_ms.begin(), remote.turn_ms.end());
  report.set("loadgen.late_p99_ms", percentile(turns, 0.99), "ms");
  report.set("loadgen.sent", static_cast<double>(turns.size()), "count");
}

/// An untraced started Service on a fresh machine, warmed up; null (and
/// the failure reported) when it does not start.
std::unique_ptr<Rig> start_rig(const std::vector<MixJob>& mix, Report& report) {
  auto made = make_rig(false, false);
  if (!made.ok()) {
    report.count(false);
    report.wrong("service failed to start: " + made.status().ToString());
    return nullptr;
  }
  std::unique_ptr<Rig> rig = std::move(made).value();
  warm_up(*rig, mix, report);
  return rig;
}

/// One kSeqChunkSeconds single-thread JobEngine chunk on a bare machine:
/// `rig` is stopped first, so no service thread shares the cores with it.
AloneTimes seq_chunk(std::unique_ptr<Rig>& rig, const std::vector<MixJob>& mix,
                     Report& report) {
  rig.reset();  // one machine bound to cudax at a time
  auto machine = hs::gpusim::Machine::Create(kDevices,
                                             hs::gpusim::DeviceSpec::TitanXP());
  hs::cudax::bind_machine(machine.get());
  AloneTimes out = engine_loop(machine.get(), mix, 1, kSeqChunkSeconds, report);
  hs::cudax::unbind_machine();
  return out;
}

void run_serve_open(const Options& opt, Report& report) {
  std::vector<double> setup;
  std::vector<MixJob> mix;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // one machine bound to cudax at a time
    const double c0 = cpu_seconds();
    mix = open_mix(opt.seed);
    auto made = make_rig(opt.trace, false);
    if (!made.ok()) {
      report.count(false);
      report.wrong("service failed to start: " + made.status().ToString());
      return;
    }
    rig = std::move(made).value();
    warm_up(*rig, mix, report);
    setup.push_back(cpu_seconds() - c0);
  }

  if (opt.trace) {
    // Per-layer run: the serve-layer probe, then one ladder pass on an
    // untraced service and one on a traced one (registry attached).
    rig.reset();
    hs::dedup::DedupConfig payload_cfg;
    const std::vector<std::uint8_t> payload = mix_payload(mix, payload_cfg);
    dedup_breakdown(payload, payload_cfg, opt.seconds * 0.1, report);
    report.set("kernels.mandel_frame_us",
               mandel_frame_us(mix.front().request.mandel, 200), "us");
    job_probe(mix, opt.seconds * 0.3, report);

    auto plain = make_rig(false, false);
    if (!plain.ok()) {
      report.wrong("service failed to start");
      return;
    }
    std::vector<RungSamples> off(std::size(kLadder));
    hs::Xoshiro256 rng = arrival_rng(opt.seed);
    std::uint64_t serial = 0;
    run_pass(*plain.value(), mix, rng, serial, false, off, report);
    plain.value().reset();
    auto traced = make_rig(true, false);
    if (!traced.ok()) {
      report.wrong("service failed to start");
      return;
    }
    Rig& t = *traced.value();
    const DeviceTotals dev0 = device_totals(*t.machine);
    std::vector<RungSamples> on(std::size(kLadder));
    rng = arrival_rng(opt.seed);
    serial = 0;
    run_pass(t, mix, rng, serial, true, on, report);
    count_requests(off, report);
    count_requests(on, report);
    std::uint64_t jobs = 0;
    std::size_t backlog_max = 0;
    std::vector<double> late, submit, wait;
    const double alone_m = report.get("serve.job_mandel_ms");
    const double alone_d = report.get("serve.job_dedup_ms");
    for (const RungSamples& r : on) {
      jobs += r.ok;
      backlog_max = std::max(backlog_max, r.backlog_max);
      late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
      submit.insert(submit.end(), r.submit_us.begin(), r.submit_us.end());
    }
    // Queue wait at the nominal rung: latency minus the job's time alone.
    const RungSamples& nominal = on[kNominalRung];
    for (std::size_t i = 0; i < nominal.latency_ms.size(); ++i) {
      const bool mandel = mix[nominal.job[i]].request.kind ==
                          serve::JobKind::kMandel;
      wait.push_back(nominal.latency_ms[i] - (mandel ? alone_m : alone_d));
    }
    set_device_metrics(dev0, device_totals(*t.machine), jobs, report);
    set_service_counters(t, backlog_max, report);
    report.set("serve.submit_us_p99", percentile(submit, 0.99), "us");
    report.set("serve.queue_wait_ms_p50", median(wait), "ms");
    report.set("loadgen.late_p99_ms", percentile(late, 0.99), "ms");
    report.set("loadgen.sent", static_cast<double>(late.size()), "count");
    const LadderFigures untraced = ladder_figures(off, mix, false);
    report.set("loadgen.p50_ms", untraced.p50_ms, "ms");
    report.set("loadgen.p99_ms", untraced.nominal.p99, "ms");
    report.set("loadgen.samples", static_cast<double>(untraced.nominal.n),
               "count");
    report.set("loadgen.goodput_jobs_s", untraced.goodput_jobs_s, "jobs/s");
    report.set("trace.overhead_share",
               ladder_figures(on, mix, false).p50_ms / untraced.p50_ms - 1,
               "share");
    return;
  }

  // Ladder passes, each on a fresh service, with single-thread JobEngine
  // chunks on a bare machine (no service running) before, between and after
  // them, so seq_jobs_s samples the whole run.
  const int passes = std::max(
      1, static_cast<int>(opt.seconds * (1 - kSeqShare) / ladder_pass_seconds()));
  const int slot_chunks = std::max(
      1, static_cast<int>(std::lround(opt.seconds * kSeqShare /
                                      kSeqChunkSeconds / (passes + 1))));
  std::vector<RungSamples> rungs(std::size(kLadder));
  hs::Xoshiro256 rng = arrival_rng(opt.seed);
  std::uint64_t serial = 0;
  std::vector<double> seq_rates;
  double ladder_cpu_s = 0;
  for (int pass = 0; pass <= passes; ++pass) {
    for (int c = 0; c < slot_chunks; ++c) {
      const AloneTimes seq = seq_chunk(rig, mix, report);
      seq_rates.insert(seq_rates.end(), seq.cycle_rates.begin(),
                       seq.cycle_rates.end());
    }
    if (pass == passes) break;
    rig = start_rig(mix, report);
    if (!rig) return;
    const double c0 = cpu_seconds();
    run_pass(*rig, mix, rng, serial, false, rungs, report);
    ladder_cpu_s += cpu_seconds() - c0;
  }
  count_requests(rungs, report);
  std::printf("serve-open: %d ladder pass(es) of %d jobs per rung, p99 limit "
              "%.1f ms\n",
              passes, kRungJobs, kP99LimitMs);
  ladder_figures(rungs, mix, true);
  report.set("setup_s", median(setup), "s");
  report.set("seq_jobs_s", percentile(seq_rates, kSeqQuantile), "jobs/s");
  std::uint64_t requests = 0;
  for (const RungSamples& r : rungs) requests += r.attempted;
  report.set("cpu_ms_per_job",
             ladder_cpu_s * 1e3 / static_cast<double>(std::max<std::uint64_t>(requests, 1)),
             "ms");
}

}  // namespace perfbench
