#include "cluster/modeled.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "cluster/machine.hpp"
#include "perfmodel/host_model.hpp"
#include "sched/sched.hpp"

namespace hs::cluster {

namespace {

using dedup::BatchCosts;
using dedup::Fig5Backend;
using mandel::CpuModel;
using mandel::GpuApi;
using mandel::GpuMode;
using perfmodel::HostProfile;
using perfmodel::ModeledHost;

/// Fixed size of a cross-node work descriptor (batch/line handoff without
/// payload): stage pointers, offsets, sizes. Shared with the stage-graph
/// builders so the estimator predicts exactly what the runners send.
constexpr std::uint64_t kDescriptorBytes = 64;
/// Sharded dup-check wire sizes per block: query carries the 20-byte
/// digest + tag, the response an 8-byte id + flags.
constexpr std::uint64_t kShardQueryBytes = 24;
constexpr std::uint64_t kShardResponseBytes = 16;
/// `first_gpu_stage` of a run whose stages enqueue no device work.
constexpr std::size_t kNoGpuStages = std::numeric_limits<std::size_t>::max();

/// Index of the smallest key(i) over [0, n) — the least-loaded engine,
/// memory space or device. Strict < keeps ties on the lowest index, so the
/// choice is deterministic.
template <typename Key>
std::size_t least_loaded(std::size_t n, Key&& key) {
  std::size_t best = 0;
  double best_t = key(0);
  for (std::size_t i = 1; i < n; ++i) {
    const double t = key(i);
    if (t < best_t) {
      best = i;
      best_t = t;
    }
  }
  return best;
}

int max_node_devices(ClusterMachine& cluster) {
  int m = 0;
  for (int i = 0; i < cluster.node_count(); ++i) {
    m = std::max(m, cluster.node(i).device_count());
  }
  return m;
}

/// Accumulates measured per-stage compute profiles into
/// RunOptions::profile while a runner replays its schedule. All methods
/// are no-ops when profiling is off, so the hot loops stay branch-cheap and
/// the modeled schedule is never perturbed.
class Profiler {
 public:
  Profiler(StageGraph* graph, des::Timeline* timeline)
      : graph_(graph), timeline_(timeline) {
    if (graph_ == nullptr) return;
    for (StageInstance& s : graph_->stages) s.compute = StageCompute{};
  }

  [[nodiscard]] bool on() const { return graph_ != nullptr; }

  void set_binding(std::size_t stage, GpuBinding binding) {
    if (graph_ == nullptr) return;
    graph_->stages[stage].compute.binding = binding;
  }

  /// Records one item processed by `stage`. `index` is the global item
  /// number (the device round-robin key under GpuBinding::kPerItem).
  void add(std::size_t stage, std::uint64_t index, double host_seconds,
           double gpu_seconds = 0, double copy_seconds = 0) {
    if (graph_ == nullptr) return;
    StageCompute& c = graph_->stages[stage].compute;
    c.host_seconds += host_seconds;
    c.gpu_seconds += gpu_seconds;
    c.copy_seconds += copy_seconds;
    c.items.push_back({index, host_seconds, gpu_seconds, copy_seconds});
  }

  /// Duration of a recorded timeline task (every gpusim op is one task).
  [[nodiscard]] double task_seconds(des::TaskId id) const {
    if (graph_ == nullptr || !id.valid()) return 0;
    return timeline_->finish_time(id) - timeline_->start_time(id);
  }

 private:
  StageGraph* graph_;
  des::Timeline* timeline_;
};

/// One validated run: the machine, the resolved stage -> node map and the
/// profiler.
struct Session {
  Session(const Topology& topo, const RunOptions& opts, std::vector<int> p)
      : cluster(topo),
        options(opts),
        place(std::move(p)),
        prof(opts.profile, &cluster.timeline()) {
    if (!options.trace_path.empty()) cluster.set_trace_recording(true);
  }

  [[nodiscard]] gpusim::Machine& node_of(std::size_t stage) {
    return cluster.node(place[stage]);
  }

  /// Fills the device and fabric fields, exports link counters, dumps the
  /// trace.
  RunResult finish(RunResult out) {
    out.kernel_launches = cluster.kernel_launches();
    gpusim::Machine& node0 = cluster.node(0);
    if (node0.device_count() > 0 && cluster.makespan() > 0) {
      out.gpu_compute_utilization =
          node0.device(0).compute_busy_seconds() / cluster.makespan();
    }
    out.fabric_bytes = cluster.fabric().total_bytes();
    out.fabric_transfers = cluster.fabric().total_transfers();
    out.links = cluster.fabric().link_stats();
    if (options.registry != nullptr) {
      cluster.fabric().export_counters(*options.registry,
                                       options.telemetry_prefix);
    }
    if (!options.trace_path.empty()) {
      (void)cluster.dump_chrome_trace(options.trace_path);
    }
    return out;
  }

  ClusterMachine cluster;
  const RunOptions& options;
  std::vector<int> place;
  Profiler prof;
};

/// Validates the run's inputs and builds its session. `host` is the
/// single-host topology used when options.topo is empty; stage instances
/// from `first_gpu_stage` on enqueue device work; a non-null
/// `single_node_only` names why the variant has no multi-node form.
Result<std::unique_ptr<Session>> open_session(const RunOptions& options,
                                              const Topology& host,
                                              std::size_t instances,
                                              std::size_t first_gpu_stage,
                                              const char* single_node_only) {
  const Topology& topo = options.topo.nodes.empty() ? host : options.topo;
  HS_RETURN_IF_ERROR(topo.validate());
  const int nodes = static_cast<int>(topo.nodes.size());
  if (nodes > 1 && single_node_only != nullptr) {
    return InvalidArgument(std::string("no multi-node form: ") +
                           single_node_only);
  }
  std::vector<int> place = options.placement.node_of.empty()
                               ? std::vector<int>(instances, 0)
                               : options.placement.node_of;
  if (place.size() != instances) {
    return InvalidArgument("placement maps " + std::to_string(place.size()) +
                           " stage instances; this run has " +
                           std::to_string(instances));
  }
  for (std::size_t i = 0; i < place.size(); ++i) {
    if (place[i] < 0 || place[i] >= nodes) {
      return InvalidArgument("placement puts stage instance " +
                             std::to_string(i) + " on node " +
                             std::to_string(place[i]) + " of " +
                             std::to_string(nodes));
    }
    if (i >= first_gpu_stage &&
        topo.nodes[static_cast<std::size_t>(place[i])].gpus.empty()) {
      return InvalidArgument(
          "GPU stage instance " + std::to_string(i) + " placed on node " +
          topo.nodes[static_cast<std::size_t>(place[i])].name +
          ", which has no GPUs");
    }
  }
  if (options.profile != nullptr &&
      options.profile->stages.size() != instances) {
    return InvalidArgument(
        "profile graph has " + std::to_string(options.profile->stages.size()) +
        " stages; this run has " + std::to_string(instances));
  }
  const Routes routes = compute_routes(topo);
  for (std::size_t n = 1; n < topo.nodes.size(); ++n) {
    if (routes.hops[0][n] < 0) {
      return InvalidArgument("topology is not connected: no path from " +
                             topo.nodes[0].name + " to " +
                             topo.nodes[n].name);
    }
  }
  return std::make_unique<Session>(topo, options, std::move(place));
}

// ---- Dedup: per-batch costs and device work -------------------------------

/// GPU lane-cost scale factors: the simulator's cost unit is one simple
/// arithmetic step (one Mandelbrot iteration); one SHA-1 compression round
/// and one LZSS candidate comparison are worth roughly these many units.
constexpr double kSha1RoundUnits = 100.0;
constexpr double kLzssCompareUnits = 2.0;

/// One GPU memory space: stream + the tail op the owner must respect.
struct Space {
  gpusim::Device* device = nullptr;
  gpusim::StreamId stream = 0;
  gpusim::OpHandle last_d2h;  ///< matches transfer of the previous batch
};

/// Completion time of a space's in-flight work; an idle space scores 0, so
/// least-loaded selection primes every space before reusing one.
template <typename S>
double busy_until(ClusterMachine& cluster, const S& space) {
  return space.last_d2h.valid() ? cluster.finish_time(space.last_d2h.task)
                                : 0.0;
}

/// Charges the CPU-side costs of the classic stages.
struct CpuCosts {
  const HostProfile& host;

  double frag(const BatchCosts& b) const {
    return b.data_len * host.seconds_per_rabin_byte;
  }
  double hash(const BatchCosts& b) const {
    return static_cast<double>(b.sha1_rounds) * host.seconds_per_sha1_round;
  }
  double dupcheck(const BatchCosts& b) const {
    return static_cast<double>(b.block_count) * host.seconds_per_dupcheck;
  }
  double compress(const BatchCosts& b) const {
    return static_cast<double>(b.unique_match_cost_units) *
               host.seconds_per_lzss_unit +
           static_cast<double>(b.unique_bytes) * host.seconds_per_encode_byte;
  }
  double encode_walk(const BatchCosts& b) const {
    return static_cast<double>(b.unique_bytes) * host.seconds_per_encode_byte;
  }
  double write(const BatchCosts& b) const {
    return static_cast<double>(b.output_bytes) * host.seconds_per_output_byte;
  }
};

/// Enqueues the hash kernel for a batch: one lane per block, lane cost =
/// SHA-1 rounds (Listing-3-style trace-driven body).
gpusim::OpHandle launch_hash_kernel(const BatchCosts& b, Space& space) {
  const auto* lens = b.block_lens.data();
  const std::uint64_t nblocks = b.block_lens.size();
  auto r = space.device->launch(
      gpusim::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64), 1, 1},
      gpusim::Dim3{64, 1, 1}, {}, space.stream,
      [lens, nblocks](const gpusim::ThreadCtx& tc) -> double {
        std::uint64_t i = tc.global_x();
        if (i >= nblocks) return 1;
        return static_cast<double>(
                   kernels::Sha1::compression_rounds(lens[i])) *
               kSha1RoundUnits;
      });
  assert(r.ok());
  return r.value();
}

/// Enqueues the FindMatch work for a batch: either the optimized single
/// kernel over every position (Listing 3) or the pre-fix one-kernel-per-
/// block form (which also reads each block's matches back separately —
/// many small latency-bound transfers, part of why it was "very poor").
gpusim::OpHandle launch_findmatch(const BatchCosts& b, Space& space,
                                  const kernels::LzssParams& lzss,
                                  bool batched_kernel) {
  const auto& starts = b.start_pos;
  const std::uint64_t n = b.data_len;
  gpusim::OpHandle last;
  if (batched_kernel) {
    const auto* sp = starts.data();
    const std::size_t nsp = starts.size();
    auto r = space.device->launch(
        gpusim::Dim3{static_cast<std::uint32_t>((n + 255) / 256), 1, 1},
        gpusim::Dim3{256, 1, 1}, {}, space.stream,
        [sp, nsp, n, lzss](const gpusim::ThreadCtx& tc) -> double {
          std::uint64_t pos = tc.global_x();
          if (pos >= n) return 1;
          std::size_t lo = 0, hi = nsp;
          while (lo + 1 < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (sp[mid] <= pos) lo = mid;
            else hi = mid;
          }
          return static_cast<double>(
                     kernels::lzss_match_cost(sp[lo], pos, lzss)) *
                 kLzssCompareUnits;
        });
    assert(r.ok());
    last = r.value();
  } else {
    for (std::size_t k = 0; k < starts.size(); ++k) {
      std::uint64_t bs = starts[k];
      std::uint64_t be = k + 1 < starts.size() ? starts[k + 1] : n;
      std::uint64_t len = be - bs;
      auto r = space.device->launch(
          gpusim::Dim3{static_cast<std::uint32_t>((len + 255) / 256), 1, 1},
          gpusim::Dim3{256, 1, 1}, {}, space.stream,
          [bs, be, lzss](const gpusim::ThreadCtx& tc) -> double {
            std::uint64_t pos = bs + tc.global_x();
            if (pos >= be) return 1;
            return static_cast<double>(
                       kernels::lzss_match_cost(bs, pos, lzss)) *
                   kLzssCompareUnits;
          });
      assert(r.ok());
      last = r.value();
    }
  }
  return last;
}

/// Scratch device/host buffers of one device. Functional content is
/// irrelevant (the trace already holds the results); sizes are what the
/// cost model consumes.
struct ScratchBuffers {
  std::vector<std::uint8_t> host;
  void* dev = nullptr;

  Status allocate(gpusim::Device& device, std::size_t bytes) {
    host.resize(bytes);
    auto r = device.malloc(std::max<std::size_t>(bytes, 1));
    if (!r.ok()) return r.status();
    dev = r.value();
    return OkStatus();
  }
};

/// The device half of the hash stage: copy the batch in, hash it, read
/// the digests back, all on `space` and after `issuer`'s last call;
/// waiting for the digests is left to the caller.
///
/// Copy behaviour (§V-B): Dedup's realloc'd buffers cannot be pinned.
/// Both APIs therefore stage through pageable-speed transfers, but they
/// differ in *who waits*: CUDA's cudaMemcpyAsync from pageable memory
/// degrades to a synchronous copy (the issuing host thread blocks, so 2x
/// memory spaces cannot help), while OpenCL's runtime stages
/// asynchronously at the cost of heavier per-enqueue bookkeeping.
struct HashOps {
  gpusim::OpHandle h2d;
  gpusim::OpHandle digests;
};
HashOps hash_on_device(const BatchCosts& b, Space& space, ScratchBuffers& sc,
                       ModeledHost& issuer, double enq, bool cuda) {
  gpusim::Device& dev = *space.device;
  perfmodel::stream_wait_host(dev, space.stream, issuer.tail());
  auto h2d = dev.memcpy_h2d(sc.dev, sc.host.data(), b.data_len, space.stream,
                            gpusim::HostMem::kPageable);
  assert(h2d.ok());
  if (cuda) issuer.wait(h2d.value().task);
  issuer.work(enq);
  launch_hash_kernel(b, space);
  issuer.work(enq);
  auto digests = dev.memcpy_d2h(
      sc.host.data(), sc.dev, std::max<std::uint64_t>(1, b.block_count * 20),
      space.stream, gpusim::HostMem::kPageable);
  assert(digests.ok());
  return {h2d.value(), digests.value()};
}

/// Enqueues the match read-back of a batch after its FindMatch work and
/// charges the enqueue calls to `issuer`: one transfer of every position's
/// match, or — in the pre-fix per-block form — one small latency-bound
/// transfer per block.
gpusim::OpHandle read_matches(const BatchCosts& b, Space& space,
                              ScratchBuffers& sc, ModeledHost& issuer,
                              double enq, bool batched_kernel) {
  if (batched_kernel) {
    issuer.work(enq);
    auto r = space.device->memcpy_d2h(
        sc.host.data(), sc.dev,
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(b.data_len) *
                                       sizeof(kernels::LzssMatch)),
        space.stream, gpusim::HostMem::kPageable);
    assert(r.ok());
    return r.value();
  }
  issuer.work(enq *
              static_cast<double>(std::max<std::uint64_t>(1, b.block_count)));
  gpusim::OpHandle last;
  const auto& starts = b.start_pos;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    std::uint64_t bs = starts[k];
    std::uint64_t be = k + 1 < starts.size() ? starts[k + 1] : b.data_len;
    std::uint64_t bytes =
        std::max<std::uint64_t>(1, (be - bs) * sizeof(kernels::LzssMatch));
    auto r = space.device->memcpy_d2h(sc.host.data(), sc.dev, bytes,
                                      space.stream,
                                      gpusim::HostMem::kPageable);
    assert(r.ok());
    last = r.value();
  }
  return last;
}

// ---- Mandel: host overheads and the batched kernel ------------------------

/// Per-call host overhead of one GPU API enqueue. The paper found CUDA and
/// OpenCL within a few percent; OpenCL's dispatch (cl_event bookkeeping)
/// is charged slightly higher.
double enqueue_overhead(const HostProfile& host, GpuApi api) {
  return api == GpuApi::kCuda ? host.gpu_enqueue_overhead
                              : host.gpu_enqueue_overhead * 1.25;
}

double item_overhead(const HostProfile& host, CpuModel model) {
  switch (model) {
    case CpuModel::kSpar: return host.spar_item_overhead;
    case CpuModel::kTbb: return host.taskx_item_overhead;
    case CpuModel::kFastFlow: return host.flow_item_overhead;
  }
  return host.flow_item_overhead;
}

double show_cost(const HostProfile& host, int dim, int lines) {
  return lines * (host.show_line_base + dim * host.show_line_per_pixel);
}

Topology mandel_host(const mandel::ModeledConfig& cfg) {
  return full_mesh(1, cfg.devices, cfg.device_spec, 1.0, 0.0);
}

/// Applies the config's ablation knobs to every device of every node.
void apply_device_knobs(ClusterMachine& cluster,
                        const mandel::ModeledConfig& cfg) {
  for (int n = 0; n < cluster.node_count(); ++n) {
    gpusim::Machine& node = cluster.node(n);
    for (int d = 0; d < node.device_count(); ++d) {
      node.device(d).set_divergence_model(cfg.divergence);
      node.device(d).set_copy_compute_overlap(cfg.copy_compute_overlap);
    }
  }
}

/// One GPU "memory space": a device buffer + stream + the in-flight d2h
/// transfer that must complete before the buffer is reused.
struct MemSpace {
  gpusim::Device* device = nullptr;
  gpusim::StreamId stream = 0;
  std::uint8_t* dev_buf = nullptr;
  std::uint64_t owned_lines = 0;  ///< capacity of dev_buf in image lines
  gpusim::OpHandle last_d2h;
  int pending_lines = 0;  ///< lines whose show-cost is still owed
};

/// Launches the Listing-2 batched kernel for lines [first, first+count) and
/// the async d2h copy into `image`. Returns the d2h op.
gpusim::OpHandle launch_batch(const mandel::IterationMap& map,
                              MemSpace& space, int first, int count,
                              std::vector<std::uint8_t>& image) {
  const int dim = map.params().dim;
  const std::uint64_t total_threads =
      static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim);
  gpusim::Dim3 grid{static_cast<std::uint32_t>((total_threads + 255) / 256),
                    1, 1};
  gpusim::Dim3 block{256, 1, 1};
  gpusim::KernelAttributes attrs;  // 18 registers: the paper's kernel
  std::uint8_t* dev_buf = space.dev_buf;
  auto launched = space.device->launch(
      grid, block, attrs, space.stream,
      [&map, dev_buf, first, count, dim](const gpusim::ThreadCtx& ctx)
          -> std::uint64_t {
        // Listing 2: i_batch = tid / dim; i = batch*batch_size + i_batch;
        // j = tid - i_batch*dim.
        std::uint64_t tid = ctx.global_x();
        std::uint64_t i_batch = tid / static_cast<std::uint64_t>(dim);
        std::uint64_t j = tid - i_batch * static_cast<std::uint64_t>(dim);
        std::uint64_t i = static_cast<std::uint64_t>(first) + i_batch;
        if (i_batch < static_cast<std::uint64_t>(count) &&
            j < static_cast<std::uint64_t>(dim)) {
          int ii = static_cast<int>(i);
          int jj = static_cast<int>(j);
          dev_buf[i_batch * dim + j] = map.color(ii, jj);
          return map.lane_cost(ii, jj);
        }
        return 1;  // out-of-range guard costs one trip
      });
  assert(launched.ok());
  (void)launched;
  auto copied = space.device->memcpy_d2h(
      image.data() + static_cast<std::size_t>(first) * dim, space.dev_buf,
      total_threads, space.stream, gpusim::HostMem::kPinned);
  assert(copied.ok());
  return copied.value();
}

/// Lines per kernel call. SchedMode::kStatic uses cfg.batch_lines;
/// kAdaptive grows the batch with sched::AimdBatchSizer until the measured
/// per-line cost — kernel busy time plus amortized enqueue overhead —
/// flattens (the occupancy break-even), halving it whenever device memory
/// rejects the buffer.
class LineBatcher {
 public:
  LineBatcher(const mandel::ModeledConfig& cfg, int dim)
      : dim_(dim),
        fixed_(static_cast<std::uint64_t>(std::max(1, cfg.batch_lines))) {
    if (cfg.sched == sched::SchedMode::kAdaptive) {
      sched::AimdConfig scfg;
      scfg.min_size = 1;
      scfg.max_size = static_cast<std::uint64_t>(dim);
      scfg.initial = 1;
      scfg.add_step = 1;
      aimd_.emplace(scfg);
    }
  }

  /// Lines of the next batch (at most `remaining`), with `space` holding a
  /// device buffer that large; OUT_OF_MEMORY when not even that fits.
  Result<int> reserve(MemSpace& space, int remaining) {
    for (;;) {
      const std::uint64_t want = std::min<std::uint64_t>(
          current(), static_cast<std::uint64_t>(remaining));
      Status s = reserve_lines(space, want);
      if (s.ok()) return static_cast<int>(want);
      if (!aimd_ || want == 1) return s;
      aimd_->on_reject();
    }
  }

  /// Feeds the per-line cost of a completed batch to the AIMD sizer. Only
  /// a full-size batch is a valid observation; the image-edge remainder
  /// would fake a cost spike.
  void observe(int count, double unit_cost) {
    if (aimd_ && static_cast<std::uint64_t>(count) == aimd_->current()) {
      aimd_->on_success(unit_cost);
    }
  }

  /// The converged AIMD batch size; 0 under SchedMode::kStatic.
  [[nodiscard]] std::uint64_t adaptive_lines() const {
    return aimd_ ? aimd_->current() : 0;
  }

 private:
  [[nodiscard]] std::uint64_t current() const {
    return aimd_ ? aimd_->current() : fixed_;
  }

  /// Ensures `space` owns a device buffer of at least `lines` fractal
  /// lines, reallocating through the simulated device's memory accounting.
  Status reserve_lines(MemSpace& space, std::uint64_t lines) const {
    if (space.owned_lines >= lines) return OkStatus();
    if (space.dev_buf != nullptr) {
      (void)space.device->free(space.dev_buf);
      space.dev_buf = nullptr;
      space.owned_lines = 0;
    }
    auto buf = space.device->malloc(lines * static_cast<std::uint64_t>(dim_));
    if (!buf.ok()) return buf.status();
    space.dev_buf = static_cast<std::uint8_t*>(buf.value());
    space.owned_lines = lines;
    return OkStatus();
  }

  int dim_;
  std::uint64_t fixed_;
  std::optional<sched::AimdBatchSizer> aimd_;
};

/// Appends one edge per stage pair with traffic: acc[a][b] bytes over
/// xfer[a][b] transfers.
void add_edges(StageGraph& g,
               const std::vector<std::vector<std::uint64_t>>& acc,
               const std::vector<std::vector<std::uint64_t>>& xfer) {
  for (std::size_t a = 0; a < acc.size(); ++a) {
    for (std::size_t b = 0; b < acc.size(); ++b) {
      if (acc[a][b] > 0) {
        g.edges.push_back({static_cast<int>(a), static_cast<int>(b),
                           acc[a][b], xfer[a][b]});
      }
    }
  }
}

}  // namespace

StageGraph dedup_stage_graph(const dedup::DedupTrace& trace, int replicas,
                             bool workers_need_gpu) {
  const int R = std::max(1, replicas);
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"dupcheck", false, -1, 1});
  g.stages.push_back({"writer", false, -1, 1});
  for (int w = 0; w < R; ++w) {
    // A GPU-farm replica is a hash worker + a compress worker (two host
    // threads); the CPU farm runs both phases on one thread.
    g.stages.push_back({"worker" + std::to_string(w), workers_need_gpu, -1,
                        workers_need_gpu ? 2 : 1});
  }

  const std::size_t n = g.stages.size();
  std::vector<std::vector<std::uint64_t>> acc(
      n, std::vector<std::uint64_t>(n, 0));
  std::vector<std::vector<std::uint64_t>> xfer(
      n, std::vector<std::uint64_t>(n, 0));
  for (std::size_t i = 0; i < trace.batches.size(); ++i) {
    const BatchCosts& b = trace.batches[i];
    const std::size_t w = 3 + i % static_cast<std::size_t>(R);
    acc[0][w] += b.data_len;                  // batch payload to the worker
    acc[w][1] += 20 * b.block_count;          // digests to the dup check
    acc[1][w] += b.block_count;               // decisions back
    acc[w][2] += b.output_bytes;              // archive bytes to the writer
    xfer[0][w] += 1;
    xfer[w][1] += 1;
    xfer[1][w] += 1;
    xfer[w][2] += 1;
  }
  add_edges(g, acc, xfer);
  return g;
}

StageGraph mandel_stage_graph(int dim, int batch_lines, int workers,
                              bool workers_need_gpu) {
  const int W = std::max(1, workers);
  const int batch = std::max(1, batch_lines);
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"collector", false, -1, 1});
  for (int w = 0; w < W; ++w) {
    g.stages.push_back({"worker" + std::to_string(w), workers_need_gpu, -1,
                        1});
  }
  const std::size_t n = g.stages.size();
  std::vector<std::vector<std::uint64_t>> acc(
      n, std::vector<std::uint64_t>(n, 0));
  std::vector<std::vector<std::uint64_t>> xfer(
      n, std::vector<std::uint64_t>(n, 0));
  const int nbatches = (dim + batch - 1) / batch;
  for (int b = 0; b < nbatches; ++b) {
    const std::size_t w = 2 + static_cast<std::size_t>(b % W);
    const int count = std::min(batch, dim - b * batch);
    acc[0][w] += kDescriptorBytes;
    acc[w][1] += static_cast<std::uint64_t>(count) *
                 static_cast<std::uint64_t>(dim);
    xfer[0][w] += 1;
    xfer[w][1] += 1;
  }
  add_edges(g, acc, xfer);
  return g;
}

Result<RunResult> run_fig5(const dedup::DedupTrace& trace,
                           const dedup::Fig5Config& config,
                           Fig5Backend backend, const RunOptions& options) {
  const HostProfile& host = config.host;
  const CpuCosts cpu{host};
  const bool single_thread = backend == Fig5Backend::kCudaSingle ||
                             backend == Fig5Backend::kOclSingle;
  const bool gpu = single_thread || backend == Fig5Backend::kSparCuda ||
                   backend == Fig5Backend::kSparOcl;
  const bool farm = !single_thread && backend != Fig5Backend::kSequential;
  const bool cuda = backend == Fig5Backend::kCudaSingle ||
                    backend == Fig5Backend::kSparCuda;
  const bool adaptive =
      farm && gpu && config.sched == sched::SchedMode::kAdaptive;
  const int replicas = std::max(1, config.replicas);
  const int mem_spaces = std::max(1, config.mem_spaces);
  const double enq = cuda ? host.gpu_enqueue_overhead
                          : host.gpu_enqueue_overhead * 1.5;
  const double item_ovh = host.spar_item_overhead;
  std::uint32_t max_len = 0;
  for (const BatchCosts& b : trace.batches) {
    max_len = std::max(max_len, b.data_len);
  }

  // Single-thread GPU versions are single-GPU, single-node (§IV-B:
  // multi-GPU with one thread "involves a lot of code refactoring, thus we
  // chose for not implementing it").
  const std::size_t instances =
      farm ? 3 + static_cast<std::size_t>(replicas) : 1;
  HS_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      open_session(
          options,
          full_mesh(1, std::max(1, config.devices), config.device_spec, 1.0,
                    0.0),
          instances, !gpu ? kNoGpuStages : single_thread ? 0 : 3,
          single_thread ? "one host thread drives one local GPU"
          : adaptive    ? "adaptive dispatch picks among one node's GPUs"
                        : nullptr));
  Session& s = *session;
  ClusterMachine& cluster = s.cluster;
  Fabric& fabric = cluster.fabric();
  Profiler& prof = s.prof;
  const int N = cluster.node_count();

  RunResult out;
  out.label = std::string(dedup::fig5_backend_name(backend));
  if (gpu && !config.batched_kernel) out.label += " per-block-kernels";
  if (gpu && mem_spaces > 1) {
    out.label += " " + std::to_string(mem_spaces) + "x-mem";
  }
  const int max_dev = max_node_devices(cluster);
  if (farm && gpu && max_dev > 1) {
    out.label += " " + std::to_string(max_dev) + "gpu";
  }
  if (adaptive) out.label += " adaptive";

  // Scratch per (node, device).
  std::vector<std::vector<ScratchBuffers>> scratch(
      static_cast<std::size_t>(N));
  if (gpu) {
    for (int n = 0; n < N; ++n) {
      gpusim::Machine& node = cluster.node(n);
      scratch[static_cast<std::size_t>(n)].resize(
          static_cast<std::size_t>(node.device_count()));
      for (int d = 0; d < node.device_count(); ++d) {
        HS_RETURN_IF_ERROR(
            scratch[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)]
                .allocate(node.device(d),
                          static_cast<std::size_t>(max_len) * 5));
      }
    }
  }

  if (backend == Fig5Backend::kSequential) {
    ModeledHost seq(&s.node_of(0), "seq");
    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const BatchCosts& b = trace.batches[i];
      const double cost = cpu.frag(b) + cpu.hash(b) + cpu.dupcheck(b) +
                          cpu.compress(b) + cpu.write(b);
      seq.work(cost);
      prof.add(0, i, cost);
    }
    out.modeled_seconds = seq.finish_time();
  } else if (single_thread) {
    ModeledHost driver(&s.node_of(0), "driver");
    gpusim::Device& dev = s.node_of(0).device(0);
    ScratchBuffers& sc = scratch[static_cast<std::size_t>(s.place[0])][0];
    std::vector<Space> spaces(static_cast<std::size_t>(mem_spaces));
    for (int k = 0; k < mem_spaces; ++k) {
      spaces[static_cast<std::size_t>(k)].device = &dev;
      spaces[static_cast<std::size_t>(k)].stream =
          k == 0 ? dev.default_stream() : dev.create_stream();
    }

    // Software-pipelined driver loop: phase A enqueues a batch's GPU work
    // onto its memory space; phase B (run when the space is next needed,
    // in batch order) waits for the results, then duplicate-checks,
    // encodes and writes on the host. With 2 memory spaces, batch i+1's
    // transfers and kernels overlap batch i's host-side phase B — unless
    // the CUDA pageable-copy degradation blocks phase A's copies, which
    // is exactly why 2x memory spaces do not help the CUDA version.
    std::vector<int> pending(spaces.size(), -1);
    auto phase_b = [&](std::size_t slot) {
      int idx = pending[slot];
      if (idx < 0) return;
      pending[slot] = -1;
      const BatchCosts& b = trace.batches[static_cast<std::size_t>(idx)];
      driver.wait(spaces[slot].last_d2h.task);
      driver.work(cpu.dupcheck(b) + cpu.encode_walk(b) + cpu.write(b));
    };

    for (std::size_t i = 0; i < trace.batches.size(); ++i) {
      const BatchCosts& b = trace.batches[i];
      std::size_t slot = i % spaces.size();
      phase_b(slot);  // free the space (no-op the first time around)
      Space& space = spaces[slot];

      // Phase A: fragment on the host, enqueue H2D + hash + digest
      // read-back + FindMatch + match read-back.
      driver.work(cpu.frag(b));
      driver.work(enq);
      const HashOps hashed = hash_on_device(b, space, sc, driver, enq, cuda);
      if (cuda) driver.wait(hashed.digests.task);

      driver.work(enq *
                  (config.batched_kernel
                       ? 1.0
                       : static_cast<double>(std::max<std::uint64_t>(
                             1, b.block_count))));
      launch_findmatch(b, space, config.dedup.lzss, config.batched_kernel);
      gpusim::OpHandle d2h_matches =
          read_matches(b, space, sc, driver, enq, config.batched_kernel);
      if (cuda) driver.wait(d2h_matches.task);
      space.last_d2h = d2h_matches;
      pending[slot] = static_cast<int>(i);
    }
    // Drain remaining phase Bs in batch order.
    for (std::size_t i = 0; i < spaces.size(); ++i) {
      phase_b((trace.batches.size() + i) % spaces.size());
    }
    out.modeled_seconds = std::max(driver.finish_time(), cluster.makespan());
  } else {
    const int src_node = s.place[0];
    const int dup_node = s.place[1];
    const int wr_node = s.place[2];
    ModeledHost source(&s.node_of(0), "source");
    ModeledHost dup(&s.node_of(1), "dupcheck");
    ModeledHost writer(&s.node_of(2), "writer");

    // Shard services: shard k lives on node k (owner = key % N). Only
    // built for N > 1 — at one node every probe is local and charged to
    // the dup engine itself.
    std::vector<std::unique_ptr<ModeledHost>> shard_hosts;
    if (N > 1) {
      for (int n = 0; n < N; ++n) {
        shard_hosts.push_back(
            std::make_unique<ModeledHost>(&cluster.node(n), "shard"));
      }
    }

    /// Sharded duplicate check of batch `i` arriving at `arrived`.
    auto sharded_check = [&](std::size_t i, const BatchCosts& b,
                             des::TaskId arrived) -> des::TaskId {
      if (N == 1) {
        prof.add(1, i, cpu.dupcheck(b) + item_ovh);
        return dup.work_after(cpu.dupcheck(b) + item_ovh, arrived);
      }
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(N), 0);
      for (std::uint8_t key : b.shard_key) {
        counts[key % static_cast<std::size_t>(N)] += 1;
      }
      const double local =
          static_cast<double>(counts[static_cast<std::size_t>(dup_node)]) *
              host.seconds_per_dupcheck +
          item_ovh;
      prof.add(1, i, local);
      dup.work_after(local, arrived);
      for (int o = 0; o < N; ++o) {
        const std::uint64_t k = counts[static_cast<std::size_t>(o)];
        if (o == dup_node || k == 0) continue;
        const auto h = static_cast<std::uint64_t>(fabric.hops(dup_node, o));
        des::TaskId query = fabric.send(dup_node, o, kShardQueryBytes * k,
                                        dup.tail(), "shard.query");
        out.shard_bytes += kShardQueryBytes * k * h;
        des::TaskId served = shard_hosts[static_cast<std::size_t>(o)]
                                 ->work_after(static_cast<double>(k) *
                                                  host.seconds_per_dupcheck,
                                              query);
        des::TaskId resp = fabric.send(o, dup_node, kShardResponseBytes * k,
                                       served, "shard.response");
        out.shard_bytes += kShardResponseBytes * k * h;
        dup.wait(resp);
      }
      return dup.tail();
    };

    if (!gpu) {
      // 19 workers do hashing and compression; fragmentation at the
      // source, duplicate check serial, writer serial (the paper's CPU
      // pipeline).
      std::vector<std::unique_ptr<ModeledHost>> workers;
      for (int w = 0; w < replicas; ++w) {
        workers.push_back(std::make_unique<ModeledHost>(
            &s.node_of(3 + static_cast<std::size_t>(w)),
            "worker" + std::to_string(w)));
      }
      for (std::size_t i = 0; i < trace.batches.size(); ++i) {
        const BatchCosts& b = trace.batches[i];
        const std::size_t w = i % workers.size();
        const int w_node = s.place[3 + w];
        des::TaskId emitted = source.work(cpu.frag(b) + item_ovh);
        prof.add(0, i, cpu.frag(b) + item_ovh);
        des::TaskId arrived_w =
            fabric.send(src_node, w_node, b.data_len, emitted, "batch");
        des::TaskId hashed =
            workers[w]->work_after(cpu.hash(b) + item_ovh, arrived_w);
        des::TaskId arrived_d = fabric.send(w_node, dup_node,
                                            20 * b.block_count, hashed,
                                            "digests");
        des::TaskId checked = sharded_check(i, b, arrived_d);
        des::TaskId arrived_back = fabric.send(dup_node, w_node,
                                               b.block_count, checked,
                                               "decisions");
        des::TaskId compressed =
            workers[w]->work_after(cpu.compress(b) + item_ovh, arrived_back);
        prof.add(3 + w, i, cpu.hash(b) + cpu.compress(b) + 2 * item_ovh);
        des::TaskId arrived_wr = fabric.send(w_node, wr_node, b.output_bytes,
                                             compressed, "archive");
        writer.work_after(cpu.write(b) + item_ovh, arrived_wr);
        prof.add(2, i, cpu.write(b) + item_ovh);
      }
      out.modeled_seconds = writer.finish_time();
    } else {
      // SPar + GPU farm (Fig. 3 graph): source -> hash farm -> sharded dup
      // check -> compress farm -> writer. Each replica's pair of host
      // threads sits on its placement node and drives that node's GPUs;
      // an item's stream travels with it so the compress stage reuses the
      // data already on the GPU.
      std::vector<std::unique_ptr<ModeledHost>> hash_workers;
      std::vector<std::unique_ptr<ModeledHost>> comp_workers;
      for (int w = 0; w < replicas; ++w) {
        gpusim::Machine& node = s.node_of(3 + static_cast<std::size_t>(w));
        hash_workers.push_back(std::make_unique<ModeledHost>(
            &node, "hash" + std::to_string(w)));
        comp_workers.push_back(std::make_unique<ModeledHost>(
            &node, "comp" + std::to_string(w)));
        prof.set_binding(3 + static_cast<std::size_t>(w),
                         GpuBinding::kPerStage);
      }

      // Memory spaces: mem_spaces per replica on one GPU of its node,
      // round-robin by the replica's rank on that node (w % devices on a
      // single host).
      std::vector<std::vector<Space>> spaces(
          static_cast<std::size_t>(replicas));
      std::vector<int> node_rank(static_cast<std::size_t>(N), 0);
      for (int w = 0; w < replicas; ++w) {
        const int w_node = s.place[3 + static_cast<std::size_t>(w)];
        gpusim::Machine& node = cluster.node(w_node);
        const int d = node_rank[static_cast<std::size_t>(w_node)]++ %
                      node.device_count();
        for (int k = 0; k < mem_spaces; ++k) {
          Space space;
          space.device = &node.device(d);
          space.stream = space.device->create_stream();
          spaces[static_cast<std::size_t>(w)].push_back(space);
        }
      }
      // Adaptive dispatch sees one flat pool of every memory space and
      // routes each batch to the least-loaded one. The replica's host
      // thread still does the enqueueing — only the device binding
      // becomes dynamic.
      std::vector<Space*> pool;
      if (adaptive) {
        for (auto& ws : spaces) {
          for (Space& sp : ws) pool.push_back(&sp);
        }
      }

      for (std::size_t i = 0; i < trace.batches.size(); ++i) {
        const BatchCosts& b = trace.batches[i];
        des::TaskId emitted = source.work(cpu.frag(b) + item_ovh);
        prof.add(0, i, cpu.frag(b) + item_ovh);

        const std::size_t w = i % static_cast<std::size_t>(replicas);
        const int w_node = s.place[3 + w];
        ModeledHost& hw = *hash_workers[w];
        Space& space =
            adaptive
                ? *pool[least_loaded(pool.size(),
                                     [&](std::size_t k) {
                                       return busy_until(cluster, *pool[k]);
                                     })]
                : spaces[w][(i / static_cast<std::size_t>(replicas)) %
                            spaces[w].size()];
        gpusim::Device& dev = *space.device;
        ScratchBuffers& sc = scratch[static_cast<std::size_t>(w_node)]
                                    [static_cast<std::size_t>(dev.index())];

        const double compute_before =
            prof.on() ? dev.compute_busy_seconds() : 0;
        des::TaskId arrived_w =
            fabric.send(src_node, w_node, b.data_len, emitted, "batch");
        if (space.last_d2h.valid()) hw.wait(space.last_d2h.task);
        des::TaskId deps[1] = {arrived_w};
        hw.work(item_ovh + enq, deps);
        const HashOps hashed = hash_on_device(b, space, sc, hw, enq, cuda);
        hw.wait(hashed.digests.task);

        des::TaskId arrived_d = fabric.send(w_node, dup_node,
                                            20 * b.block_count, hw.tail(),
                                            "digests");
        des::TaskId checked = sharded_check(i, b, arrived_d);
        des::TaskId arrived_back = fabric.send(dup_node, w_node,
                                               b.block_count, checked,
                                               "decisions");

        // Compress farm: enqueue FindMatch on the item's stream (data is
        // already on the device), read matches back, encode on the CPU.
        ModeledHost& cw = *comp_workers[w];
        des::TaskId cdeps[1] = {arrived_back};
        cw.work(item_ovh + enq * (config.batched_kernel
                                      ? 1.0
                                      : static_cast<double>(
                                            std::max<std::uint64_t>(
                                                1, b.block_count))),
                cdeps);
        perfmodel::stream_wait_host(dev, space.stream, cw.tail());
        launch_findmatch(b, space, config.dedup.lzss, config.batched_kernel);
        gpusim::OpHandle d2h_matches =
            read_matches(b, space, sc, cw, enq, config.batched_kernel);
        cw.wait(d2h_matches.task);
        space.last_d2h = d2h_matches;
        des::TaskId encoded = cw.work(cpu.encode_walk(b));

        if (prof.on()) {
          const double blocks = static_cast<double>(
              std::max<std::uint64_t>(1, b.block_count));
          const double host_busy =
              item_ovh + 2 * enq +  // hash thread
              item_ovh + cpu.encode_walk(b) +
              (config.batched_kernel ? 2 * enq : 2 * enq * blocks);
          prof.add(3 + w, i, host_busy,
                   dev.compute_busy_seconds() - compute_before,
                   prof.task_seconds(hashed.h2d.task) +
                       prof.task_seconds(hashed.digests.task) +
                       prof.task_seconds(d2h_matches.task));
        }

        des::TaskId arrived_wr = fabric.send(w_node, wr_node, b.output_bytes,
                                             encoded, "archive");
        writer.work_after(cpu.write(b) + item_ovh, arrived_wr);
        prof.add(2, i, cpu.write(b) + item_ovh);
      }
      out.modeled_seconds =
          std::max(writer.finish_time(), cluster.makespan());
    }
  }

  out.throughput_mb_s =
      out.modeled_seconds > 0
          ? static_cast<double>(trace.input_bytes) / 1e6 / out.modeled_seconds
          : 0;
  return s.finish(std::move(out));
}

Result<RunResult> run_sequential(const mandel::IterationMap& map,
                                 const mandel::ModeledConfig& cfg,
                                 const RunOptions& options) {
  const int dim = map.params().dim;
  HS_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      open_session(options, mandel_host(cfg), 1, kNoGpuStages, nullptr));
  ModeledHost seq(&session->node_of(0), "seq");

  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  for (int i = 0; i < dim; ++i) {
    map.render_line(i, std::span<std::uint8_t>(
                           image.data() + static_cast<std::size_t>(i) * dim,
                           static_cast<std::size_t>(dim)));
    const double cost = static_cast<double>(map.line_cost(i)) *
                            cfg.host.seconds_per_mandel_iter +
                        show_cost(cfg.host, dim, 1);
    seq.work(cost);
    session->prof.add(0, static_cast<std::uint64_t>(i), cost);
  }

  RunResult out;
  out.label = "sequential";
  out.modeled_seconds = seq.finish_time();
  out.checksum = mandel::image_checksum(image);
  return session->finish(std::move(out));
}

Result<RunResult> run_cpu_pipeline(const mandel::IterationMap& map,
                                   const mandel::ModeledConfig& cfg,
                                   CpuModel model,
                                   const RunOptions& options) {
  const int dim = map.params().dim;
  const double ovh = item_overhead(cfg.host, model);
  const bool tbb = model == CpuModel::kTbb;
  const int nworkers = std::max(1, cfg.cpu_workers);
  HS_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      open_session(options, mandel_host(cfg),
                   2 + static_cast<std::size_t>(nworkers), kNoGpuStages,
                   tbb ? "TBB's token cap and work stealing are host-local"
                       : nullptr));
  Session& s = *session;
  Fabric& fabric = s.cluster.fabric();
  const int src_node = s.place[0];
  const int sink_node = s.place[1];

  ModeledHost source(&s.node_of(0), "source");
  ModeledHost sink(&s.node_of(1), "sink");
  std::vector<std::unique_ptr<ModeledHost>> workers;
  for (int w = 0; w < nworkers; ++w) {
    workers.push_back(std::make_unique<ModeledHost>(
        &s.node_of(2 + static_cast<std::size_t>(w)),
        "worker" + std::to_string(w)));
  }

  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  std::vector<des::TaskId> sink_tasks(static_cast<std::size_t>(dim));
  for (int i = 0; i < dim; ++i) {
    // TBB throttles in-flight items with max_number_of_live_tokens: item i
    // cannot enter before item (i - tokens) has retired at the sink.
    des::TaskId throttle{};
    if (tbb && static_cast<std::size_t>(i) >= cfg.tbb_tokens) {
      throttle = sink_tasks[static_cast<std::size_t>(i) - cfg.tbb_tokens];
    }
    des::TaskId emitted = source.work_after(ovh, throttle);
    s.prof.add(0, static_cast<std::uint64_t>(i), ovh);

    // Worker choice: round-robin (FastFlow/SPar default scheduling) or
    // earliest-available (work stealing evens the load).
    const std::size_t w =
        tbb ? least_loaded(workers.size(),
                           [&](std::size_t k) {
                             return workers[k]->finish_time();
                           })
            : static_cast<std::size_t>(i) % workers.size();
    const int w_node = s.place[2 + w];
    map.render_line(i, std::span<std::uint8_t>(
                           image.data() + static_cast<std::size_t>(i) * dim,
                           static_cast<std::size_t>(dim)));
    des::TaskId arrived =
        fabric.send(src_node, w_node, kDescriptorBytes, emitted, "line");
    const double line_cost = static_cast<double>(map.line_cost(i)) *
                                 cfg.host.seconds_per_mandel_iter +
                             ovh;
    des::TaskId computed = workers[w]->work_after(line_cost, arrived);
    s.prof.add(2 + w, static_cast<std::uint64_t>(i), line_cost);
    des::TaskId delivered = fabric.send(
        w_node, sink_node, static_cast<std::uint64_t>(dim), computed,
        "pixels");
    sink_tasks[static_cast<std::size_t>(i)] =
        sink.work_after(show_cost(cfg.host, dim, 1) + ovh, delivered);
    s.prof.add(1, static_cast<std::uint64_t>(i),
               show_cost(cfg.host, dim, 1) + ovh);
  }

  RunResult out;
  out.label = std::string(mandel::cpu_model_name(model)) + " cpu";
  out.modeled_seconds = sink.finish_time();
  out.checksum = mandel::image_checksum(image);
  return s.finish(std::move(out));
}

Result<RunResult> run_gpu_single_thread(const mandel::IterationMap& map,
                                        const mandel::ModeledConfig& cfg,
                                        GpuApi api, GpuMode mode,
                                        const RunOptions& options) {
  const int dim = map.params().dim;
  const double ovh = enqueue_overhead(cfg.host, api);
  const bool adaptive = cfg.sched == sched::SchedMode::kAdaptive;
  HS_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      open_session(options, mandel_host(cfg), 1, 0,
                   "one host thread drives the GPUs of its own node"));
  Session& s = *session;
  apply_device_knobs(s.cluster, cfg);
  gpusim::Machine& node = s.node_of(0);
  ModeledHost host(&node, "driver");
  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);

  RunResult out;
  if (mode == GpuMode::kPerLine1D || mode == GpuMode::kPerLine2D) {
    // One kernel + one copy + one show per line, all serialized on the
    // default stream of device 0 (the paper's naive port uses one GPU).
    gpusim::Device& dev = node.device(0);
    auto buf = dev.malloc(static_cast<std::uint64_t>(dim));
    if (!buf.ok()) return buf.status();
    auto* dev_row = static_cast<std::uint8_t*>(buf.value());
    for (int i = 0; i < dim; ++i) {
      des::TaskId enq = host.work(2 * ovh);
      perfmodel::stream_wait_host(dev, dev.default_stream(), enq);
      Result<gpusim::OpHandle> launched = InvalidArgument("unset");
      if (mode == GpuMode::kPerLine1D) {
        launched = dev.launch(
            gpusim::Dim3{static_cast<std::uint32_t>((dim + 255) / 256), 1, 1},
            gpusim::Dim3{256, 1, 1}, {}, dev.default_stream(),
            [&map, dev_row, i, dim](const gpusim::ThreadCtx& ctx)
                -> std::uint64_t {
              std::uint64_t j = ctx.global_x();
              if (j < static_cast<std::uint64_t>(dim)) {
                dev_row[j] = map.color(i, static_cast<int>(j));
                return map.lane_cost(i, static_cast<int>(j));
              }
              return 1;
            });
      } else {
        // "2D of threads and blocks" (the paper does not give its exact
        // geometry): a 16x16 block whose FASTEST-varying thread dimension
        // strides across columns (j = base + tx*16 + ty) — the classic
        // pitfall when switching to 2D indexing. Each warp then samples
        // columns spread across a 256-wide tile instead of 32 adjacent
        // ones, so nearly every warp contains a slow (deep-iteration)
        // lane and pays its cost: SIMT divergence destroys the coherence
        // the 1D row mapping gets for free, reproducing the reported ~2x
        // degradation.
        launched = dev.launch(
            gpusim::Dim3{static_cast<std::uint32_t>((dim + 255) / 256), 1, 1},
            gpusim::Dim3{16, 16, 1}, {}, dev.default_stream(),
            [&map, dev_row, i, dim](const gpusim::ThreadCtx& ctx)
                -> std::uint64_t {
              std::uint64_t j =
                  static_cast<std::uint64_t>(ctx.block_idx.x) * 256 +
                  static_cast<std::uint64_t>(ctx.thread_idx.x) * 16 +
                  ctx.thread_idx.y;
              if (j >= static_cast<std::uint64_t>(dim)) return 1;
              dev_row[j] = map.color(i, static_cast<int>(j));
              return map.lane_cost(i, static_cast<int>(j));
            });
      }
      assert(launched.ok());
      auto copied = dev.memcpy_d2h(
          image.data() + static_cast<std::size_t>(i) * dim, dev_row,
          static_cast<std::uint64_t>(dim), dev.default_stream(),
          gpusim::HostMem::kPinned);
      assert(copied.ok());
      host.wait(copied.value().task);
      host.work(show_cost(cfg.host, dim, 1));
    }
    (void)dev.free(buf.value());
  } else {
    // Batched mode with cfg.buffers_per_gpu memory spaces per device. The
    // paper's static schedule assigns batches round-robin across devices,
    // then buffers (§IV-A); the adaptive one picks the least-loaded space.
    const int devices = node.device_count();
    const int nbuf = std::max(1, cfg.buffers_per_gpu);
    std::vector<MemSpace> spaces;
    for (int d = 0; d < devices; ++d) {
      gpusim::Device& dev = node.device(d);
      for (int k = 0; k < nbuf; ++k) {
        MemSpace space;
        space.device = &dev;
        space.stream = k == 0 ? dev.default_stream() : dev.create_stream();
        spaces.push_back(space);
      }
    }

    LineBatcher batcher(cfg, dim);
    const bool overlap_show = nbuf > 1 || devices > 1;
    int first = 0;
    for (int b = 0; first < dim; ++b) {
      const std::size_t slot =
          adaptive ? least_loaded(spaces.size(),
                                  [&](std::size_t k) {
                                    return busy_until(s.cluster, spaces[k]);
                                  })
                   : static_cast<std::size_t>((b % devices) * nbuf +
                                              (b / devices) % nbuf);
      MemSpace& space = spaces[slot];
      HS_ASSIGN_OR_RETURN(const int count, batcher.reserve(space, dim - first));

      // Reusing a space requires its previous transfer to have landed.
      // With multiple memory spaces the host issues the next batch BEFORE
      // displaying the previous one (that is what the extra space buys:
      // "one for copying data and another to perform computations"); the
      // single-space version runs the paper's synchronous loop.
      int to_show_later = 0;
      if (space.last_d2h.valid()) {
        host.wait(space.last_d2h.task);
        if (overlap_show) {
          to_show_later = space.pending_lines;
        } else {
          host.work(show_cost(cfg.host, dim, space.pending_lines));
        }
      }
      des::TaskId enq = host.work(2 * ovh);
      perfmodel::stream_wait_host(*space.device, space.stream, enq);
      const double busy0 = space.device->compute_busy_seconds();
      space.last_d2h = launch_batch(map, space, first, count, image);
      const double busy1 = space.device->compute_busy_seconds();
      space.pending_lines = count;
      if (to_show_later > 0) host.work(show_cost(cfg.host, dim, to_show_later));
      batcher.observe(count, (busy1 - busy0 + 2 * ovh) / count);
      first += count;
    }
    // Drain: wait and show the final batch of every space.
    for (MemSpace& space : spaces) {
      if (space.last_d2h.valid()) {
        host.wait(space.last_d2h.task);
        host.work(show_cost(cfg.host, dim, space.pending_lines));
      }
    }
    out.adaptive_batch_lines = batcher.adaptive_lines();
  }

  out.label = std::string(mandel::gpu_api_name(api));
  switch (mode) {
    case GpuMode::kPerLine1D: out.label += " per-line"; break;
    case GpuMode::kPerLine2D: out.label += " 2d"; break;
    case GpuMode::kBatched:
      if (adaptive) {
        out.label += " adaptive";
      } else {
        out.label += " batch" + std::to_string(cfg.batch_lines);
      }
      if (cfg.buffers_per_gpu > 1) {
        out.label += " x" + std::to_string(cfg.buffers_per_gpu) + "buf";
      }
      if (node.device_count() > 1) {
        out.label += " " + std::to_string(node.device_count()) + "gpu";
      }
      break;
  }
  out.modeled_seconds = std::max(host.finish_time(), s.cluster.makespan());
  out.checksum = mandel::image_checksum(image);
  return s.finish(std::move(out));
}

Result<RunResult> run_combined(const mandel::IterationMap& map,
                               const mandel::ModeledConfig& cfg,
                               CpuModel model, GpuApi api,
                               const RunOptions& options) {
  const int dim = map.params().dim;
  const double movh = item_overhead(cfg.host, model);
  const double govh = enqueue_overhead(cfg.host, api);
  const bool tbb = model == CpuModel::kTbb;
  const bool adaptive = cfg.sched == sched::SchedMode::kAdaptive;
  const int nworkers = std::max(1, cfg.combined_workers);
  HS_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      open_session(options, mandel_host(cfg),
                   2 + static_cast<std::size_t>(nworkers), 2,
                   tbb        ? "TBB's token cap is host-local"
                   : adaptive ? "adaptive dispatch picks among one node's GPUs"
                              : nullptr));
  Session& s = *session;
  ClusterMachine& cluster = s.cluster;
  Fabric& fabric = cluster.fabric();
  apply_device_knobs(cluster, cfg);
  const int src_node = s.place[0];
  const int col_node = s.place[1];

  ModeledHost source(&s.node_of(0), "source");
  ModeledHost collector(&s.node_of(1), "collector");
  std::vector<std::unique_ptr<ModeledHost>> workers;
  for (int w = 0; w < nworkers; ++w) {
    workers.push_back(std::make_unique<ModeledHost>(
        &s.node_of(2 + static_cast<std::size_t>(w)),
        "worker" + std::to_string(w)));
    s.prof.set_binding(2 + static_cast<std::size_t>(w), GpuBinding::kPerItem);
  }

  // Each worker owns one memory space (buffer + stream) per GPU of its
  // node — the paper attaches a cudaStream/cl_command_queue to every
  // stream item; a worker has one item in flight per device at a time, so
  // this is the same concurrency.
  std::vector<std::vector<MemSpace>> spaces(
      static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    gpusim::Machine& node = s.node_of(2 + static_cast<std::size_t>(w));
    for (int d = 0; d < node.device_count(); ++d) {
      MemSpace space;
      space.device = &node.device(d);
      space.stream = space.device->create_stream();
      spaces[static_cast<std::size_t>(w)].push_back(space);
    }
  }
  // Adaptive dispatch: workers still arrive round-robin (the farm
  // emitter), but each batch goes to the globally least-loaded device —
  // the modeled completion time of the last batch enqueued on it — and
  // the worker uses its own memory space there. Per-worker selection would
  // be wrong here: a worker's spaces all start idle, so every worker's
  // first batch would pile onto device 0 while device 1 sat dark.
  std::vector<double> dev_avail(
      static_cast<std::size_t>(s.node_of(2).device_count()), 0.0);

  LineBatcher batcher(cfg, dim);
  std::vector<std::uint8_t> image(static_cast<std::size_t>(dim) * dim);
  std::vector<des::TaskId> collected;
  int first = 0;
  for (int b = 0; first < dim; ++b) {
    des::TaskId throttle{};
    if (tbb && static_cast<std::size_t>(b) >= cfg.tbb_tokens) {
      throttle = collected[static_cast<std::size_t>(b) - cfg.tbb_tokens];
    }
    des::TaskId emitted = source.work_after(movh, throttle);
    s.prof.add(0, static_cast<std::uint64_t>(b), movh);

    const std::size_t w = static_cast<std::size_t>(b % nworkers);
    const int w_node = s.place[2 + w];
    auto& wspaces = spaces[w];
    const std::size_t d =
        adaptive ? least_loaded(dev_avail.size(),
                                [&](std::size_t k) { return dev_avail[k]; })
                 : static_cast<std::size_t>(b) % wspaces.size();
    MemSpace& space = wspaces[d];
    ModeledHost& worker = *workers[w];
    HS_ASSIGN_OR_RETURN(const int count, batcher.reserve(space, dim - first));

    // The worker must not reuse its buffer before the previous transfer
    // finished (the collector synchronizes, but the buffer belongs to the
    // worker's space).
    if (space.last_d2h.valid()) worker.wait(space.last_d2h.task);
    des::TaskId arrived =
        fabric.send(src_node, w_node, kDescriptorBytes, emitted, "batch");
    des::TaskId deps[1] = {arrived};
    worker.work(movh + 2 * govh, deps);
    perfmodel::stream_wait_host(*space.device, space.stream, worker.tail());
    const double busy0 = space.device->compute_busy_seconds();
    space.last_d2h = launch_batch(map, space, first, count, image);
    const double busy1 = space.device->compute_busy_seconds();
    if (adaptive) dev_avail[d] = cluster.finish_time(space.last_d2h.task);
    s.prof.add(2 + w, static_cast<std::uint64_t>(b), movh + 2 * govh,
               busy1 - busy0, s.prof.task_seconds(space.last_d2h.task));

    // Collector: cudaStreamSynchronize / clWaitForEvents, then show.
    des::TaskId delivered = fabric.send(
        w_node, col_node,
        static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim),
        space.last_d2h.task, "pixels");
    collector.wait(delivered);
    collected.push_back(
        collector.work(show_cost(cfg.host, dim, count) + movh));
    s.prof.add(1, static_cast<std::uint64_t>(b),
               show_cost(cfg.host, dim, count) + movh);
    batcher.observe(count, (busy1 - busy0 + 2 * govh) / count);
    first += count;
  }

  RunResult out;
  out.label = std::string(mandel::cpu_model_name(model)) + "+" +
              std::string(mandel::gpu_api_name(api));
  if (adaptive) out.label += " adaptive";
  const int max_dev = max_node_devices(cluster);
  if (max_dev > 1) out.label += " " + std::to_string(max_dev) + "gpu";
  out.modeled_seconds =
      std::max(collector.finish_time(), cluster.makespan());
  out.checksum = mandel::image_checksum(image);
  out.adaptive_batch_lines = batcher.adaptive_lines();
  return s.finish(std::move(out));
}

}  // namespace hs::cluster
