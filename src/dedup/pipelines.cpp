#include "dedup/pipelines.hpp"

#include <chrono>
#include <cstring>
#include <optional>

#include "cudax/cudax.hpp"
#include "cudax/pinned_pool.hpp"
#include "dedup/stages.hpp"
#include "flow/adapters.hpp"
#include "kernels/simd/sha1_ni.hpp"
#include "oclx/oclx.hpp"
#include "spar/spar.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::dedup {

namespace {

kernels::Sha1Digest input_digest(std::span<const std::uint8_t> input) {
  // One whole-input single-stream hash at writer.finish() — this was a
  // third of archive_sequential's runtime on 8MB inputs before the SHA-NI
  // path (EXPERIMENTS.md); same digest either way.
  return kernels::simd::sha1_hash_fast(input);
}

/// Source generator over fixed-size chunks of the input. The Rabin tables
/// are built once here (not per batch), and with a BatchPool attached each
/// new batch reuses a retired batch's slab and vector capacities.
class BatchSource {
 public:
  BatchSource(std::span<const std::uint8_t> input, const DedupConfig& config,
              BatchPool* pool = nullptr)
      : input_(input), config_(config), rabin_(config.rabin), pool_(pool) {}

  std::optional<Batch> operator()() {
    if (offset_ >= input_.size()) return std::nullopt;
    std::size_t n =
        std::min<std::size_t>(config_.batch_size, input_.size() - offset_);
    Batch batch = pool_ != nullptr ? pool_->acquire() : Batch{};
    fragment_batch_into(input_.subspan(offset_, n), index_++, rabin_, batch);
    offset_ += n;
    return batch;
  }

 private:
  std::span<const std::uint8_t> input_;
  DedupConfig config_;
  kernels::Rabin rabin_;
  BatchPool* pool_;
  std::size_t offset_ = 0;
  std::uint64_t index_ = 0;
};

/// Generous upper bound on the archive size: payload (worst case the LZSS
/// 1-bit-per-byte expansion) + per-block record overhead + header/trailer.
std::size_t archive_reserve_bytes(std::size_t input_size) {
  return input_size + input_size / 8 + input_size / 64 + 4096;
}

}  // namespace

Result<std::vector<std::uint8_t>> archive_sequential(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    DupStore* store) {
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  BatchSource source(input, config, &pool);
  while (auto batch = source()) {
    hash_blocks(*batch, store);
    cache.check(*batch);
    compress_blocks_cpu(*batch, config);
    HS_RETURN_IF_ERROR(writer.append(*batch));
    pool.release(std::move(*batch));
  }
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    const SparCpuOptions& options) {
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  Status append_status;

  // Both hot stages lower to (ordered) farms regardless of worker count,
  // so the writer appends batches in stream order.
  spar::StageOptions farm_opts;
  farm_opts.force_farm = true;

  spar::ToStream region("dedup");
  region.source<Batch>(BatchSource(input, config, &pool));
  region.stage<Batch, Batch>(spar::Replicate(options.workers_hash), farm_opts,
                             [store = options.store](Batch batch) {
                               hash_blocks(batch, store);
                               return batch;
                             });
  // The serial duplicate check consumes batches in source order: the
  // container format numbers unique blocks in stream order.
  region.stage<Batch, Batch>([&cache](Batch batch) {
    cache.check(batch);
    return batch;
  });
  region.stage<Batch, Batch>(spar::Replicate(options.workers_compress),
                             farm_opts, [config](Batch batch) {
                               compress_blocks_cpu(batch, config);
                               return batch;
                             });
  region.last_stage<Batch>([&writer, &append_status, &pool](Batch batch) {
    Status s = writer.append(batch);
    if (!s.ok() && append_status.ok()) append_status = s;
    pool.release(std::move(batch));
  });
  HS_RETURN_IF_ERROR(region.run());
  if (!append_status.ok()) return append_status;
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_spar_cpu(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas) {
  SparCpuOptions options;
  options.workers_hash = replicas;
  options.workers_compress = replicas;
  return archive_spar_cpu(input, config, options);
}

namespace {

/// Maps a shim error to the Status the retry layer reasons about.
Status cuda_status(cudax::cudaError e, const char* what) {
  if (e == cudax::cudaError::cudaSuccess) return OkStatus();
  return Status(cudax::error_code_of(e),
                std::string(what) + ": " + cudax::last_error_message());
}

/// Per-replica CUDA context for the GPU stages: a device chosen
/// round-robin by replica id (skipping lost devices), a stream, and scratch
/// device buffers sized on demand.
///
/// run() owns the degradation ladder shared by both GPU stages: retry the
/// whole per-batch device pass on transient errors, migrate to a surviving
/// device when the current one is lost, and report the final failure so
/// the caller can run the equivalent CPU stage instead.
class CudaStageContext {
 public:
  CudaStageContext(gpusim::Machine* machine, int replica_id, RetryStats* stats,
                   const RetryPolicy& policy,
                   sched::DeviceLoadTracker* tracker = nullptr)
      : machine_(machine), replica_(replica_id), stats_(stats),
        policy_(policy), tracker_(tracker),
        backoff_(policy,
                 0x646564757Aull + static_cast<std::uint64_t>(replica_id)) {}

  /// Retry delay hook: decorrelated jitter, restarted per operation.
  auto jitter_delay() {
    return [this](int retry_index) { backoff_.wait(retry_index); };
  }

  /// Runs `gpu_pass` (the complete per-batch device sequence, returning
  /// Status; must be idempotent) under the retry policy, migrating across
  /// devices on loss. On failure the caller degrades to the CPU stage.
  template <typename F>
  Status run(std::string_view label, F&& gpu_pass) {
    if (tracker_ != nullptr) return run_adaptive(label, gpu_pass);
    if (!ready_ && !try_setup(device_ >= 0 ? device_ : replica_)) {
      return Unavailable("no usable CUDA device");
    }
    while (true) {
      (void)cudax::cudaSetDevice(device_);
      Status s =
          retry_status(policy_, stats_, label, gpu_pass, jitter_delay());
      if (s.ok() || s.code() != ErrorCode::kUnavailable) return s;
      // Device lost: its allocations are gone; migrate to a survivor.
      if (stats_ != nullptr) {
        stats_->device_losses.fetch_add(1, std::memory_order_relaxed);
      }
      buffers_.clear();
      ready_ = false;
      if (!try_setup(device_ + 1)) return s;
      if (stats_ != nullptr) {
        stats_->device_switches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Adaptive variant: the device is re-chosen per batch through the
  /// tracker (sticky unless another device is idle or ours is lost),
  /// service time feeds the EWMA, and a lost device is excluded for every
  /// worker at once.
  template <typename F>
  Status run_adaptive(std::string_view label, F&& gpu_pass) {
    const int want = tracker_->acquire_preferring(device_);
    if (want < 0) return Unavailable("all CUDA devices excluded");
    if (ready_ && want != device_) {
      // Voluntary rebind (steal): release scratch on the old, still-live
      // device before moving.
      (void)cudax::cudaSetDevice(device_);
      for (auto& buf : buffers_) {
        if (buf.ptr != nullptr) (void)cudax::cudaFree(buf.ptr);
      }
      buffers_.clear();
      ready_ = false;
    }
    if (!ready_ && !try_setup(want)) {
      tracker_->abandon(want);
      return Unavailable("no usable CUDA device");
    }
    int charged = want;
    if (device_ != charged) {
      tracker_->transfer(charged, device_);
      charged = device_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      (void)cudax::cudaSetDevice(device_);
      Status s =
          retry_status(policy_, stats_, label, gpu_pass, jitter_delay());
      if (s.ok()) {
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        tracker_->release(charged, dt.count());
        return s;
      }
      if (s.code() != ErrorCode::kUnavailable) {
        tracker_->abandon(charged);
        return s;
      }
      if (stats_ != nullptr) {
        stats_->device_losses.fetch_add(1, std::memory_order_relaxed);
      }
      tracker_->exclude(device_);
      buffers_.clear();
      ready_ = false;
      const int next = tracker_->acquire_preferring(-1);
      if (next >= 0) tracker_->abandon(next);  // only a routing hint
      if (next < 0 || !try_setup(next)) {
        tracker_->abandon(charged);
        return s;
      }
      tracker_->transfer(charged, device_);
      charged = device_;
      if (stats_ != nullptr) {
        stats_->device_switches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Device scratch of at least `bytes`; grows geometrically.
  Result<void*> scratch(std::size_t slot, std::size_t bytes) {
    if (slot >= buffers_.size()) buffers_.resize(slot + 1);
    auto& buf = buffers_[slot];
    if (buf.size < bytes) {
      if (buf.ptr != nullptr) (void)cudax::cudaFree(buf.ptr);
      std::size_t want = std::max(bytes, buf.size * 2);
      buf.ptr = nullptr;
      buf.size = 0;
      if (cudax::cudaError e = cudax::cudaMalloc(&buf.ptr, want);
          e != cudax::cudaError::cudaSuccess) {
        return Status(cudax::error_code_of(e),
                      "device scratch allocation failed: " +
                          cudax::last_error_message());
      }
      buf.size = want;
    }
    return buf.ptr;
  }

  void release() {
    if (stream_device_ >= 0) {
      (void)cudax::cudaStreamDestroy(stream_);
      stream_device_ = -1;
    }
    if (!ready_) return;
    (void)cudax::cudaSetDevice(device_);
    for (auto& buf : buffers_) {
      if (buf.ptr != nullptr) (void)cudax::cudaFree(buf.ptr);
    }
    buffers_.clear();
  }

  [[nodiscard]] cudax::cudaStream_t stream() const { return stream_; }
  [[nodiscard]] int device() const { return device_; }

 private:
  /// Binds to the first surviving device at or after `hint`. A device that
  /// dies during setup is skipped (and, in adaptive mode, excluded
  /// tracker-wide); false means CPU-only from here on.
  bool try_setup(int hint) {
    int start = hint < 0 ? 0 : hint;
    while (true) {
      const int d = gpusim::pick_surviving_device(*machine_, start);
      if (d < 0) return false;
      Status s = retry_status(policy_, stats_, "dedup.setup",
                              [&] { return setup_on(d); }, jitter_delay());
      if (s.ok()) {
        device_ = d;
        ready_ = true;
        return true;
      }
      if (s.code() == ErrorCode::kUnavailable) {
        if (tracker_ != nullptr) tracker_->exclude(d);
        start = d + 1;
        continue;
      }
      return false;
    }
  }

  Status setup_on(int d) {
    Status s = cuda_status(cudax::cudaSetDevice(d), "cudaSetDevice failed");
    if (!s.ok()) return s;
    // One stream per device binding; re-setup after a migration destroys
    // the previous stream (best effort on a lost device) rather than
    // leaking one simulated stream per attempt.
    if (stream_device_ == d) return OkStatus();
    if (stream_device_ >= 0) (void)cudax::cudaStreamDestroy(stream_);
    stream_device_ = -1;
    s = cuda_status(cudax::cudaStreamCreate(&stream_),
                    "cudaStreamCreate failed");
    if (s.ok()) stream_device_ = d;
    return s;
  }

  struct Scratch {
    void* ptr = nullptr;
    std::size_t size = 0;
  };
  gpusim::Machine* machine_;
  int replica_;
  RetryStats* stats_;
  RetryPolicy policy_;
  sched::DeviceLoadTracker* tracker_ = nullptr;
  BackoffSequence backoff_;
  int device_ = -1;
  int stream_device_ = -1;  ///< device the live stream_ was created on
  bool ready_ = false;
  cudax::cudaStream_t stream_{};
  std::vector<Scratch> buffers_;
};

/// SHA-1 stage on the simulated GPU: one thread per block (paper stage 2).
/// On unrecoverable device failure the batch is hashed by the CPU stage
/// function instead — same digests, so the archive is unchanged.
class CudaHashWorker final : public flow::Node {
 public:
  CudaHashWorker(gpusim::Machine* machine, RetryStats* stats,
                 RetryPolicy policy,
                 sched::DeviceLoadTracker* tracker = nullptr)
      : machine_(machine), stats_(stats), policy_(policy), tracker_(tracker) {}

  void on_init(int replica_id) override {
    ctx_ = std::make_unique<CudaStageContext>(machine_, replica_id, stats_,
                                              policy_, tracker_);
  }

  flow::SvcResult svc(flow::Item in) override {
    Batch batch = in.take<Batch>();
    const std::size_t nblocks = batch.blocks.size();
    if (nblocks == 0) {
      return flow::SvcResult::Out(flow::Item::of<Batch>(std::move(batch)));
    }
    // Digest staging from the pinned pool (fast simulated transfers, no
    // per-batch allocation); pageable member fallback when pinned memory
    // is unavailable.
    const std::size_t need = nblocks * 20;
    if (staging_.capacity() < need) {
      staging_ = cudax::PinnedPool::Default().acquire(need);
    }
    std::uint8_t* digests;
    if (staging_.valid()) {
      digests = staging_.data();
    } else {
      if (fallback_.size() < need) fallback_.resize(need);
      digests = fallback_.data();
    }
    Status s = ctx_->run("dedup.sha1",
                         [&] { return hash_pass(batch, digests); });
    if (!s.ok()) {
      hash_blocks(batch);  // bit-exact CPU stage
      if (stats_ != nullptr) {
        stats_->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
      return flow::SvcResult::Out(flow::Item::of<Batch>(std::move(batch)));
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::copy(digests + b * 20, digests + b * 20 + 20,
                batch.blocks[b].digest.begin());
    }
    return flow::SvcResult::Out(flow::Item::of<Batch>(std::move(batch)));
  }

  void on_end() override {
    if (ctx_) ctx_->release();
    staging_.release();
  }

 private:
  /// One device pass: upload, hash kernel, download. Idempotent.
  Status hash_pass(Batch& batch, std::uint8_t* digests) {
    telemetry::SpanRecorder* tracer = telemetry::tracer();
    const std::size_t nblocks = batch.blocks.size();
    auto data_buf = ctx_->scratch(0, batch.data.size());
    if (!data_buf.ok()) return data_buf.status();
    auto digest_buf = ctx_->scratch(1, nblocks * 20);
    if (!digest_buf.ok()) return digest_buf.status();
    Status s;
    {
      telemetry::ScopedSpan span(tracer, "dedup.sha1.h2d");
      s = cuda_status(
          cudax::cudaMemcpyAsync(data_buf.value(), batch.data.data(),
                                 batch.data.size(),
                                 cudax::cudaMemcpyKind::cudaMemcpyHostToDevice,
                                 ctx_->stream()),
          "h2d failed");
    }
    if (!s.ok()) return s;

    auto* dev_data = static_cast<const std::uint8_t*>(data_buf.value());
    auto* dev_digests = static_cast<std::uint8_t*>(digest_buf.value());
    const Batch* batch_ptr = &batch;
    {
      telemetry::ScopedSpan span(tracer, "dedup.sha1.kernel");
      s = cuda_status(
          cudax::launch_kernel(
              cudax::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64), 1,
                          1},
              cudax::Dim3{64, 1, 1}, ctx_->stream(),
              [batch_ptr, dev_data, dev_digests,
               nblocks](const cudax::ThreadCtx& tc) -> std::uint64_t {
                std::uint64_t b = tc.global_x();
                if (b >= nblocks) return 1;
                const BlockInfo& block = batch_ptr->blocks[b];
                auto digest = kernels::Sha1::hash(std::span<const std::uint8_t>(
                    dev_data + block.start, block.len));
                std::copy(digest.begin(), digest.end(), dev_digests + b * 20);
                // Lane cost: SHA-1 rounds of this block (divergence across
                // the warp comes from variable rabin block sizes).
                return kernels::Sha1::compression_rounds(block.len) * 100;
              }),
          "hash kernel failed");
    }
    if (!s.ok()) return s;
    {
      telemetry::ScopedSpan span(tracer, "dedup.sha1.d2h");
      s = cuda_status(
          cudax::cudaMemcpyAsync(digests, dev_digests, nblocks * 20,
                                 cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost,
                                 ctx_->stream()),
          "d2h failed");
    }
    if (!s.ok()) return s;
    telemetry::ScopedSpan span(tracer, "dedup.sha1.sync");
    return cuda_status(cudax::cudaStreamSynchronize(ctx_->stream()),
                       "stream synchronize failed");
  }

  gpusim::Machine* machine_;
  RetryStats* stats_;
  RetryPolicy policy_;
  sched::DeviceLoadTracker* tracker_ = nullptr;
  std::unique_ptr<CudaStageContext> ctx_;
  cudax::PinnedPool::Handle staging_;
  std::vector<std::uint8_t> fallback_;
};

/// FindMatch + compress stage on the simulated GPU (paper stage 4,
/// Listing 3): one thread per batch position, matches copied back, encode
/// walk on the CPU.
class CudaCompressWorker final : public flow::Node {
 public:
  CudaCompressWorker(gpusim::Machine* machine, const DedupConfig& config,
                     RetryStats* stats, RetryPolicy policy,
                     sched::DeviceLoadTracker* tracker = nullptr)
      : machine_(machine), config_(config), stats_(stats), policy_(policy),
        tracker_(tracker) {}

  void on_init(int replica_id) override {
    ctx_ = std::make_unique<CudaStageContext>(machine_, replica_id, stats_,
                                              policy_, tracker_);
  }

  flow::SvcResult svc(flow::Item in) override {
    Batch batch = in.take<Batch>();
    const std::size_t n = batch.data.size();
    if (n == 0) {
      return flow::SvcResult::Out(flow::Item::of<Batch>(std::move(batch)));
    }
    Status s = ctx_->run("dedup.lzss", [&] { return match_pass(batch); });
    if (s.ok()) {
      compress_blocks_from_matches(batch, config_);
    } else {
      // Bit-exact CPU stage (direct LZSS, no precomputed match table).
      batch.matches.clear();
      compress_blocks_cpu(batch, config_);
      if (stats_ != nullptr) {
        stats_->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    batch.matches.clear();
    return flow::SvcResult::Out(flow::Item::of<Batch>(std::move(batch)));
  }

  void on_end() override {
    if (ctx_) ctx_->release();
    staging_.release();
  }

 private:
  /// One device pass: upload, FindMatch kernel, download match table.
  /// Idempotent (matches are rewritten wholesale).
  Status match_pass(Batch& batch) {
    telemetry::SpanRecorder* tracer = telemetry::tracer();
    const std::size_t n = batch.data.size();
    auto data_buf = ctx_->scratch(0, n);
    if (!data_buf.ok()) return data_buf.status();
    auto match_buf = ctx_->scratch(1, n * sizeof(kernels::LzssMatch));
    if (!match_buf.ok()) return match_buf.status();
    // "This stage reuses data already on GPU" in the paper; workers here
    // are distinct replicas, so the transfer is repeated — the modeled
    // runners account for the reuse optimization explicitly.
    Status s;
    {
      telemetry::ScopedSpan span(tracer, "dedup.lzss.h2d");
      s = cuda_status(
          cudax::cudaMemcpyAsync(data_buf.value(), batch.data.data(), n,
                                 cudax::cudaMemcpyKind::cudaMemcpyHostToDevice,
                                 ctx_->stream()),
          "h2d failed");
    }
    if (!s.ok()) return s;
    auto* dev_data = static_cast<const std::uint8_t*>(data_buf.value());
    auto* dev_matches = static_cast<kernels::LzssMatch*>(match_buf.value());
    const Batch* batch_ptr = &batch;
    const kernels::LzssParams lzss = config_.lzss;
    {
      telemetry::ScopedSpan span(tracer, "dedup.lzss.kernel");
      s = cuda_status(
          cudax::launch_kernel(
              cudax::Dim3{static_cast<std::uint32_t>((n + 255) / 256), 1, 1},
              cudax::Dim3{256, 1, 1}, ctx_->stream(),
              [batch_ptr, dev_data, dev_matches, n,
               lzss](const cudax::ThreadCtx& tc) -> std::uint64_t {
                std::uint64_t pos = tc.global_x();
                if (pos >= n) return 1;
                // Listing 3: locate the block containing `pos` from
                // startPos.
                const auto& starts = batch_ptr->start_pos;
                std::size_t lo = 0, hi = starts.size();
                while (lo + 1 < hi) {
                  std::size_t mid = (lo + hi) / 2;
                  if (starts[mid] <= pos) lo = mid;
                  else hi = mid;
                }
                std::size_t bstart = starts[lo];
                std::size_t bend = lo + 1 < starts.size() ? starts[lo + 1] : n;
                dev_matches[pos] = kernels::lzss_longest_match(
                    std::span<const std::uint8_t>(dev_data, n), bstart, bend,
                    pos, lzss);
                return kernels::lzss_match_cost(bstart, pos, lzss) * 2;
              }),
          "FindMatch kernel failed");
    }
    if (!s.ok()) return s;
    // Match table comes back through a pinned staging slab when available
    // (pool hit in the steady state); the matches vector keeps its
    // capacity across recycled batches either way.
    const std::size_t bytes = n * sizeof(kernels::LzssMatch);
    if (staging_.capacity() < bytes) {
      staging_ = cudax::PinnedPool::Default().acquire(bytes);
    }
    batch.matches.resize(n);
    void* dst = staging_.valid() ? static_cast<void*>(staging_.data())
                                 : static_cast<void*>(batch.matches.data());
    {
      telemetry::ScopedSpan span(tracer, "dedup.lzss.d2h");
      s = cuda_status(
          cudax::cudaMemcpyAsync(dst, dev_matches, bytes,
                                 cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost,
                                 ctx_->stream()),
          "d2h failed");
    }
    if (!s.ok()) return s;
    {
      telemetry::ScopedSpan span(tracer, "dedup.lzss.sync");
      s = cuda_status(cudax::cudaStreamSynchronize(ctx_->stream()),
                      "stream synchronize failed");
    }
    if (!s.ok()) return s;
    if (staging_.valid()) {
      std::memcpy(batch.matches.data(), staging_.data(), bytes);
    }
    return OkStatus();
  }

  gpusim::Machine* machine_;
  DedupConfig config_;
  RetryStats* stats_;
  RetryPolicy policy_;
  sched::DeviceLoadTracker* tracker_ = nullptr;
  std::unique_ptr<CudaStageContext> ctx_;
  cudax::PinnedPool::Handle staging_;
};

}  // namespace

Result<std::vector<std::uint8_t>> archive_spar_cuda(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    int replicas, gpusim::Machine& machine, RetryStats* stats,
    const RetryPolicy& policy, sched::DeviceLoadTracker* tracker,
    flow::FailureReport* failures) {
  if (machine.device_count() == 0) {
    return InvalidArgument("machine has no devices");
  }
  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  Status append_status;

  spar::ToStream region("dedup-cuda");
  region.source<Batch>(BatchSource(input, config, &pool));
  region.stage_nodes(spar::Replicate(replicas),
                     [&machine, stats, policy, tracker] {
    return std::make_unique<CudaHashWorker>(&machine, stats, policy, tracker);
  });
  region.stage<Batch, Batch>([&cache](Batch batch) {
    cache.check(batch);
    return batch;
  });
  region.stage_nodes(spar::Replicate(replicas),
                     [&machine, config, stats, policy, tracker] {
    return std::make_unique<CudaCompressWorker>(&machine, config, stats,
                                                policy, tracker);
  });
  region.last_stage<Batch>([&writer, &append_status, &pool](Batch batch) {
    Status s = writer.append(batch);
    if (!s.ok() && append_status.ok()) append_status = s;
    pool.release(std::move(batch));
  });
  Status run_status = region.run();
  if (failures != nullptr) *failures = region.failure_report();
  HS_RETURN_IF_ERROR(run_status);
  if (!append_status.ok()) return append_status;
  return writer.finish(input_digest(input));
}

Result<std::vector<std::uint8_t>> archive_opencl_single_thread(
    std::span<const std::uint8_t> input, const DedupConfig& config,
    gpusim::Machine& machine, bool batched_kernel) {
  auto platforms = oclx::Platform::get(&machine);
  if (platforms.empty()) return NotFound("no OpenCL platform");
  auto devices = platforms[0].devices();
  auto ctx = oclx::Context::create(devices);
  if (!ctx.ok()) return ctx.status();
  auto queue = oclx::CommandQueue::create(ctx.value(), devices[0]);
  if (!queue.ok()) return queue.status();

  ArchiveWriter writer(config);
  writer.reserve(archive_reserve_bytes(input.size()));
  DupCache cache;
  BatchPool pool;
  BatchSource source(input, config, &pool);
  const kernels::LzssParams lzss = config.lzss;
  telemetry::SpanRecorder* tracer = telemetry::tracer();

  while (auto maybe_batch = source()) {
    Batch batch = std::move(*maybe_batch);
    const std::size_t n = batch.data.size();
    auto data_buf = oclx::Buffer::create(ctx.value(), devices[0], n);
    if (!data_buf.ok()) return data_buf.status();
    {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.h2d");
      if (queue.value().enqueue_write(data_buf.value(), 0, batch.data.data(),
                                      n, /*blocking=*/false, nullptr) !=
          oclx::ClStatus::kSuccess) {
        return Internal("write failed: " + queue.value().last_error());
      }
    }

    // Stage 2: SHA-1 on device, one work-item per block. Kernel results
    // are written through mapped host pointers here; the modeled runners
    // (dedup/modeled.hpp) account for the device->host result transfers
    // explicitly.
    auto* dev_data = static_cast<const std::uint8_t*>(data_buf.value().data());
    const Batch* batch_ptr = &batch;
    const std::size_t nblocks = batch.blocks.size();
    std::vector<kernels::Sha1Digest> digests(nblocks);
    auto* digests_ptr = digests.data();
    oclx::Kernel sha_kernel = oclx::Kernel::create(
        "sha1_blocks",
        [batch_ptr, dev_data, digests_ptr,
         nblocks](const oclx::ThreadCtx& tc) -> std::uint64_t {
          std::uint64_t b = tc.global_x();
          if (b >= nblocks) return 1;
          const BlockInfo& block = batch_ptr->blocks[b];
          digests_ptr[b] = kernels::Sha1::hash(std::span<const std::uint8_t>(
              dev_data + block.start, block.len));
          return kernels::Sha1::compression_rounds(block.len) * 100;
        });
    {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.sha1.kernel");
      if (queue.value().enqueue_ndrange(
              sha_kernel,
              oclx::Dim3{static_cast<std::uint32_t>((nblocks + 63) / 64 * 64),
                         1, 1},
              oclx::Dim3{64, 1, 1}, nullptr) != oclx::ClStatus::kSuccess) {
        return Internal("sha kernel failed: " + queue.value().last_error());
      }
      if (!queue.value().finish().ok()) return Internal("finish failed");
    }
    for (std::size_t b = 0; b < nblocks; ++b) {
      batch.blocks[b].digest = digests[b];
    }

    // Stage 3: serial duplicate check.
    cache.check(batch);

    // Stage 4: FindMatch on device (one kernel per batch, or the
    // pre-optimization one kernel per block), then CPU encode walk.
    batch.matches.assign(n, kernels::LzssMatch{});
    auto* matches_ptr = batch.matches.data();
    auto run_find = [&](std::size_t bstart, std::size_t bend) -> Status {
      std::size_t span_len = bend - bstart;
      oclx::Kernel find_kernel = oclx::Kernel::create(
          "find_match",
          [batch_ptr, dev_data, matches_ptr, n, lzss, bstart,
           bend](const oclx::ThreadCtx& tc) -> std::uint64_t {
            std::uint64_t pos = bstart + tc.global_x();
            if (pos >= bend) return 1;
            const auto& starts = batch_ptr->start_pos;
            std::size_t lo = 0, hi = starts.size();
            while (lo + 1 < hi) {
              std::size_t mid = (lo + hi) / 2;
              if (starts[mid] <= pos) lo = mid;
              else hi = mid;
            }
            std::size_t bs = starts[lo];
            std::size_t be = lo + 1 < starts.size() ? starts[lo + 1] : n;
            matches_ptr[pos] = kernels::lzss_longest_match(
                std::span<const std::uint8_t>(dev_data, n), bs, be, pos,
                lzss);
            return kernels::lzss_match_cost(bs, pos, lzss) * 2;
          });
      if (queue.value().enqueue_ndrange(
              find_kernel,
              oclx::Dim3{
                  static_cast<std::uint32_t>((span_len + 255) / 256 * 256), 1,
                  1},
              oclx::Dim3{256, 1, 1}, nullptr) != oclx::ClStatus::kSuccess) {
        return Internal("find kernel failed: " + queue.value().last_error());
      }
      return OkStatus();
    };
    if (n > 0) {
      telemetry::ScopedSpan span(tracer, "dedup.ocl.lzss.kernel");
      if (batched_kernel) {
        if (Status s = run_find(0, n); !s.ok()) return s;
      } else {
        for (std::size_t k = 0; k < batch.start_pos.size(); ++k) {
          std::size_t bs = batch.start_pos[k];
          std::size_t be =
              k + 1 < batch.start_pos.size() ? batch.start_pos[k + 1] : n;
          if (Status s = run_find(bs, be); !s.ok()) return s;
        }
      }
      if (!queue.value().finish().ok()) return Internal("finish failed");
    }
    compress_blocks_from_matches(batch, config);
    batch.matches.clear();

    // Stage 5: write.
    if (Status s = writer.append(batch); !s.ok()) return s;
    pool.release(std::move(batch));
  }
  return writer.finish(input_digest(input));
}

}  // namespace hs::dedup
