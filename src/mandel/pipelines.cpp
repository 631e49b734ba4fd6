#include "mandel/pipelines.hpp"

#include <chrono>
#include <cstring>
#include <optional>

#include "cudax/cudax.hpp"
#include "cudax/pinned_pool.hpp"
#include "flow/adapters.hpp"
#include "flow/pipeline.hpp"
#include "oclx/oclx.hpp"
#include "spar/spar.hpp"
#include "taskx/pipeline.hpp"
#include "taskx/pool.hpp"
#include "telemetry/span_recorder.hpp"

namespace hs::mandel {

namespace {

/// One stream item: a rendered fractal line.
struct Line {
  int index = 0;
  std::vector<std::uint8_t> pixels;
};

std::vector<std::uint8_t> make_image(int dim) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(dim) *
                                   static_cast<std::size_t>(dim));
}

void store_line(std::vector<std::uint8_t>& image, int dim, const Line& line) {
  std::copy(line.pixels.begin(), line.pixels.end(),
            image.begin() + static_cast<std::size_t>(line.index) * dim);
}

}  // namespace

std::vector<std::uint8_t> render_sequential(const MandelParams& params) {
  auto image = make_image(params.dim);
  for (int i = 0; i < params.dim; ++i) {
    kernels::mandel_line(
        params, i,
        std::span<std::uint8_t>(
            image.data() + static_cast<std::size_t>(i) * params.dim,
            static_cast<std::size_t>(params.dim)));
  }
  return image;
}

Result<std::vector<std::uint8_t>> render_flow(const MandelParams& params,
                                              int workers) {
  auto image = make_image(params.dim);
  flow::Pipeline pipe;
  pipe.add_stage(flow::make_source<Line>(
                     [i = 0, &params]() mutable -> std::optional<Line> {
                       if (i >= params.dim) return std::nullopt;
                       return Line{i++, {}};
                     }),
                 "source");
  pipe.add_farm(
      [&params] {
        return flow::make_stage<Line, Line>([&params](Line line) {
          line.pixels.resize(static_cast<std::size_t>(params.dim));
          kernels::mandel_line(params, line.index, line.pixels);
          return line;
        });
      },
      flow::FarmOptions{.replicas = workers, .ordered = true}, "compute");
  pipe.add_stage(flow::make_sink<Line>([&image, &params](Line line) {
                   store_line(image, params.dim, line);
                 }),
                 "show");
  HS_RETURN_IF_ERROR(pipe.run_and_wait());
  return image;
}

Result<std::vector<std::uint8_t>> render_taskx(const MandelParams& params,
                                               int workers,
                                               std::size_t max_tokens) {
  auto image = make_image(params.dim);
  taskx::ThreadPool pool(static_cast<unsigned>(workers));
  taskx::Pipeline pipe([i = 0, &params]() mutable
                           -> std::optional<taskx::Item> {
    if (i >= params.dim) return std::nullopt;
    return taskx::Item::of<Line>(Line{i++, {}});
  });
  pipe.add_filter(
      taskx::FilterMode::kParallel,
      [&params](taskx::Item item) {
        Line line = item.take<Line>();
        line.pixels.resize(static_cast<std::size_t>(params.dim));
        kernels::mandel_line(params, line.index, line.pixels);
        return taskx::Item::of<Line>(std::move(line));
      },
      "compute");
  pipe.add_filter(
      taskx::FilterMode::kSerialInOrder,
      [&image, &params](taskx::Item item) {
        store_line(image, params.dim, item.as<Line>());
        return item;
      },
      "store");
  HS_RETURN_IF_ERROR(pipe.run(pool, max_tokens));
  return image;
}

Result<std::vector<std::uint8_t>> render_spar(const MandelParams& params,
                                              int workers) {
  auto image = make_image(params.dim);
  spar::ToStream region("mandel");
  region.source<Line>([i = 0, &params]() mutable -> std::optional<Line> {
    if (i >= params.dim) return std::nullopt;
    return Line{i++, {}};
  });
  region.stage<Line, Line>(spar::Replicate(workers), [&params](Line line) {
    line.pixels.resize(static_cast<std::size_t>(params.dim));
    kernels::mandel_line(params, line.index, line.pixels);
    return line;
  });
  region.last_stage<Line>([&image, &params](Line line) {
    store_line(image, params.dim, line);
  });
  HS_RETURN_IF_ERROR(region.run());
  return image;
}

namespace {

/// Maps a shim error to the Status the retry layer reasons about.
Status cuda_status(cudax::cudaError e, const char* what) {
  if (e == cudax::cudaError::cudaSuccess) return OkStatus();
  return Status(cudax::error_code_of(e),
                std::string(what) + ": " + cudax::last_error_message());
}

/// SPar middle-stage worker offloading to the CUDA shim. Owns a per-thread
/// stream on a round-robin-chosen device; cudaSetDevice is called from
/// on_init because its effect is thread-local (§IV-A).
///
/// Degradation ladder per item: retry transient errors on the current
/// device, migrate to a surviving device when the current one is lost, and
/// compute the line on the CPU when no device remains usable. Every rung
/// produces the same bytes, so the image is bit-exact under any fault
/// sequence.
class CudaLineWorker final : public flow::Node {
 public:
  CudaLineWorker(const MandelParams& params, gpusim::Machine* machine,
                 RetryStats* stats, RetryPolicy policy,
                 sched::DeviceLoadTracker* tracker = nullptr)
      : params_(params),
        machine_(machine),
        stats_(stats),
        policy_(policy),
        tracker_(tracker) {}

  void on_init(int replica_id) override {
    replica_ = replica_id;
    // Per-replica jitter stream: decorrelated retry delays so replicas that
    // hit the same fault burst do not re-collide in lockstep.
    backoff_ = BackoffSequence(
        policy_, 0x6d616e64656cull + static_cast<std::uint64_t>(replica_id));
    // Adaptive mode defers device choice to the tracker on the first item;
    // static mode keeps the paper's per-replica round-robin binding.
    if (tracker_ == nullptr) (void)try_setup(replica_id);
  }

  flow::SvcResult svc(flow::Item in) override {
    Line line = in.take<Line>();
    line.pixels.resize(static_cast<std::size_t>(params_.dim));
    if (Status s = render_line(line); !s.ok()) {
      // Final rung: the bit-exact CPU kernel.
      kernels::mandel_line(params_, line.index, line.pixels);
      if (stats_ != nullptr) {
        stats_->cpu_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return flow::SvcResult::Out(flow::Item::of<Line>(std::move(line)));
  }

  void on_end() override {
    if (gpu_ready_ && dev_row_ != nullptr) {
      (void)cudax::cudaSetDevice(device_);
      (void)cudax::cudaFree(dev_row_);
      dev_row_ = nullptr;
    }
    if (stream_device_ >= 0) {
      (void)cudax::cudaStreamDestroy(stream_);
      stream_device_ = -1;
    }
    staging_.release();
  }

 private:
  /// Retry delay hook: decorrelated jitter, restarted per operation.
  auto jitter_delay() {
    return [this](int retry_index) { backoff_.wait(retry_index); };
  }

  Status render_line(Line& line) {
    if (tracker_ != nullptr) return render_line_adaptive(line);
    if (!gpu_ready_ && !try_setup(device_ >= 0 ? device_ : replica_)) {
      return Unavailable("no usable CUDA device");
    }
    while (true) {
      Status s = retry_status(policy_, stats_, "mandel.line",
                              [&] { return gpu_line_once(line); },
                              jitter_delay());
      if (s.ok() || s.code() != ErrorCode::kUnavailable) return s;
      // The device died under us: drop it and migrate. pick_surviving_device
      // skips lost devices, so this loop visits each device at most once.
      if (stats_ != nullptr) {
        stats_->device_losses.fetch_add(1, std::memory_order_relaxed);
      }
      gpu_ready_ = false;
      dev_row_ = nullptr;  // allocation is gone with the device
      if (!try_setup(device_ + 1)) return s;
      if (stats_ != nullptr) {
        stats_->device_switches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Adaptive routing: ask the tracker for the least-loaded device (sticky
  /// to the current binding unless another device is idle or ours is gone),
  /// feed its EWMA with the observed service time, and exclude lost devices
  /// so queued lines drain through the survivors.
  Status render_line_adaptive(Line& line) {
    const int want = tracker_->acquire_preferring(device_);
    if (want < 0) return Unavailable("all CUDA devices excluded");
    if (!gpu_ready_ || want != device_) {
      if (!try_setup(want)) {
        tracker_->abandon(want);
        return Unavailable("no usable CUDA device");
      }
    }
    int charged = want;  // device carrying the in-flight unit
    if (device_ != charged) {
      tracker_->transfer(charged, device_);
      charged = device_;
    }
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      Status s = retry_status(policy_, stats_, "mandel.line",
                              [&] { return gpu_line_once(line); },
                              jitter_delay());
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
      gpu_ready_ = false;
      dev_row_ = nullptr;  // allocation is gone with the device
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

  /// One GPU pass over the line: launch, D2H copy, synchronize. Idempotent
  /// (the kernel rewrites the whole row), so safe to re-run on retry.
  Status gpu_line_once(Line& line) {
    telemetry::SpanRecorder* tracer = telemetry::tracer();
    const MandelParams p = params_;
    const int i = line.index;
    auto* dev_row = static_cast<std::uint8_t*>(dev_row_);
    Status s;
    {
      telemetry::ScopedSpan span(tracer, "mandel.kernel");
      s = cuda_status(
          cudax::launch_kernel(
              cudax::Dim3{static_cast<std::uint32_t>((p.dim + 255) / 256), 1,
                          1},
              cudax::Dim3{256, 1, 1}, stream_,
              [p, i, dev_row](const cudax::ThreadCtx& ctx) -> std::uint64_t {
                std::uint64_t j = ctx.global_x();
                if (j >= static_cast<std::uint64_t>(p.dim)) return 1;
                int k = kernels::mandel_iterations(p, i, static_cast<int>(j));
                dev_row[j] = kernels::mandel_color(k, p.niter);
                return static_cast<std::uint64_t>(k) + 1;
              }),
          "kernel launch failed");
    }
    if (!s.ok()) return s;
    // D2H lands in a pinned staging row from the shared pool (fast
    // simulated transfer, no per-line pinned allocation); when pinned
    // memory is unavailable the copy targets the pageable vector directly.
    const std::size_t row_bytes = static_cast<std::size_t>(p.dim);
    if (staging_.capacity() < row_bytes) {
      staging_ = cudax::PinnedPool::Default().acquire(row_bytes);
    }
    std::uint8_t* dst =
        staging_.valid() ? staging_.data() : line.pixels.data();
    {
      telemetry::ScopedSpan span(tracer, "mandel.d2h");
      s = cuda_status(
          cudax::cudaMemcpyAsync(dst, dev_row_, row_bytes,
                                 cudax::cudaMemcpyKind::cudaMemcpyDeviceToHost,
                                 stream_),
          "memcpy failed");
    }
    if (!s.ok()) return s;
    // The real implementation forwards the item with its stream and lets
    // the last stage synchronize; functionally the simulated copy has
    // already landed, and the virtual completion is the stream's tail.
    {
      telemetry::ScopedSpan span(tracer, "mandel.sync");
      s = cuda_status(cudax::cudaStreamSynchronize(stream_),
                      "stream synchronize failed");
    }
    if (!s.ok()) return s;
    if (staging_.valid()) {
      std::memcpy(line.pixels.data(), staging_.data(), row_bytes);
    }
    return OkStatus();
  }

  /// Binds this thread to the first surviving device at or after `hint` and
  /// allocates the row buffer there. A device that dies during setup is
  /// skipped (and, in adaptive mode, excluded tracker-wide); returns false
  /// when no device can be set up (CPU mode).
  bool try_setup(int hint) {
    int start = hint < 0 ? 0 : hint;
    while (true) {
      const int d = gpusim::pick_surviving_device(*machine_, start);
      if (d < 0) return false;
      Status s = retry_status(policy_, stats_, "mandel.setup",
                              [&] { return setup_on(d); }, jitter_delay());
      if (s.ok()) {
        device_ = d;
        gpu_ready_ = true;
        return true;
      }
      if (s.code() == ErrorCode::kUnavailable) {
        if (tracker_ != nullptr) tracker_->exclude(d);
        start = d + 1;
        continue;
      }
      return false;  // persistent non-loss failure: degrade to CPU
    }
  }

  Status setup_on(int d) {
    Status s =
        cuda_status(cudax::cudaSetDevice(d), "set device failed");
    if (!s.ok()) return s;
    // One stream per device binding: retried setups reuse the stream they
    // already created, and a migration destroys the old device's stream
    // (best effort — resolve fails harmlessly when that device is lost)
    // instead of leaking one simulated stream per attempt.
    if (stream_device_ != d) {
      if (stream_device_ >= 0) (void)cudax::cudaStreamDestroy(stream_);
      stream_device_ = -1;
      s = cuda_status(cudax::cudaStreamCreate(&stream_),
                      "stream create failed");
      if (!s.ok()) return s;
      stream_device_ = d;
    }
    return cuda_status(
        cudax::cudaMalloc(&dev_row_, static_cast<std::size_t>(params_.dim)),
        "row alloc failed");
  }

  MandelParams params_;
  gpusim::Machine* machine_;
  RetryStats* stats_;
  RetryPolicy policy_;
  sched::DeviceLoadTracker* tracker_ = nullptr;
  BackoffSequence backoff_;
  int replica_ = 0;
  int device_ = -1;
  int stream_device_ = -1;  ///< device the live stream_ was created on
  cudax::cudaStream_t stream_{};
  void* dev_row_ = nullptr;
  bool gpu_ready_ = false;
  cudax::PinnedPool::Handle staging_;
};

}  // namespace

Result<std::vector<std::uint8_t>> render_spar_cuda(
    const MandelParams& params, int workers, gpusim::Machine& machine,
    RetryStats* stats, const RetryPolicy& policy,
    sched::DeviceLoadTracker* tracker, flow::FailureReport* failures) {
  if (machine.device_count() == 0) {
    return InvalidArgument("machine has no devices");
  }
  auto image = make_image(params.dim);
  spar::ToStream region("mandel-cuda");
  region.source<Line>([i = 0, &params]() mutable -> std::optional<Line> {
    if (i >= params.dim) return std::nullopt;
    return Line{i++, {}};
  });
  region.stage_nodes(spar::Replicate(workers), [&params, &machine, stats,
                                                policy, tracker] {
    return std::make_unique<CudaLineWorker>(params, &machine, stats, policy,
                                            tracker);
  });
  region.last_stage<Line>([&image, &params](Line line) {
    store_line(image, params.dim, line);
  });
  Status run_status = region.run();
  if (failures != nullptr) *failures = region.failure_report();
  HS_RETURN_IF_ERROR(run_status);
  return image;
}

Result<std::vector<std::uint8_t>> render_opencl_batched(
    const MandelParams& params, gpusim::Machine& machine, int batch_lines) {
  auto platforms = oclx::Platform::get(&machine);
  if (platforms.empty()) return NotFound("no OpenCL platform");
  auto devices = platforms[0].devices();
  auto ctx = oclx::Context::create(devices);
  if (!ctx.ok()) return ctx.status();
  auto queue = oclx::CommandQueue::create(ctx.value(), devices[0]);
  if (!queue.ok()) return queue.status();

  const int dim = params.dim;
  const int batch = std::max(1, batch_lines);
  auto buffer = oclx::Buffer::create(
      ctx.value(), devices[0],
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(dim));
  if (!buffer.ok()) return buffer.status();

  auto image = make_image(dim);
  auto* dev_buf = static_cast<std::uint8_t*>(buffer.value().data());
  for (int first = 0; first < dim; first += batch) {
    const int count = std::min(batch, dim - first);
    const MandelParams p = params;
    // Listing 2 kernel, OpenCL form: global id -> (i_batch, j).
    oclx::Kernel kernel = oclx::Kernel::create(
        "mandel_kernel",
        [p, dev_buf, first, count, dim](const oclx::ThreadCtx& ctx2)
            -> std::uint64_t {
          std::uint64_t tid = ctx2.global_x();
          std::uint64_t i_batch = tid / static_cast<std::uint64_t>(dim);
          std::uint64_t j = tid - i_batch * static_cast<std::uint64_t>(dim);
          if (i_batch >= static_cast<std::uint64_t>(count) ||
              j >= static_cast<std::uint64_t>(dim)) {
            return 1;
          }
          int i = first + static_cast<int>(i_batch);
          int k = kernels::mandel_iterations(p, i, static_cast<int>(j));
          dev_buf[i_batch * static_cast<std::uint64_t>(dim) + j] =
              kernels::mandel_color(k, p.niter);
          return static_cast<std::uint64_t>(k) + 1;
        });
    std::uint64_t total =
        static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(dim);
    oclx::Event done;
    if (queue.value().enqueue_ndrange(
            kernel,
            oclx::Dim3{static_cast<std::uint32_t>((total + 255) / 256 * 256),
                       1, 1},
            oclx::Dim3{256, 1, 1}, &done) != oclx::ClStatus::kSuccess) {
      return Internal("ndrange failed: " + queue.value().last_error());
    }
    oclx::Event read_done;
    if (queue.value().enqueue_read(
            buffer.value(), 0,
            image.data() + static_cast<std::size_t>(first) * dim,
            static_cast<std::size_t>(count) * dim, /*blocking=*/false,
            &read_done) != oclx::ClStatus::kSuccess) {
      return Internal("read failed: " + queue.value().last_error());
    }
    auto waited = oclx::Event::wait_for_events({done, read_done});
    if (!waited.ok()) return waited.status();
  }
  return image;
}

}  // namespace hs::mandel
