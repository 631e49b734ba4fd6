// Inputs of the modeled Mandelbrot Streaming variants — the engine behind
// Fig. 1/Fig. 4: the paper's implementation families and the knobs of one
// modeled run. The runners themselves (cluster/modeled.hpp) execute the
// *real* algorithm structure of each implementation with pixels produced
// functionally from the IterationMap and durations charged to modeled host
// workers and simulated devices.
//
// The CUDA and OpenCL paths share the scheduling code (the paper measured
// them within ~2% everywhere); they differ by the per-call API overhead
// charged and the reported label. The API shims themselves (cudax/oclx) are
// exercised by the real small-scale pipelines in mandel/pipelines.hpp and
// their tests.
#pragma once

#include <string>

#include "gpusim/device.hpp"
#include "mandel/iteration_map.hpp"
#include "perfmodel/host_model.hpp"
#include "sched/sched.hpp"

namespace hs::mandel {

enum class CpuModel { kSpar, kTbb, kFastFlow };
enum class GpuApi { kCuda, kOpenCl };
enum class GpuMode {
  kPerLine1D,  ///< naive: one kernel per fractal line (paper's 3.1x)
  kPerLine2D,  ///< "2D of threads and blocks" (paper's 1.6x). The paper
               ///< does not specify its geometry; we model the classic 2D
               ///< indexing pitfall — a 16x16 block whose fastest-varying
               ///< thread dimension strides across columns, so each warp
               ///< samples columns spread over a 256-wide tile and loses
               ///< its divergence coherence (EXPERIMENTS.md note A)
  kBatched,    ///< Listing 2: batches of lines per kernel call
};

std::string_view cpu_model_name(CpuModel m);
std::string_view gpu_api_name(GpuApi a);

struct ModeledConfig {
  perfmodel::HostProfile host = perfmodel::HostProfile::I9_7900X();
  gpusim::DeviceSpec device_spec = gpusim::DeviceSpec::TitanXP();
  int devices = 1;  ///< GPUs of the single host (no topology given)
  int batch_lines = 32;     ///< lines per kernel call in kBatched mode
  int buffers_per_gpu = 1;  ///< "memory spaces": concurrent buffers/streams
  int cpu_workers = 19;     ///< middle-stage replicas, CPU-only versions
  int combined_workers = 10;  ///< middle-stage replicas, GPU-combined
  std::size_t tbb_tokens = 38;  ///< max_number_of_live_tokens

  // --- ablation knobs (DESIGN.md §4) ---
  gpusim::DivergenceModel divergence = gpusim::DivergenceModel::kMaxLane;
  bool copy_compute_overlap = true;

  /// kStatic reproduces the paper's schedules bit-for-bit (fixed
  /// batch_lines, batch->device round-robin). kAdaptive replaces the
  /// round-robin with least-loaded selection over the modeled completion
  /// times and grows the batch with sched::AimdBatchSizer until the
  /// measured per-line cost flattens (the occupancy break-even) or device
  /// memory rejects the allocation.
  sched::SchedMode sched = sched::SchedMode::kStatic;
};

}  // namespace hs::mandel
