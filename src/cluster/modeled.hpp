// Modeled runners: the Fig. 5 (dedup) and Fig. 1/4 (mandel) schedules,
// each written once and replayed on a topology.
//
// Every runner executes the real algorithm structure of one of the paper's
// implementations — the same loops, batch shapes, stream round-robins,
// buffer-reuse synchronization and pipeline topology — charging calibrated
// durations to modeled host workers (perfmodel) and simulated devices
// (gpusim) on one shared timeline. The returned modeled time is the
// makespan of that schedule; mandel runners also render the full image and
// return its checksum (every variant must agree bit for bit).
//
// The machine is a parameter, not a copy of the schedule: a run with no
// topology in its RunOptions executes on the single host its config
// describes — full_mesh(1) with the config's `devices` x `device_spec` —
// and an explicit topology spreads the stage instances over nodes per a
// Placement. Fabric::send() sits wherever an item crosses a stage boundary;
// send(a, a) is a no-op returning its dependency, so the single host is
// just the 1-node case of the same code.
//
// The duplicate check shards by content hash: block owner = digest lead
// byte % nodes (BatchCosts::shard_key), shard s served by node s. The dup
// stage probes its local shard for free and pays one fabric round trip
// (24 B/block query, 16 B/block response) per remote owner per batch,
// serialized on the owner's shard-service engine.
//
// Stage instance conventions (index into Placement::node_of):
//   dedup sequential, single-thread GPU:  [0]=the one host thread
//   dedup farms:     [0]=source  [1]=dupcheck  [2]=writer  [3+w]=worker w
//   mandel sequential, single-thread GPU: [0]=the one host thread
//   mandel pipeline: [0]=source  [1]=sink/collector        [2+w]=worker w
// An empty placement means "everything on node 0".
//
// Caller mistakes — a placement or profile graph that does not match the
// convention, a node index out of range, a GPU stage on a GPU-less node, a
// disconnected topology, a variant the multi-node path does not model, or
// a device too small for the run's buffers — come back as errors, never as
// an out-of-bounds access.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/fabric.hpp"
#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "common/status.hpp"
#include "dedup/modeled.hpp"
#include "mandel/iteration_map.hpp"
#include "mandel/modeled.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::cluster {

struct RunOptions {
  /// Machine to run on; empty = the single host the config describes.
  Topology topo;
  /// Stage -> node map per the conventions above; empty = all on node 0.
  Placement placement;
  /// When set, the runner measures per-stage compute profiles while it
  /// replays the schedule — host busy seconds, device compute/copy
  /// occupancy and per-item costs — and writes them into this graph's
  /// StageInstance::compute fields (stage count must match the run's
  /// instance convention). Profiles feed the makespan estimator
  /// (cluster/makespan.hpp); measuring during a 1-node run keeps them
  /// placement-neutral. Pure observation: the modeled schedule is
  /// unchanged. The single-thread GPU variants record no items.
  StageGraph* profile = nullptr;
  /// When set, the run's full schedule (every node + link lane) is dumped
  /// as Chrome trace-event JSON to this path.
  std::string trace_path;
  /// When set, per-link counters are exported here under
  /// "<telemetry_prefix>.link.<a>-<b>.{transfers,bytes}".
  telemetry::Registry* registry = nullptr;
  std::string telemetry_prefix = "cluster";
};

struct RunResult {
  std::string label;
  double modeled_seconds = 0;
  double throughput_mb_s = 0;       ///< dedup: input MB (decimal) / second
  std::uint64_t checksum = 0;       ///< mandel: rendered image checksum
  std::uint64_t kernel_launches = 0;
  double gpu_compute_utilization = 0;  ///< node 0 GPU 0 busy / makespan
  /// Batch size the mandel AIMD sizer converged to; 0 under kStatic.
  std::uint64_t adaptive_batch_lines = 0;
  /// Fabric traffic, counted once per hop (a 2-hop transfer of B bytes
  /// adds 2B) — the same accounting predicted_cross_bytes uses.
  std::uint64_t fabric_bytes = 0;
  std::uint64_t fabric_transfers = 0;
  /// Portion of fabric_bytes due to sharded dup-check queries/responses
  /// (placement-independent; subtract to compare against the stage-graph
  /// estimator).
  std::uint64_t shard_bytes = 0;
  std::vector<Fabric::LinkStats> links;
};

/// Stage graph of the dedup pipeline with per-edge byte totals derived
/// from `trace` (source->worker batch payloads, worker->dup digests,
/// dup->worker decisions, worker->writer archive bytes). `workers_need_gpu`
/// marks worker instances GPU-feasible-only (the SPar+GPU backends).
StageGraph dedup_stage_graph(const dedup::DedupTrace& trace, int replicas,
                             bool workers_need_gpu);

/// Stage graph of the mandel combined/cpu pipeline: source->worker batch
/// descriptors, worker->collector rendered lines.
StageGraph mandel_stage_graph(int dim, int batch_lines, int workers,
                              bool workers_need_gpu);

/// The Fig. 5 variants. Multi-node topologies run kSequential, kSparCpu
/// and the static SPar+GPU farms; each farm worker drives the GPUs of its
/// own node (config.devices only shapes the default single host).
Result<RunResult> run_fig5(const dedup::DedupTrace& trace,
                           const dedup::Fig5Config& config,
                           dedup::Fig5Backend backend,
                           const RunOptions& options = {});

/// The sequential baseline (the paper's 400 s reference).
Result<RunResult> run_sequential(const mandel::IterationMap& map,
                                 const mandel::ModeledConfig& cfg,
                                 const RunOptions& options = {});

/// CPU-only pipeline: source -> replicated compute stage -> ordered sink.
/// kTbb additionally applies the live-token cap and steal-style (earliest
/// worker) scheduling and is host-local; kSpar/kFastFlow use round-robin.
Result<RunResult> run_cpu_pipeline(const mandel::IterationMap& map,
                                   const mandel::ModeledConfig& cfg,
                                   mandel::CpuModel model,
                                   const RunOptions& options = {});

/// Single-host-thread GPU version (the paper's CUDA/OpenCL-only bars);
/// one node only.
Result<RunResult> run_gpu_single_thread(const mandel::IterationMap& map,
                                        const mandel::ModeledConfig& cfg,
                                        mandel::GpuApi api,
                                        mandel::GpuMode mode,
                                        const RunOptions& options = {});

/// Multicore pipeline with GPU offload in the replicated middle stage
/// (SPar/TBB/FastFlow x CUDA/OpenCL): workers own per-item streams, issue
/// async copies, and the collector synchronizes — the paper's Fig. 4
/// combined versions. Multi-node topologies run the static kSpar and
/// kFastFlow forms.
Result<RunResult> run_combined(const mandel::IterationMap& map,
                               const mandel::ModeledConfig& cfg,
                               mandel::CpuModel model, mandel::GpuApi api,
                               const RunOptions& options = {});

}  // namespace hs::cluster
