// Stage placement: mapping pipeline stage instances onto cluster nodes.
//
// The byte estimator predicts cross-link traffic of a candidate placement
// from per-edge byte totals (derived from a workload trace): an edge
// contributes bytes x hop-distance between its endpoints' nodes, which is
// exactly what the Fabric will charge when the schedule runs (each hop
// moves the full payload once). cluster_test pins the estimator to the
// fabric's actual byte counters on a dedup run.
//
// Stages additionally carry per-stage compute profiles (StageCompute):
// host busy seconds, GPU kernel/copy occupancy, and per-item costs,
// *measured* by the modeled runners during a profiling run
// (RunOptions::profile) rather than hand-tuned — the same trace
// that feeds StageEdge::bytes. They power the makespan estimator and the
// makespan-aware placer in cluster/makespan.hpp.
//
// Baseline placers:
//   round_robin — instance k on node k % N (skipping infeasible nodes),
//                 the naive spread a stream runtime would do;
//   greedy      — pinned stages first, then free stages in order of
//                 descending incident bytes, each on the feasible node
//                 minimizing the added cost (capacity-aware; lowest index
//                 breaks ties). Deterministic, and strictly better than
//                 round-robin on traffic-skewed graphs like dedup's —
//                 but byte-greedy can trade away GPU parallelism, which
//                 is what place_makespan (makespan.hpp) fixes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"

namespace hs::cluster {

/// How a stage's GPU work maps onto the devices of its node — mirrors the
/// binding conventions of the modeled runners, so the makespan estimator
/// can reconstruct per-device busy time for any candidate placement.
enum class GpuBinding : std::uint8_t {
  kNone,      ///< stage enqueues no device work
  kPerStage,  ///< stage bound to one device: rank-among-GPU-stages % gpus
              ///< (dedup farm replicas)
  kPerItem,   ///< items round-robin the node's devices by global item
              ///< index % gpus (mandel memory spaces)
};

/// One item processed by a stage, with its measured costs. `index` is the
/// global item number (batch index), the key the runners use to round-robin
/// devices in kPerItem binding.
struct StageWorkItem {
  std::uint64_t index = 0;
  double host_seconds = 0;  ///< host busy charged for this item
  double gpu_seconds = 0;   ///< device compute occupancy of this item
  double copy_seconds = 0;  ///< device copy-engine occupancy of this item
};

/// Measured compute profile of one stage instance over the whole run.
/// Filled by the modeled runners when RunOptions::profile points at
/// the graph being run; all-zero on an unprofiled graph.
struct StageCompute {
  double host_seconds = 0;  ///< total host-engine busy time
  double gpu_seconds = 0;   ///< total device compute occupancy
  double copy_seconds = 0;  ///< total device copy-engine occupancy
  GpuBinding binding = GpuBinding::kNone;
  std::vector<StageWorkItem> items;
};

struct StageInstance {
  StageInstance() = default;
  StageInstance(std::string n, bool gpu, int pin, int c)
      : name(std::move(n)), needs_gpu(gpu), pinned_node(pin), cores(c) {}

  std::string name;
  bool needs_gpu = false;  ///< only nodes with >= 1 GPU are feasible
  int pinned_node = -1;    ///< fixed assignment, -1 = placeable
  int cores = 1;           ///< host threads consumed on its node
  StageCompute compute;    ///< measured profile (see above)
};

struct StageEdge {
  StageEdge() = default;
  StageEdge(int f, int t, std::uint64_t b, std::uint64_t x = 0)
      : from(f), to(t), bytes(b), transfers(x) {}

  int from = 0;  ///< indices into StageGraph::stages
  int to = 0;
  std::uint64_t bytes = 0;      ///< total payload over the whole run
  std::uint64_t transfers = 0;  ///< item hand-offs (latency charges)
};

struct StageGraph {
  std::vector<StageInstance> stages;
  std::vector<StageEdge> edges;
};

/// node_of[i] = node of stage instance i.
struct Placement {
  std::vector<int> node_of;
};

/// Sum over edges of bytes x hops(node_of[from], node_of[to]).
std::uint64_t predicted_cross_bytes(const StageGraph& graph,
                                    const Placement& placement,
                                    const Topology& topo);

Placement place_round_robin(const StageGraph& graph, const Topology& topo);
Placement place_greedy(const StageGraph& graph, const Topology& topo);

}  // namespace hs::cluster
