// The interconnect fabric: schedules inter-node transfers on shared link
// engines of the cluster's des::Timeline.
//
// Each physical link contributes one timeline engine per direction when
// full duplex ("link.a>b", "link.b>a") or a single shared engine when half
// duplex ("link.a<>b"). A transfer of B bytes occupies its link engine for
// latency + B/bandwidth seconds — exactly how a device's PCIe copy engine
// serializes copies — so concurrent senders on one link queue up behind
// each other instead of magically sharing bandwidth. Multi-hop paths (from
// compute_routes) chain one task per hop.
//
// send(a, a, ...) is the intentional degenerate case: it returns the
// dependency unchanged and submits nothing, which is what lets the modeled
// runners treat a single host as the 1-node case of the same schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "des/timeline.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::cluster {

class Fabric {
 public:
  /// Registers the link engines on `timeline` (which must outlive the
  /// Fabric). `topo` must validate.
  Fabric(const Topology& topo, des::Timeline* timeline);

  /// Schedules a transfer of `bytes` from node `from` to node `to`,
  /// starting after `dep` (pass an invalid id for none). Returns the task
  /// whose finish is the arrival at `to` — `dep` itself when from == to.
  des::TaskId send(int from, int to, std::uint64_t bytes,
                   des::TaskId dep = {}, std::string_view label = {});

  /// Hop distance between two nodes (0 on the diagonal, -1 unreachable).
  [[nodiscard]] int hops(int from, int to) const {
    return routes_.hops[static_cast<std::size_t>(from)]
                       [static_cast<std::size_t>(to)];
  }

  /// Cumulative per-physical-link traffic (both directions combined).
  struct LinkStats {
    std::string name;          ///< "a-b" using the topology's node names
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    double busy_seconds = 0;   ///< engine busy time (sum of directions)
  };
  [[nodiscard]] std::vector<LinkStats> link_stats() const;

  /// Total bytes and transfers over all links (each hop counts once).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_transfers() const {
    return total_transfers_;
  }

  /// Exports per-link counters into `registry` as
  /// "<prefix>.link.<a>-<b>.{transfers,bytes}" plus
  /// "<prefix>.fabric.{transfers,bytes}".
  void export_counters(telemetry::Registry& registry,
                       const std::string& prefix = "cluster") const;

 private:
  struct Link {
    LinkSpec spec;
    int a = 0;                ///< node indices
    int b = 0;
    des::EngineId forward;    ///< a -> b (and b -> a when half duplex)
    des::EngineId backward;   ///< b -> a (== forward when half duplex)
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
  };

  des::Timeline* timeline_;
  Routes routes_;
  std::vector<Link> links_;
  /// link_of_[a][b]: index into links_ for adjacent nodes, -1 otherwise.
  std::vector<std::vector<int>> link_of_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_transfers_ = 0;
};

}  // namespace hs::cluster
