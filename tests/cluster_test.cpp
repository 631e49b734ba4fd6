// Unit tests for the cluster layer: topology parsing/validation, fabric
// link contention against analytic oracles, content-hash sharded dup
// lookup, stage placement, the modeled runners' input validation, and the
// 1-node guarantee — a default single-host call and an explicit
// full_mesh(1) call produce the same numbers bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cluster/fabric.hpp"
#include "cluster/makespan.hpp"
#include "cluster/modeled.hpp"
#include "cluster/shard.hpp"
#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "dedup/dup_store.hpp"
#include "dedup/stages.hpp"
#include "modeled_runners.hpp"
#include "telemetry/telemetry.hpp"

namespace hs::cluster {
namespace {

Topology two_node(double bw = 1e9, double lat = 1e-3, bool duplex = true) {
  std::string spec =
      "node a cores=20 gpus=1\n"
      "node b cores=20 gpus=1\n"
      "link a b bw=" + std::to_string(bw) + " lat=" + std::to_string(lat) +
      (duplex ? "\n" : " half\n");
  auto topo = parse_topology(spec);
  EXPECT_TRUE(topo.ok()) << topo.status().ToString();
  return topo.value();
}

// ---- Topology parsing and validation ---------------------------------

TEST(TopologyTest, ParsesSpecWithSuffixes) {
  auto topo = parse_topology(
      "# comment\n"
      "node a cores=16 gpus=2\n"
      "node b cores=8 gpus=0\n"
      "link a b bw=10GB lat=5us half\n");
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  ASSERT_EQ(topo.value().nodes.size(), 2u);
  EXPECT_EQ(topo.value().nodes[0].cores, 16);
  EXPECT_EQ(topo.value().nodes[0].gpus.size(), 2u);
  EXPECT_EQ(topo.value().nodes[1].gpus.size(), 0u);
  ASSERT_EQ(topo.value().links.size(), 1u);
  EXPECT_DOUBLE_EQ(topo.value().links[0].bandwidth_bytes_per_s, 1e10);
  EXPECT_DOUBLE_EQ(topo.value().links[0].latency_s, 5e-6);
  EXPECT_FALSE(topo.value().links[0].full_duplex);
  EXPECT_EQ(topo.value().node_index("b"), 1);
  EXPECT_EQ(topo.value().node_index("zz"), -1);
}

TEST(TopologyTest, RejectsZeroBandwidthLink) {
  auto topo = parse_topology(
      "node a\nnode b\nlink a b bw=0 lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("bandwidth"), std::string::npos)
      << topo.status().ToString();
}

TEST(TopologyTest, ParseErrorsCarryLineNumbers) {
  auto topo = parse_topology("node a\nnode b\nlink a b bw=zoo lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("line 3"), std::string::npos)
      << topo.status().ToString();
}

TEST(TopologyTest, RejectsDanglingNodeRef) {
  auto topo = parse_topology("node a\nlink a ghost bw=1GB lat=1us\n");
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().ToString().find("ghost"), std::string::npos);
}

TEST(TopologyTest, RejectsDuplicateLink) {
  auto topo = parse_topology(
      "node a\nnode b\n"
      "link a b bw=1GB lat=1us\n"
      "link b a bw=2GB lat=2us\n");
  ASSERT_FALSE(topo.ok());
}

TEST(TopologyTest, RejectsSelfLinkAndDuplicateNode) {
  EXPECT_FALSE(parse_topology("node a\nlink a a bw=1GB lat=1us\n").ok());
  EXPECT_FALSE(parse_topology("node a\nnode a\n").ok());
  EXPECT_FALSE(parse_topology("").ok());
  EXPECT_FALSE(parse_topology("node a cores=0\n").ok());
}

// Spec lines the parser once accepted: an int that wrapped into range
// (4294967297 GPUs read as 1), non-finite or overflowing link numbers, and
// a repeated attribute where the last value silently won.
TEST(TopologyTest, RejectsWrappedNonFiniteAndRepeatedValues) {
  const std::string nodes = "node a\nnode b\n";
  const auto rejects = [](const std::string& spec, std::string_view what) {
    auto topo = parse_topology(spec);
    ASSERT_FALSE(topo.ok()) << spec;
    EXPECT_EQ(topo.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(topo.status().message().find(what), std::string::npos)
        << spec << " -> " << topo.status().ToString();
  };
  rejects("node a gpus=4294967297\n", "bad gpus value");
  rejects("node a cores=99999999999999999999\n", "bad cores value");
  rejects("node a gpus=65\n", "gpus must be in [0, 64]");
  rejects(nodes + "link a b bw=1GB lat=nan\n", "bad lat value");
  rejects(nodes + "link a b bw=inf lat=1us\n", "bad bw value");
  rejects(nodes + "link a b bw=1e308GB lat=1us\n", "bad bw value");
  rejects(nodes + "link a b bw=1GB lat=1e308\n", "latency must be in");
  rejects(nodes + "link a b bw=0.5 lat=1us\n", "bandwidth must be finite");
  rejects("node a cores=1 cores=5\n", "repeated node attribute 'cores=5'");
  rejects(nodes + "link a b bw=1GB lat=1us bw=2GB\n",
          "repeated link attribute 'bw=2GB'");
  rejects(nodes + "link a b bw=1GB half lat=1us half\n",
          "repeated link attribute 'half'");
  auto most = parse_topology("node a cores=2147483647 gpus=64\n");
  ASSERT_TRUE(most.ok()) << most.status().ToString();
  EXPECT_EQ(most.value().nodes[0].cores, 2147483647);
  EXPECT_EQ(most.value().nodes[0].gpus.size(), 64u);
}

/// Writes a topology back in spec form (%.17g keeps doubles exact).
std::string to_spec(const Topology& topo) {
  std::string out;
  char buf[128];
  for (const NodeSpec& n : topo.nodes) {
    std::snprintf(buf, sizeof buf, " cores=%d gpus=%zu\n", n.cores,
                  n.gpus.size());
    out += "node " + n.name + buf;
  }
  for (const LinkSpec& l : topo.links) {
    std::snprintf(buf, sizeof buf, " bw=%.17g lat=%.17g%s\n",
                  l.bandwidth_bytes_per_s, l.latency_s,
                  l.full_duplex ? "" : " half");
    out += "link " + l.a + " " + l.b + buf;
  }
  return out;
}

// Seeded token/byte mutations of valid specs: each must fail with
// InvalidArgument, or parse to a topology inside every bound that writes
// back to a spec parsing to the same topology.
TEST(TopologyTest, ParserSurvivesFuzz) {
  static const std::vector<std::string> kValid = {
      "node a cores=16 gpus=2\nnode b cores=8 gpus=0\n"
      "link a b bw=10GB lat=5us half\n",
      "# mesh\nnode n0\nnode n1 gpus=1\nnode n2\n"
      "link n0 n1 bw=12.5GB lat=2us\nlink n1 n2 bw=1.25GB lat=20us\n",
      "node x cores=4 gpus=4\n"};
  static const std::vector<std::string> kNasty = {
      "", "0", "-1", "1", "64", "65", "2147483647", "2147483648",
      "4294967297", "99999999999999999999", "nan", "inf", "-inf", "1e308",
      "1e-300", "0x10", "+3", "1.5", "3600", "3600.5", "GB", "us", "=",
      "cores=1", "gpus=3", "bw=1KB", "lat=1ms", "half", "node", "link", "#",
      "a", "b"};
  static constexpr std::string_view kBytes = "0123456789=.e-+ \n#abGBKMsmun";
  const auto fuzz_spec = [](Xoshiro256& rng) {
    const auto pick = [&rng](const auto& v) -> const auto& {
      return v[rng.bounded(v.size())];
    };
    std::string spec = pick(kValid);
    for (std::uint64_t n = rng.range(1, 3); n > 0; --n) {
      const std::size_t at = rng.bounded(spec.size() + 1);
      switch (rng.bounded(3)) {
        case 0: {  // replace the next attribute value
          const std::size_t eq = spec.find('=', at);
          if (eq == std::string::npos) break;
          const std::size_t end = std::min(spec.find_first_of(" \n", eq),
                                           spec.size());
          spec.replace(eq + 1, end - eq - 1, pick(kNasty));
          break;
        }
        case 1:  // insert a token
          spec.insert(at, " " + pick(kNasty) + " ");
          break;
        case 2:  // insert a byte
          spec.insert(spec.begin() + static_cast<long>(at),
                      rng.chance(0.8) ? kBytes[rng.bounded(kBytes.size())]
                                      : static_cast<char>(rng.bounded(256)));
          break;
      }
    }
    return spec;
  };

  Xoshiro256 rng(1);
  int accepted = 0;
  for (int i = 0; i < 20000 && !HasFailure(); ++i) {
    const std::string spec = fuzz_spec(rng);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + spec);
    auto topo = parse_topology(spec);
    if (!topo.ok()) {
      EXPECT_EQ(topo.status().code(), ErrorCode::kInvalidArgument);
      continue;
    }
    for (const NodeSpec& n : topo.value().nodes) {
      EXPECT_GT(n.cores, 0);
      EXPECT_LE(n.gpus.size(), 64u);
    }
    for (const LinkSpec& l : topo.value().links) {
      EXPECT_TRUE(std::isfinite(l.bandwidth_bytes_per_s) &&
                  l.bandwidth_bytes_per_s >= 1.0);
      EXPECT_TRUE(l.latency_s >= 0 && l.latency_s <= 3600.0);
    }
    const std::string back = to_spec(topo.value());
    auto again = parse_topology(back);
    ASSERT_TRUE(again.ok()) << back << " -> " << again.status().ToString();
    EXPECT_EQ(to_spec(again.value()), back);
    ++accepted;
  }
  EXPECT_GT(accepted, 1000);  // seed 1 accepts 1268 of the 20000
}

TEST(TopologyTest, RoutesChainMultiHop) {
  auto topo = parse_topology(
      "node a\nnode b\nnode c\n"
      "link a b bw=1GB lat=1us\n"
      "link b c bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  Routes r = compute_routes(topo.value());
  EXPECT_EQ(r.hops[0][2], 2);
  EXPECT_EQ(r.next[0][2], 1);  // a routes to c via b
  EXPECT_EQ(r.hops[0][0], 0);
}

TEST(TopologyTest, FullMeshIsOneHopEverywhere) {
  Topology topo = full_mesh(4, 1, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  ASSERT_TRUE(topo.validate().ok());
  EXPECT_EQ(topo.links.size(), 6u);
  Routes r = compute_routes(topo);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(r.hops[a][b], a == b ? 0 : 1);
    }
  }
}

// ---- Fabric: link contention against analytic oracles ----------------

TEST(FabricTest, TransfersSerializeOnSharedLink) {
  // 1 MB at 1 GB/s = 1 ms per transfer + 1 ms latency = 2 ms each.
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  des::TaskId t1 = fabric.send(0, 1, 1'000'000);
  des::TaskId t2 = fabric.send(0, 1, 1'000'000);
  EXPECT_DOUBLE_EQ(tl.finish_time(t1), 2e-3);
  EXPECT_DOUBLE_EQ(tl.finish_time(t2), 4e-3);  // queued behind t1
}

TEST(FabricTest, FullDuplexDirectionsDoNotContend) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1'000'000);
  des::TaskId back = fabric.send(1, 0, 1'000'000);
  EXPECT_DOUBLE_EQ(tl.finish_time(back), 2e-3);  // own engine, no queue
}

TEST(FabricTest, HalfDuplexDirectionsContend) {
  Topology topo = two_node(1e9, 1e-3, /*duplex=*/false);
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1'000'000);
  des::TaskId back = fabric.send(1, 0, 1'000'000);
  EXPECT_DOUBLE_EQ(tl.finish_time(back), 4e-3);  // shared engine
}

TEST(FabricTest, SelfSendIsNoOp) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  des::TaskId dep = tl.submit(tl.add_engine("x"), 1.0);
  EXPECT_EQ(fabric.send(0, 0, 12345, dep), dep);
  EXPECT_EQ(fabric.total_bytes(), 0u);
  EXPECT_EQ(fabric.total_transfers(), 0u);
}

TEST(FabricTest, MultiHopChainsPerHopTasks) {
  auto topo = parse_topology(
      "node a\nnode b\nnode c\n"
      "link a b bw=1GB lat=1ms\n"
      "link b c bw=1GB lat=1ms\n");
  ASSERT_TRUE(topo.ok());
  des::Timeline tl;
  Fabric fabric(topo.value(), &tl);
  des::TaskId t = fabric.send(0, 2, 1'000'000);
  EXPECT_DOUBLE_EQ(tl.finish_time(t), 4e-3);  // two hops of 2 ms
  EXPECT_EQ(fabric.total_transfers(), 2u);    // one per hop
  EXPECT_EQ(fabric.total_bytes(), 2'000'000u);
}

TEST(FabricTest, CrossTrafficViaSubmitAtDelaysSend) {
  // Cross-traffic injected with submit_at occupies the link engine from
  // t=5ms; a dependent send arriving earlier queues behind it. The fabric
  // and raw submit_at share the engine, so the oracle is exact.
  Topology topo = two_node(1e9, 0.0);
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  // Locate the forward engine by scheduling a probe first (engine ids are
  // not exposed; the probe also validates the engine naming).
  des::TaskId probe = fabric.send(0, 1, 1);  // ~instant
  (void)probe;
  // Occupy the a->b lane from 5 ms for 3 ms via the timeline's own API.
  // Engines registered by the fabric: "link.a>b" is engine index 0.
  des::TaskId cross = tl.submit_at(des::EngineId{0}, 3e-3, 5e-3, {}, "cross");
  EXPECT_DOUBLE_EQ(tl.start_time(cross), 5e-3);
  des::TaskId t = fabric.send(0, 1, 1'000'000);  // wants 1 ms, arrives now
  EXPECT_DOUBLE_EQ(tl.start_time(t), 8e-3);      // behind the cross traffic
  EXPECT_DOUBLE_EQ(tl.finish_time(t), 9e-3);
}

TEST(FabricTest, ExportsLinkCounters) {
  Topology topo = two_node();
  des::Timeline tl;
  Fabric fabric(topo, &tl);
  fabric.send(0, 1, 1000);
  fabric.send(1, 0, 500);
  telemetry::Registry reg;
  fabric.export_counters(reg, "cluster");
  EXPECT_EQ(reg.counter("cluster.link.a-b.bytes")->value(), 1500u);
  EXPECT_EQ(reg.counter("cluster.link.a-b.transfers")->value(), 2u);
  EXPECT_EQ(reg.counter("cluster.fabric.bytes")->value(), 1500u);
  auto stats = fabric.link_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "a-b");
  EXPECT_EQ(stats[0].bytes, 1500u);
  EXPECT_GT(stats[0].busy_seconds, 0.0);
}

// ---- Sharded dup index ------------------------------------------------

std::vector<dedup::Batch> hashed_batches() {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 256 * 1024;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  dedup::DedupConfig config;
  config.batch_size = 32 * 1024;
  config.rabin.mask = 0x3FF;
  std::vector<dedup::Batch> batches = dedup::fragment_input(input, config);
  for (dedup::Batch& b : batches) dedup::hash_blocks(b);
  return batches;
}

TEST(ShardedDupIndexTest, MatchesDupCacheForAnyNodeCount) {
  for (int nodes : {1, 2, 3, 4}) {
    std::vector<dedup::Batch> ref = hashed_batches();
    std::vector<dedup::Batch> sharded = hashed_batches();
    dedup::DupCache cache;
    ShardedDupIndex index(nodes);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      cache.check(ref[i]);
      index.check(sharded[i], /*origin_node=*/0);
      ASSERT_EQ(ref[i].blocks.size(), sharded[i].blocks.size());
      for (std::size_t k = 0; k < ref[i].blocks.size(); ++k) {
        EXPECT_EQ(ref[i].blocks[k].duplicate, sharded[i].blocks[k].duplicate)
            << "nodes=" << nodes << " batch=" << i << " block=" << k;
        EXPECT_EQ(ref[i].blocks[k].global_id, sharded[i].blocks[k].global_id);
      }
    }
    EXPECT_EQ(index.unique_count(), cache.unique_count());
    if (nodes == 1) {
      EXPECT_EQ(index.traffic().remote_lookups, 0u);
    } else {
      EXPECT_GT(index.traffic().remote_lookups, 0u);
    }
  }
}

TEST(ShardedDupIndexTest, OwnerFollowsLeadDigestByte) {
  ShardedDupIndex index(4);
  kernels::Sha1Digest d{};
  d[0] = 7;
  EXPECT_EQ(index.owner(d), 3);  // 7 % 4
  d[0] = 8;
  EXPECT_EQ(index.owner(d), 0);
}

// ---- Placement --------------------------------------------------------

StageGraph toy_graph() {
  StageGraph g;
  g.stages.push_back({"source", false, -1, 1});
  g.stages.push_back({"heavy", false, -1, 1});
  g.stages.push_back({"sink", false, -1, 1});
  g.edges.push_back({0, 1, 1'000'000});
  g.edges.push_back({1, 2, 1'000'000});
  return g;
}

TEST(PlacementTest, GreedyCoLocatesHeavyEdges) {
  Topology topo = full_mesh(2, 1, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  StageGraph g = toy_graph();
  Placement greedy = place_greedy(g, topo);
  EXPECT_EQ(predicted_cross_bytes(g, greedy, topo), 0u);
  Placement rr = place_round_robin(g, topo);
  EXPECT_GT(predicted_cross_bytes(g, rr, topo), 0u);
}

TEST(PlacementTest, RespectsGpuFeasibilityAndPins) {
  auto topo = parse_topology(
      "node cpuonly cores=20 gpus=0\n"
      "node gpubox cores=20 gpus=2\n"
      "link cpuonly gpubox bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok());
  StageGraph g;
  g.stages.push_back({"src", false, 0, 1});  // pinned to cpuonly
  g.stages.push_back({"k", true, -1, 1});    // needs a GPU
  g.edges.push_back({0, 1, 10});
  for (const Placement& p : {place_round_robin(g, topo.value()),
                             place_greedy(g, topo.value())}) {
    EXPECT_EQ(p.node_of[0], 0);
    EXPECT_EQ(p.node_of[1], 1);  // only gpubox is feasible
  }
}

TEST(PlacementTest, GreedyBeatsRoundRobinOnDedupGraph) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 512 * 1024;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  dedup::Fig5Config cfg;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x3FF;
  dedup::DedupTrace trace = dedup::build_trace(input, cfg.dedup);

  Topology topo = full_mesh(4, 2, gpusim::DeviceSpec::TitanXP(), 1e9, 1e-6);
  StageGraph g = dedup_stage_graph(trace, /*replicas=*/19, true);
  const std::uint64_t rr =
      predicted_cross_bytes(g, place_round_robin(g, topo), topo);
  const std::uint64_t greedy =
      predicted_cross_bytes(g, place_greedy(g, topo), topo);
  EXPECT_LT(greedy, rr);
}

// ---- Modeled runners: 1-node bit-equality and estimator pin -----------

using testutil::must;

dedup::DedupTrace small_trace(dedup::Fig5Config& cfg) {
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 512 * 1024;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  cfg.replicas = 3;
  cfg.devices = 2;
  cfg.dedup.batch_size = 64 * 1024;
  cfg.dedup.rabin.mask = 0x3FF;
  return dedup::build_trace(input, cfg.dedup);
}

TEST(ClusterRunnerTest, OneNodeDedupBitIdentical) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  RunOptions opts;
  opts.topo = full_mesh(1, 2, cfg.device_spec, 1e9, 1e-6);
  for (auto backend :
       {dedup::Fig5Backend::kSequential, dedup::Fig5Backend::kSparCpu,
        dedup::Fig5Backend::kCudaSingle, dedup::Fig5Backend::kOclSingle,
        dedup::Fig5Backend::kSparCuda, dedup::Fig5Backend::kSparOcl}) {
    RunResult host = must(run_fig5(trace, cfg, backend));
    RunResult one = must(run_fig5(trace, cfg, backend, opts));
    EXPECT_EQ(host.label, one.label);
    EXPECT_EQ(host.modeled_seconds, one.modeled_seconds)  // exact, not near
        << host.label;
    EXPECT_EQ(host.throughput_mb_s, one.throughput_mb_s);
    EXPECT_EQ(host.kernel_launches, one.kernel_launches);
    EXPECT_EQ(one.fabric_bytes, 0u);
  }
}

TEST(ClusterRunnerTest, OneNodeMandelBitIdentical) {
  kernels::MandelParams p;
  p.dim = 64;
  p.niter = 500;
  mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig cfg;
  cfg.batch_lines = 8;
  cfg.devices = 2;
  cfg.combined_workers = 4;
  cfg.cpu_workers = 5;
  RunOptions opts;
  opts.topo = full_mesh(1, 2, cfg.device_spec, 1e9, 1e-6);

  auto same = [](const RunResult& host, const RunResult& one) {
    EXPECT_EQ(host.label, one.label);
    EXPECT_EQ(host.modeled_seconds, one.modeled_seconds) << host.label;
    EXPECT_EQ(host.checksum, one.checksum) << host.label;
    EXPECT_EQ(host.kernel_launches, one.kernel_launches) << host.label;
  };
  same(must(run_sequential(map, cfg)), must(run_sequential(map, cfg, opts)));
  same(must(run_cpu_pipeline(map, cfg, mandel::CpuModel::kSpar)),
       must(run_cpu_pipeline(map, cfg, mandel::CpuModel::kSpar, opts)));
  same(must(run_gpu_single_thread(map, cfg, mandel::GpuApi::kCuda,
                                  mandel::GpuMode::kBatched)),
       must(run_gpu_single_thread(map, cfg, mandel::GpuApi::kCuda,
                                  mandel::GpuMode::kBatched, opts)));
  same(must(run_combined(map, cfg, mandel::CpuModel::kSpar,
                         mandel::GpuApi::kCuda)),
       must(run_combined(map, cfg, mandel::CpuModel::kSpar,
                         mandel::GpuApi::kCuda, opts)));
}

// ---- Modeled runners: caller mistakes come back as errors --------------

TEST(ClusterRunnerTest, RejectsPlacementOfTheWrongSize) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  RunOptions opts;
  opts.topo = full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
  opts.placement.node_of = {0, 1, 0};  // 3 instances; the farm has 3 + 3
  auto r = run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("placement"), std::string::npos)
      << r.status().ToString();

  opts.placement.node_of = {0, 0, 0, 0, 0, 7};  // node 7 of 2
  r = run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ClusterRunnerTest, RejectsProfileGraphOfTheWrongSize) {
  kernels::MandelParams p;
  p.dim = 32;
  p.niter = 100;
  mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig cfg;
  cfg.combined_workers = 4;
  StageGraph g = mandel_stage_graph(p.dim, cfg.batch_lines, 3, true);
  RunOptions opts;
  opts.profile = &g;  // 2 + 3 stages; the run has 2 + 4
  auto r = run_combined(map, cfg, mandel::CpuModel::kSpar,
                        mandel::GpuApi::kCuda, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("profile"), std::string::npos)
      << r.status().ToString();
}

TEST(ClusterRunnerTest, RejectsGpuStageOnGpulessNode) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  auto topo = parse_topology(
      "node a cores=20 gpus=1\nnode b cores=20 gpus=0\n"
      "link a b bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok());
  RunOptions opts;
  opts.topo = topo.value();
  opts.placement.node_of = {0, 0, 0, 0, 1, 0};  // worker 1 on GPU-less b
  auto r = run_fig5(trace, cfg, dedup::Fig5Backend::kSparOcl, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("no GPUs"), std::string::npos)
      << r.status().ToString();

  // The same holds for a single host configured without GPUs.
  mandel::ModeledConfig mcfg;
  mcfg.devices = 0;
  kernels::MandelParams p;
  p.dim = 16;
  p.niter = 50;
  auto m = run_gpu_single_thread(mandel::IterationMap::compute(p), mcfg,
                                 mandel::GpuApi::kCuda,
                                 mandel::GpuMode::kBatched);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("no GPUs"), std::string::npos);
}

TEST(ClusterRunnerTest, RejectsVariantsWithoutAMultiNodeForm) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  RunOptions opts;
  opts.topo = full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
  EXPECT_FALSE(
      run_fig5(trace, cfg, dedup::Fig5Backend::kCudaSingle, opts).ok());
  dedup::Fig5Config adaptive = cfg;
  adaptive.sched = sched::SchedMode::kAdaptive;
  auto r = run_fig5(trace, adaptive, dedup::Fig5Backend::kSparCuda, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("multi-node"), std::string::npos)
      << r.status().ToString();

  kernels::MandelParams p;
  p.dim = 32;
  p.niter = 100;
  mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig mcfg;
  EXPECT_FALSE(run_cpu_pipeline(map, mcfg, mandel::CpuModel::kTbb, opts).ok());
  EXPECT_FALSE(run_gpu_single_thread(map, mcfg, mandel::GpuApi::kCuda,
                                     mandel::GpuMode::kBatched, opts)
                   .ok());
  mcfg.sched = sched::SchedMode::kAdaptive;
  EXPECT_FALSE(run_combined(map, mcfg, mandel::CpuModel::kSpar,
                            mandel::GpuApi::kCuda, opts)
                   .ok());
}

TEST(ClusterRunnerTest, RejectsDisconnectedTopologyAndTinyDevices) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  auto topo = parse_topology(
      "node a cores=20 gpus=1\nnode b cores=20 gpus=1\n"
      "node c cores=20 gpus=1\nlink a b bw=1GB lat=1us\n");
  ASSERT_TRUE(topo.ok());
  RunOptions opts;
  opts.topo = topo.value();
  auto r = run_fig5(trace, cfg, dedup::Fig5Backend::kSparCpu, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("not connected"), std::string::npos)
      << r.status().ToString();

  // A device too small for the scratch buffers is an allocation error.
  dedup::Fig5Config tiny = cfg;
  tiny.device_spec.memory_bytes = 1024;
  auto t = run_fig5(trace, tiny, dedup::Fig5Backend::kSparCuda);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), ErrorCode::kOutOfMemory);
}

TEST(ClusterRunnerTest, EstimatorMatchesFabricBytesExactly) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  for (int nodes : {2, 4}) {
    Topology topo = full_mesh(nodes, 2, cfg.device_spec, 1e9, 1e-6);
    StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
    for (Placement placement :
         {place_round_robin(g, topo), place_greedy(g, topo)}) {
      RunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      RunResult r =
          must(run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda, opts));
      EXPECT_EQ(r.fabric_bytes - r.shard_bytes,
                predicted_cross_bytes(g, placement, topo))
          << nodes << " nodes";
      EXPECT_GT(r.shard_bytes, 0u);
    }
  }
}

TEST(ClusterRunnerTest, MultiNodeRunIsSlowerThanFreeTraffic) {
  // Scheduling the same schedule over a slow fabric must cost time: the
  // 2-node run with microsecond links cannot beat itself with instant
  // links.
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
  auto run_at_bw = [&](double bw) {
    RunOptions opts;
    opts.topo = full_mesh(2, 2, cfg.device_spec, bw, 1e-6);
    opts.placement = place_round_robin(g, opts.topo);
    return must(run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda, opts));
  };
  RunResult slow = run_at_bw(1e8);   // 100 MB/s links
  RunResult fast = run_at_bw(1e12);  // ~free links
  EXPECT_GT(slow.modeled_seconds, fast.modeled_seconds);
}

TEST(ClusterRunnerTest, ExportsTraceAndTelemetry) {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace = small_trace(cfg);
  telemetry::Registry reg;
  RunOptions opts;
  opts.topo = full_mesh(2, 2, cfg.device_spec, 1e9, 1e-6);
  StageGraph g = dedup_stage_graph(trace, cfg.replicas, true);
  opts.placement = place_round_robin(g, opts.topo);
  opts.registry = &reg;
  opts.trace_path = ::testing::TempDir() + "/cluster_trace.json";
  RunResult r =
      must(run_fig5(trace, cfg, dedup::Fig5Backend::kSparCuda, opts));
  EXPECT_GT(r.fabric_bytes, 0u);
  EXPECT_EQ(reg.counter("cluster.fabric.bytes")->value(), r.fabric_bytes);
  std::ifstream in(opts.trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("link.n0>n1"), std::string::npos)
      << "trace should contain one lane per link direction";
  std::remove(opts.trace_path.c_str());
}

// ---- Makespan estimator + placer -------------------------------------

/// Bench-shaped dedup workload (19 replicas, 2 kB blocks) on a 1 MB
/// corpus, with the stage graph's compute profiles measured during a
/// 1-node run — the estimator needs measured StageCompute to bound time.
struct ProfiledDedup {
  dedup::Fig5Config cfg;
  dedup::DedupTrace trace;
  StageGraph graph;
};

ProfiledDedup profiled_dedup() {
  ProfiledDedup d;
  datagen::CorpusSpec spec;
  spec.kind = datagen::CorpusKind::kParsecLike;
  spec.bytes = 2'000'000;
  const std::vector<std::uint8_t> input = datagen::generate(spec);
  d.cfg.replicas = 19;
  d.cfg.devices = 2;
  d.cfg.dedup.batch_size = 64 * 1024;
  d.cfg.dedup.rabin.mask = 0x7FF;
  d.trace = dedup::build_trace(input, d.cfg.dedup);
  d.graph = dedup_stage_graph(d.trace, d.cfg.replicas, true);
  RunOptions opts;
  opts.topo = full_mesh(1, 2, d.cfg.device_spec, 12.5e9, 2e-6);
  opts.profile = &d.graph;
  (void)must(run_fig5(d.trace, d.cfg, dedup::Fig5Backend::kSparCuda, opts));
  return d;
}

TEST(MakespanTest, EstimatorPinsDesWithinFactorOnDedup) {
  ProfiledDedup d = profiled_dedup();
  for (int nodes : {1, 2, 4, 8}) {
    const Topology topo =
        full_mesh(nodes, 2, d.cfg.device_spec, 12.5e9, 2e-6);
    const MakespanEstimator est(d.graph, topo);
    for (const Placement& placement :
         {place_round_robin(d.graph, topo), place_greedy(d.graph, topo),
          place_makespan(d.graph, topo)}) {
      RunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      const RunResult r = must(
          run_fig5(d.trace, d.cfg, dedup::Fig5Backend::kSparCuda, opts));
      const double e = est.estimate(placement);
      EXPECT_LE(r.modeled_seconds, e * kEstimatorPinFactor)
          << nodes << " nodes";
      EXPECT_LE(e, r.modeled_seconds * kEstimatorLowerSlack)
          << nodes << " nodes";
    }
  }
}

TEST(MakespanTest, EstimatorPinsDesWithinFactorOnMandel) {
  kernels::MandelParams p;
  p.dim = 100;
  p.niter = 500;
  mandel::IterationMap map = mandel::IterationMap::compute(p);
  mandel::ModeledConfig cfg;
  cfg.batch_lines = 8;
  cfg.devices = 2;
  cfg.combined_workers = 4;
  StageGraph g =
      mandel_stage_graph(p.dim, cfg.batch_lines, cfg.combined_workers, true);
  {
    RunOptions opts;
    opts.topo = full_mesh(1, 2, cfg.device_spec, 12.5e9, 2e-6);
    opts.profile = &g;
    (void)must(run_combined(map, cfg, mandel::CpuModel::kSpar,
                            mandel::GpuApi::kCuda, opts));
  }
  for (int nodes : {1, 2, 4, 8}) {
    const Topology topo = full_mesh(nodes, 2, cfg.device_spec, 12.5e9, 2e-6);
    const MakespanEstimator est(g, topo);
    for (const Placement& placement :
         {place_round_robin(g, topo), place_greedy(g, topo),
          place_makespan(g, topo)}) {
      RunOptions opts;
      opts.topo = topo;
      opts.placement = placement;
      const RunResult r = must(run_combined(map, cfg, mandel::CpuModel::kSpar,
                                            mandel::GpuApi::kCuda, opts));
      const double e = est.estimate(placement);
      EXPECT_LE(r.modeled_seconds, e * kEstimatorPinFactor)
          << nodes << " nodes";
      EXPECT_LE(e, r.modeled_seconds * kEstimatorLowerSlack)
          << nodes << " nodes";
    }
  }
}

TEST(MakespanTest, PlacerIsDeterministicAcrossRepeatedRuns) {
  ProfiledDedup d = profiled_dedup();
  for (int nodes : {2, 4, 8}) {
    const Topology topo =
        full_mesh(nodes, 2, d.cfg.device_spec, 12.5e9, 2e-6);
    const Placement first = place_makespan(d.graph, topo);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(place_makespan(d.graph, topo).node_of, first.node_of)
          << nodes << " nodes, repeat " << rep;
    }
  }
}

TEST(MakespanTest, HeteroTopologyKeepsGpuStagesOffGpulessNodes) {
  ProfiledDedup d = profiled_dedup();
  auto topo_or = parse_topology(R"(
node n0 cores=20 gpus=2
node n1 cores=20 gpus=1
node n2 cores=20 gpus=0
link n0 n1 bw=12.5GB lat=2us
link n0 n2 bw=12.5GB lat=2us
link n1 n2 bw=12.5GB lat=2us
)");
  ASSERT_TRUE(topo_or.ok()) << topo_or.status().ToString();
  Topology topo = std::move(topo_or).value();
  for (NodeSpec& node : topo.nodes) {
    for (gpusim::DeviceSpec& gpu : node.gpus) gpu = d.cfg.device_spec;
  }
  for (const Placement& placement :
       {place_round_robin(d.graph, topo), place_greedy(d.graph, topo),
        place_makespan(d.graph, topo)}) {
    for (std::size_t i = 0; i < d.graph.stages.size(); ++i) {
      if (!d.graph.stages[i].needs_gpu) continue;
      const auto node = static_cast<std::size_t>(placement.node_of[i]);
      EXPECT_FALSE(topo.nodes[node].gpus.empty())
          << d.graph.stages[i].name << " placed on GPU-less "
          << topo.nodes[node].name;
    }
  }
}

// The PR-8 inversion: byte-greedy collapses the farm onto two nodes and
// loses to round-robin on modeled time at 8 nodes even though it wins on
// bytes. place_makespan must resolve it — no worse than either baseline,
// strictly better than greedy.
TEST(MakespanTest, ResolvesEightNodeDedupGreedyInversion) {
  ProfiledDedup d = profiled_dedup();
  const Topology topo = full_mesh(8, 2, d.cfg.device_spec, 12.5e9, 2e-6);
  auto des = [&](const Placement& placement) {
    RunOptions opts;
    opts.topo = topo;
    opts.placement = placement;
    return must(run_fig5(d.trace, d.cfg, dedup::Fig5Backend::kSparCuda, opts))
        .modeled_seconds;
  };
  const double rr = des(place_round_robin(d.graph, topo));
  const double greedy = des(place_greedy(d.graph, topo));
  const double makespan = des(place_makespan(d.graph, topo));
  EXPECT_LT(rr, greedy) << "inversion precondition: greedy loses to RR";
  EXPECT_LT(makespan, greedy);
  EXPECT_LE(makespan, rr * kEstimatorLowerSlack);
}

}  // namespace
}  // namespace hs::cluster
