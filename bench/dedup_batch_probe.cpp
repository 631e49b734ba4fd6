// §IV-B / §V-B batch-size analysis for Dedup:
//  * throughput vs batch size (larger batches amortize launches until
//    stage granularity starves the farm);
//  * per-worker device-memory footprint vs batch size, reproducing the
//    paper's failure mode: "we had to reduce the batch size for OpenCL
//    because the number of items being processed resulted in an out of
//    memory error" (they fell back from 10 MB to 1 MB batches).
//
// The footprint model follows the pipeline's actual allocations: per
// memory space, the batch data plus the FindMatch result array
// (sizeof(LzssMatch) per input position) — times replicas x mem-spaces
// concurrent items. The probe walks batch sizes and reports where a
// memory-constrained device (--device-mem, default 12GB like the Titan XP;
// try --device-mem=1GiB) rejects the allocation, exercising the same
// OUT_OF_MEMORY path the shims raise.
//
// Flags: --input-size=BYTES (8MB) | --dataset=... (parsec) |
//        --batches=65536,262144,... | --replicas=N (19) | --mem-spaces=N
//        --device-mem=BYTES | --csv
//        --lzss=legacy|chain match finder for every config built here
//        (default legacy, matching the calibrated cost model)
//        --store=DIR runs the functional persistence probe instead:
//        archive through the sequential pipeline with a persistent
//        DupStore at DIR, spill, and print one parseable key=value line
//        (run twice against one DIR: identical archive_sha1, second run
//        store_misses=0 — the restart-equivalence CI leg)
//        --sched=static|adaptive (default static). static walks the
//        --batches list as before; adaptive discards the list and lets the
//        AIMD sizer discover the batch size: each iteration allocates the
//        concurrent working set through gpusim::Device::malloc on a device
//        with --device-mem bytes (the same accounting whose failure the
//        shims raise as OUT_OF_MEMORY), shrinking on rejection and growing
//        while measured throughput improves — converging below the memory
//        ceiling with no hardcoded 1 MB fallback (DESIGN.md §4h).
#include <iostream>
#include <span>
#include <sstream>

#include "bench_common.hpp"
#include "cluster/modeled.hpp"
#include "datagen/corpus.hpp"
#include "dedup/dup_store.hpp"
#include "dedup/modeled.hpp"
#include "dedup/pipelines.hpp"
#include "kernels/lzss.hpp"
#include "kernels/sha1.hpp"
#include "sched/sched.hpp"

namespace hs {
namespace {

/// --lzss=legacy|chain for every config this probe builds (default legacy:
/// the modeled rows are calibrated against the brute-force FindMatch cost).
kernels::LzssMode g_lzss_mode = kernels::LzssMode::kLegacy;

void apply_lzss(dedup::DedupConfig& cfg) {
  cfg.lzss.mode = g_lzss_mode;
  if (g_lzss_mode == kernels::LzssMode::kChain) {
    cfg.lzss.window_size = 4096;  // tuned chain config
    cfg.lzss.chain_depth = 2;
  }
}

/// --store=DIR: functional persistence probe. Archives `input` through the
/// sequential pipeline with a persistent DupStore attached to DIR, spills,
/// and prints one parseable key=value line. Run twice against the same
/// directory and the second run's store_misses must be 0 (every digest
/// recovered from the spilled segments) while the archive SHA-1 is
/// identical — the restart-equivalence contract the CI persistence leg
/// diffs.
int run_store_probe(std::span<const std::uint8_t> input,
                    const dedup::DedupConfig& dcfg, const std::string& dir) {
  dedup::DupStore store;
  Status st = store.open(dir);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  auto archive = dedup::archive_sequential(input, dcfg, &store);
  if (!archive.ok()) {
    std::cerr << archive.status().ToString() << "\n";
    return 1;
  }
  st = store.spill();
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  const dedup::DupStore::Stats s = store.stats();
  const auto digest = kernels::Sha1::hash(archive.value());
  std::cout << "store_probe archive_sha1=" << kernels::digest_hex(digest)
            << " archive_bytes=" << archive.value().size()
            << " blocks=" << s.store_hits + s.store_misses
            << " store_hits=" << s.store_hits
            << " store_misses=" << s.store_misses
            << " entries=" << s.entries
            << " segments_loaded=" << s.segments_loaded
            << " entries_recovered=" << s.entries_recovered
            << " truncated_segments=" << s.truncated_segments
            << " quarantined_segments=" << s.quarantined_segments
            << " spills=" << s.spills << "\n";
  return 0;
}

/// --sched=adaptive: AIMD probe. Returns the converged batch size.
int run_adaptive(std::span<const std::uint8_t> input, int replicas,
                 int mem_spaces, std::uint64_t device_mem,
                 std::string_view dataset, bool csv) {
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::TitanXP();
  spec.memory_bytes = device_mem;
  auto machine = gpusim::Machine::Create(1, spec);
  gpusim::Device& dev = machine->device(0);

  const std::uint64_t concurrency =
      static_cast<std::uint64_t>(replicas) *
      static_cast<std::uint64_t>(mem_spaces);
  sched::AimdConfig acfg;
  acfg.min_size = 4096;
  acfg.initial = 64 * 1024;
  acfg.add_step = 64 * 1024;
  // Batch sizes are uint32 in DedupConfig; also no point batching past the
  // whole input.
  acfg.max_size = std::min<std::uint64_t>(input.size(), 1u << 31);
  // Dedup batches are homogeneous (same data distribution at any offset),
  // so a throughput regression after a doubling really is the batch size's
  // fault — step back to the best size instead of holding the overshoot.
  acfg.backoff_on_regress = true;

  sched::AimdBatchSizer sizer(acfg);

  Table table("Dedup batch-size probe — adaptive (" + std::string(dataset) +
              ", " + format_bytes(input.size()) + ", " +
              std::to_string(replicas) + " replicas x " +
              std::to_string(mem_spaces) + " spaces, device " +
              format_bytes(device_mem) + ")");
  table.set_header(
      {"iter", "batch size", "device footprint", "throughput", "action"});

  int iter = 0;
  for (; !sizer.converged() && iter < 64; ++iter) {
    const std::uint64_t batch = sizer.current();
    // The pipeline's concurrent working set: per in-flight item, the batch
    // data plus the FindMatch result array — allocated for real so the
    // device's memory accounting (not a formula) decides whether it fits.
    const std::uint64_t per_space = batch * (1 + sizeof(kernels::LzssMatch));
    std::vector<void*> bufs;
    bufs.reserve(static_cast<std::size_t>(concurrency));
    bool fits = true;
    for (std::uint64_t i = 0; i < concurrency; ++i) {
      auto r = dev.malloc(per_space);
      if (!r.ok()) {
        fits = false;
        break;
      }
      bufs.push_back(r.value());
    }

    std::string throughput;
    std::string action;
    if (!fits) {
      sizer.on_reject();
      throughput = "CL_OUT_OF_RESOURCES";
      action = "shrink to " + format_bytes(sizer.current());
    } else {
      dedup::Fig5Config cfg;
      cfg.replicas = replicas;
      cfg.mem_spaces = mem_spaces;
      cfg.dedup.batch_size = static_cast<std::uint32_t>(batch);
      cfg.dedup.rabin.mask = 0x7FF;
      apply_lzss(cfg.dedup);
      cfg.dedup.rabin.max_block =
          std::min<std::uint32_t>(65536, static_cast<std::uint32_t>(batch));
      dedup::DedupTrace trace = dedup::build_trace(input, cfg.dedup);
      auto r = benchtool::ok_or_exit(
          cluster::run_fig5(trace, cfg, dedup::Fig5Backend::kSparOcl));
      throughput = format_fixed(r.throughput_mb_s, 1) + " MB/s";
      sizer.on_success(r.modeled_seconds /
                       static_cast<double>(input.size()));
      if (sizer.converged()) {
        action = sizer.current() == batch
                     ? "converged"
                     : "back off, converged at " +
                           format_bytes(sizer.current());
      } else if (sizer.current() > batch) {
        action = "grow to " + format_bytes(sizer.current());
      } else {
        action = "hold";
      }
    }
    for (void* p : bufs) (void)dev.free(p);
    table.add_row({std::to_string(iter), format_bytes(batch),
                   format_bytes(per_space * concurrency), throughput,
                   action});
  }

  if (csv) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::cout << "\nconverged at " << format_bytes(sizer.current())
              << " batches after " << iter << " probes (" << sizer.rejects()
              << " memory rejections, believed ceiling "
              << format_bytes(sizer.limit())
              << ") — the paper's 1 MB OpenCL fallback, discovered instead "
                 "of hardcoded.\n";
  }
  return 0;
}

int run(int argc, const char** argv) {
  auto args_or = CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::cerr << args_or.status().ToString() << "\n";
    return 1;
  }
  const CliArgs& args = args_or.value();
  auto input_size_or = args.get_positive_bytes("input-size", 8 * 1000 * 1000);
  auto replicas_or = args.get_positive_int("replicas", 19);
  auto mem_spaces_or = args.get_positive_int("mem-spaces", 2);
  auto device_mem_or =
      args.get_positive_bytes("device-mem", 12ull * 1024 * 1024 * 1024);
  auto sched_or = sched::parse_sched_mode(args.get_string("sched", "static"));
  for (const Status& s :
       {input_size_or.status(), replicas_or.status(), mem_spaces_or.status(),
        device_mem_or.status(), sched_or.status()}) {
    if (!s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  const std::uint64_t input_size = input_size_or.value();
  const int replicas = static_cast<int>(replicas_or.value());
  const int mem_spaces = static_cast<int>(mem_spaces_or.value());
  const std::uint64_t device_mem = device_mem_or.value();

  datagen::CorpusSpec spec;
  auto kind = datagen::parse_corpus_kind(args.get_string("dataset", "parsec"));
  if (!kind.ok()) {
    std::cerr << kind.status().ToString() << "\n";
    return 1;
  }
  spec.kind = kind.value();
  spec.bytes = input_size;
  auto input = datagen::generate(spec);

  const std::string lzss_name = args.get_string("lzss", "legacy");
  if (!kernels::parse_lzss_mode(lzss_name, g_lzss_mode)) {
    std::cerr << "unknown --lzss='" << lzss_name
              << "' (expected legacy|chain)\n";
    return 1;
  }

  if (args.has("store")) {
    const std::string dir = args.get_string("store", "");
    if (dir.empty()) {
      std::cerr << "--store requires a directory path\n";
      return 1;
    }
    dedup::DedupConfig dcfg;
    dcfg.batch_size = 256 * 1024;
    dcfg.rabin.mask = 0x7FF;
    apply_lzss(dcfg);
    return run_store_probe(input, dcfg, dir);
  }

  if (sched_or.value() == sched::SchedMode::kAdaptive) {
    return run_adaptive(input, replicas, mem_spaces, device_mem,
                        datagen::corpus_name(spec.kind),
                        args.get_bool("csv", false));
  }

  std::vector<std::uint64_t> batch_sizes;
  {
    std::stringstream ss(args.get_string(
        "batches", "65536,131072,262144,524288,1048576,2097152,10485760"));
    for (std::string tok; std::getline(ss, tok, ',');) {
      auto v = parse_bytes(tok);
      if (v.ok() && v.value() > 0) batch_sizes.push_back(v.value());
    }
  }

  Table table("Dedup batch-size probe (" +
              std::string(datagen::corpus_name(spec.kind)) + ", " +
              format_bytes(input_size) + ", " + std::to_string(replicas) +
              " replicas x " + std::to_string(mem_spaces) +
              " spaces, device " + format_bytes(device_mem) + ")");
  table.set_header({"batch size", "batches", "throughput", "device footprint",
                    "fits?"});

  for (std::uint64_t batch : batch_sizes) {
    dedup::Fig5Config cfg;
    cfg.replicas = replicas;
    cfg.mem_spaces = mem_spaces;
    cfg.dedup.batch_size = static_cast<std::uint32_t>(batch);
    cfg.dedup.rabin.mask = 0x7FF;
    apply_lzss(cfg.dedup);
    cfg.dedup.rabin.max_block =
        std::min<std::uint32_t>(65536, static_cast<std::uint32_t>(batch));

    // Per-space footprint: batch data + FindMatch results; one space per
    // in-flight item, replicas * mem_spaces concurrent items per device.
    const std::uint64_t per_space =
        batch * (1 + sizeof(kernels::LzssMatch));
    const std::uint64_t footprint =
        per_space * static_cast<std::uint64_t>(replicas) *
        static_cast<std::uint64_t>(mem_spaces);
    const bool fits = footprint <= device_mem;

    std::string throughput = "-";
    std::string nbatches = "-";
    if (fits) {
      dedup::DedupTrace trace = dedup::build_trace(input, cfg.dedup);
      auto r = benchtool::ok_or_exit(
          cluster::run_fig5(trace, cfg, dedup::Fig5Backend::kSparOcl));
      throughput = format_fixed(r.throughput_mb_s, 1) + " MB/s";
      nbatches = std::to_string(trace.batches.size());
    } else {
      throughput = "CL_OUT_OF_RESOURCES";
    }
    table.add_row({format_bytes(batch), nbatches, throughput,
                   format_bytes(footprint), fits ? "yes" : "NO"});
  }

  if (args.get_bool("csv", false)) {
    table.render_csv(std::cout);
  } else {
    table.render(std::cout);
    std::cout << "\nthe paper hit this wall at 10 MB batches and fell back "
                 "to 1 MB (try --device-mem=1GiB to move the boundary).\n";
  }
  return 0;
}

}  // namespace
}  // namespace hs

int main(int argc, const char** argv) { return hs::run(argc, argv); }
