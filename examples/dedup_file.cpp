// Dedup as a usable tool (the paper's second use case): content-defined
// dedup + LZSS compression of real files, with every pipeline backend.
//
//   ./dedup_file compress <input> <output> [--backend=seq|spar|spar-cuda|opencl]
//                [--replicas=N] [--batch-size=BYTES] [--gpus=N]
//   ./dedup_file extract  <archive> <output>
//   ./dedup_file info     <archive>
//   ./dedup_file demo     — generates a corpus, compresses, verifies
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "cudax/cudax.hpp"
#include "datagen/corpus.hpp"
#include "dedup/pipelines.hpp"

namespace {

hs::Result<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return hs::NotFound("cannot open " + path);
  std::vector<std::uint8_t> data((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  return data;
}

hs::Status write_file(const std::string& path,
                      const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return hs::Internal("cannot open " + path + " for write");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? hs::OkStatus() : hs::Internal("short write to " + path);
}

hs::Result<std::vector<std::uint8_t>> compress(
    const std::vector<std::uint8_t>& input, const hs::CliArgs& args) {
  hs::dedup::DedupConfig cfg;
  cfg.batch_size = static_cast<std::uint32_t>(
      args.get_bytes("batch-size", 1 << 20));
  const std::string backend = args.get_string("backend", "spar");
  const int replicas = static_cast<int>(args.get_int("replicas", 4));
  const int gpus = static_cast<int>(args.get_int("gpus", 1));

  if (backend == "seq") {
    return hs::dedup::archive_sequential(input, cfg);
  }
  if (backend == "spar") {
    return hs::dedup::archive_spar_cpu(input, cfg, replicas);
  }
  if (backend == "spar-cuda") {
    auto machine =
        hs::gpusim::Machine::Create(gpus, hs::gpusim::DeviceSpec::TitanXP());
    hs::cudax::bind_machine(machine.get());
    auto r = hs::dedup::archive_spar_cuda(input, cfg, replicas, *machine);
    hs::cudax::unbind_machine();
    return r;
  }
  if (backend == "opencl") {
    auto machine =
        hs::gpusim::Machine::Create(gpus, hs::gpusim::DeviceSpec::TitanXP());
    return hs::dedup::archive_opencl_single_thread(input, cfg, *machine,
                                                   /*batched_kernel=*/true);
  }
  return hs::InvalidArgument("unknown backend '" + backend +
                             "' (use seq|spar|spar-cuda|opencl)");
}

int do_info(const std::vector<std::uint8_t>& archive) {
  auto info = hs::dedup::inspect(archive);
  if (!info.ok()) {
    std::fprintf(stderr, "inspect failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  const auto& v = info.value();
  std::printf("original size       : %s\n",
              hs::format_bytes(v.original_size).c_str());
  std::printf("archive batches     : %llu\n",
              static_cast<unsigned long long>(v.batch_count));
  std::printf("unique blocks       : %llu\n",
              static_cast<unsigned long long>(v.unique_blocks));
  std::printf("duplicate blocks    : %llu\n",
              static_cast<unsigned long long>(v.duplicate_blocks));
  std::printf("compressed payload  : %s\n",
              hs::format_bytes(v.compressed_payload_bytes).c_str());
  if (v.original_size > 0) {
    std::printf("dedup+compress ratio: %.1f%%\n",
                100.0 * static_cast<double>(v.compressed_payload_bytes) /
                    static_cast<double>(v.original_size));
  }
  return 0;
}

int do_demo(const hs::CliArgs& args) {
  hs::datagen::CorpusSpec spec;
  spec.kind = hs::datagen::CorpusKind::kParsecLike;
  spec.bytes = args.get_bytes("input-size", 2 * 1000 * 1000);
  std::printf("generating %s parsec-like corpus...\n",
              hs::format_bytes(spec.bytes).c_str());
  auto input = hs::datagen::generate(spec);

  for (const char* backend : {"seq", "spar", "spar-cuda", "opencl"}) {
    auto v = hs::CliArgs::Parse(0, nullptr);
    auto archive = [&] {
      hs::dedup::DedupConfig cfg;
      cfg.batch_size = 256 * 1024;
      if (std::string(backend) == "seq") {
        return hs::dedup::archive_sequential(input, cfg);
      }
      if (std::string(backend) == "spar") {
        return hs::dedup::archive_spar_cpu(input, cfg, 4);
      }
      auto machine = hs::gpusim::Machine::Create(
          2, hs::gpusim::DeviceSpec::TitanXP());
      if (std::string(backend) == "spar-cuda") {
        hs::cudax::bind_machine(machine.get());
        auto r = hs::dedup::archive_spar_cuda(input, cfg, 4, *machine);
        hs::cudax::unbind_machine();
        return r;
      }
      return hs::dedup::archive_opencl_single_thread(input, cfg, *machine,
                                                     true);
    }();
    if (!archive.ok()) {
      std::fprintf(stderr, "[%s] failed: %s\n", backend,
                   archive.status().ToString().c_str());
      return 1;
    }
    auto back = hs::dedup::extract(archive.value());
    bool ok = back.ok() && back.value() == input;
    std::printf("[%-9s] archive %s (%.1f%% of input), roundtrip %s\n",
                backend, hs::format_bytes(archive.value().size()).c_str(),
                100.0 * static_cast<double>(archive.value().size()) /
                    static_cast<double>(input.size()),
                ok ? "OK" : "FAILED");
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, const char** argv) {
  auto args_or = hs::CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "%s\n", args_or.status().ToString().c_str());
    return 1;
  }
  const hs::CliArgs& args = args_or.value();
  const auto& pos = args.positional();
  const std::string mode = pos.empty() ? "demo" : pos[0];

  if (mode == "demo") return do_demo(args);

  if (mode == "info" && pos.size() == 2) {
    auto archive = read_file(pos[1]);
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    return do_info(archive.value());
  }

  if (mode == "compress" && pos.size() == 3) {
    auto input = read_file(pos[1]);
    if (!input.ok()) {
      std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
      return 1;
    }
    auto archive = compress(input.value(), args);
    if (!archive.ok()) {
      std::fprintf(stderr, "compress failed: %s\n",
                   archive.status().ToString().c_str());
      return 1;
    }
    if (hs::Status s = write_file(pos[2], archive.value()); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("%s -> %s (%s -> %s)\n", pos[1].c_str(), pos[2].c_str(),
                hs::format_bytes(input.value().size()).c_str(),
                hs::format_bytes(archive.value().size()).c_str());
    return 0;
  }

  if (mode == "extract" && pos.size() == 3) {
    auto archive = read_file(pos[1]);
    if (!archive.ok()) {
      std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
      return 1;
    }
    auto data = args.get_bool("parallel", false)
                    ? hs::dedup::extract_parallel(
                          archive.value(),
                          static_cast<int>(args.get_int("replicas", 4)))
                    : hs::dedup::extract(archive.value());
    if (!data.ok()) {
      std::fprintf(stderr, "extract failed: %s\n",
                   data.status().ToString().c_str());
      return 1;
    }
    if (hs::Status s = write_file(pos[2], data.value()); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("extracted %s (integrity verified)\n",
                hs::format_bytes(data.value().size()).c_str());
    return 0;
  }

  std::fprintf(stderr,
               "usage: dedup_file compress <in> <out> [--backend=...]\n"
               "       dedup_file extract <archive> <out>\n"
               "       dedup_file info <archive>\n"
               "       dedup_file demo [--input-size=BYTES]\n");
  return 2;
}
