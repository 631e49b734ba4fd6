// Generates the synthetic corpora (the stand-ins for the paper's three
// Dedup datasets) to a file, for use with dedup_file or external tools.
//
//   ./make_corpus <parsec|source|silesia> <output> [--size=BYTES] [--seed=N]
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "datagen/corpus.hpp"

int main(int argc, const char** argv) {
  auto args_or = hs::CliArgs::Parse(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "%s\n", args_or.status().ToString().c_str());
    return 1;
  }
  const hs::CliArgs& args = args_or.value();
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: make_corpus <parsec|source|silesia> <output> "
                 "[--size=BYTES] [--seed=N]\n");
    return 2;
  }
  auto kind = hs::datagen::parse_corpus_kind(args.positional()[0]);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  hs::datagen::CorpusSpec spec;
  spec.kind = kind.value();
  spec.bytes = args.get_bytes("size", 16 * 1000 * 1000);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  auto data = hs::datagen::generate(spec);
  auto profile = hs::datagen::profile(data);

  std::ofstream out(args.positional()[1], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", args.positional()[1].c_str());
    return 1;
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) {
    std::fprintf(stderr, "short write\n");
    return 1;
  }
  std::printf("%s: %s of %s (duplicate blocks %.0f%%, lzss ratio %.2f)\n",
              args.positional()[1].c_str(),
              hs::format_bytes(spec.bytes).c_str(),
              std::string(hs::datagen::corpus_name(spec.kind)).c_str(),
              profile.duplicate_block_fraction * 100, profile.lzss_ratio);
  return 0;
}
