// Golden pins for chain-mode (LzssMode::kChain) output.
//
// dedup_golden_test pins the legacy-mode archives and lzss_chain_test
// checks the chain variants against each other; this file pins the chain
// bytes themselves, so a matcher rewrite that changes what any chain
// variant emits fails here even when every variant changes the same way.
// Three layers are pinned:
//   * archive_sequential at the benchmark's chain config (256 KiB batches,
//     rabin mask 0x7FF, window 4096, depth 2) on the 8 MB corpora;
//   * lzss_encode streams for several (window, depth) pairs, including a
//     window that is not a power of two, over uneven block bounds with
//     blocks shorter than the 3 hashed bytes;
//   * the find_matches_batch match arrays (the simulated-GPU FindMatch
//     form) for the same cases.
// The small cases run at every SIMD level this host supports; CI runs the
// whole file under each HS_SIMD level.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "datagen/corpus.hpp"
#include "dedup/pipelines.hpp"
#include "kernels/lzss.hpp"
#include "kernels/sha1.hpp"
#include "kernels/simd/dispatch.hpp"

namespace hs::kernels {
namespace {

namespace simd = hs::kernels::simd;

std::string sha1_hex(std::span<const std::uint8_t> data) {
  static constexpr char kHex[] = "0123456789abcdef";
  const auto digest = Sha1::hash(data);
  std::string out;
  for (std::uint8_t b : digest) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kSse42, simd::Level::kAvx2}) {
    if (simd::supports(l)) levels.push_back(l);
  }
  return levels;
}

dedup::DedupConfig bench_chain_config() {
  dedup::DedupConfig cfg;
  cfg.batch_size = 256 * 1024;
  cfg.rabin.mask = 0x7FF;
  cfg.lzss.mode = LzssMode::kChain;
  cfg.lzss.window_size = 4096;
  cfg.lzss.chain_depth = 2;
  return cfg;
}

struct ArchivePin {
  datagen::CorpusKind kind;
  const char* name;
  std::uint64_t archive_bytes;
  const char* archive_sha1;
};

// Recorded from the generation-tagged 64-bit-head matcher with
// bench_chain_config() on the deterministic 8'000'000-byte corpora.
constexpr ArchivePin kArchivePins[] = {
    {datagen::CorpusKind::kParsecLike, "parsec", 4705074,
     "45fb48a14bcbd89513af192eabdcb65fde95f050"},
    {datagen::CorpusKind::kSourceLike, "source", 2199894,
     "2caef612f02423fea713395971ecef73bbeb9b49"},
    {datagen::CorpusKind::kSilesiaLike, "silesia", 5239280,
     "af5bf460d756efe1a9961a69c5b3d2b4708d5922"},
};

TEST(LzssChainGoldenTest, ArchiveSequentialAtBenchChainConfig) {
  for (const ArchivePin& pin : kArchivePins) {
    SCOPED_TRACE(pin.name);
    datagen::CorpusSpec spec;
    spec.kind = pin.kind;
    spec.bytes = 8 * 1000 * 1000;
    const auto input = datagen::generate(spec);
    auto archive = dedup::archive_sequential(input, bench_chain_config());
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    EXPECT_EQ(archive.value().size(), pin.archive_bytes);
    EXPECT_EQ(sha1_hex(archive.value()), pin.archive_sha1);
  }
}

/// 120 kB of corpus text followed by 40 kB of its own repeats and 20 kB
/// of a second corpus kind: deep chains, max-length matches and
/// collision-only stretches in one input.
std::vector<std::uint8_t> stream_input() {
  auto out = datagen::generate({datagen::CorpusKind::kSourceLike, 120000, 7});
  const auto tail =
      datagen::generate({datagen::CorpusKind::kSilesiaLike, 20000, 11});
  for (std::size_t i = 0; i < 40000; ++i) out.push_back(out[i * 3 % 9000]);
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// Uneven block starts: a 2-byte block, a 1-byte block, a block exactly
/// one window long, and a 1-byte tail.
std::vector<std::uint32_t> stream_block_starts(std::size_t n) {
  return {0,     1777,  1800,  1802,  1803,  30000, 34096,
          65537, 99999, 150000, static_cast<std::uint32_t>(n - 1)};
}

struct StreamPin {
  std::uint32_t window;
  std::uint32_t depth;
  const char* encode_sha1;   ///< every block's lzss_encode, length-framed
  const char* matches_sha1;  ///< the find_matches_batch array
};

// Recorded from the same matcher on stream_input() / stream_block_starts().
constexpr StreamPin kStreamPins[] = {
    {256, 1, "aa18a6e08b5047872c61bf348049cda0620e2272",
     "22777b1d7b88c594fa1398940a22d63a82862aa5"},
    {4096, 2, "7a8480ef672770dad4da39ae1a72d5ca64365846",
     "b24fe372d4374c93a1fe44894d85264dc76278e7"},
    {4096, 8, "db3b9d5e82c8c4fbf888760e50880a751910e013",
     "995572586fb6fd72f422ba34ec7b0dde038beccb"},
    {1000, 4, "4a84d17ad1dbb6eb9b740e5e1ac12159d98d9aa7",
     "b279dc9a2b5f8585151222d462063776b7d7689d"},
};

TEST(LzssChainGoldenTest, EncodeStreamsAndBatchedMatches) {
  const simd::Level saved = simd::active_level();
  const auto input = stream_input();
  const auto starts = stream_block_starts(input.size());
  for (simd::Level level : supported_levels()) {
    simd::set_active_level(level);
    for (const StreamPin& pin : kStreamPins) {
      SCOPED_TRACE(std::string(simd::level_name(level)) +
                   " window=" + std::to_string(pin.window) +
                   " depth=" + std::to_string(pin.depth));
      LzssParams p;
      p.mode = LzssMode::kChain;
      p.window_size = pin.window;
      p.chain_depth = pin.depth;
      ASSERT_TRUE(p.valid());

      std::vector<std::uint8_t> framed;
      for (std::size_t k = 0; k < starts.size(); ++k) {
        const std::size_t b = starts[k];
        const std::size_t e =
            k + 1 < starts.size() ? starts[k + 1] : input.size();
        const auto bytes = lzss_encode(input, b, e, p);
        put_u32(framed, static_cast<std::uint32_t>(bytes.size()));
        framed.insert(framed.end(), bytes.begin(), bytes.end());
      }
      EXPECT_EQ(sha1_hex(framed), pin.encode_sha1);

      std::vector<LzssMatch> matches;
      find_matches_batch(input, starts, p, matches);
      ASSERT_EQ(matches.size(), input.size());
      std::vector<std::uint8_t> packed;
      packed.reserve(matches.size() * 4);
      for (const LzssMatch& m : matches) {
        put_u32(packed, static_cast<std::uint32_t>(m.length) |
                            (static_cast<std::uint32_t>(m.offset) << 16));
      }
      EXPECT_EQ(sha1_hex(packed), pin.matches_sha1);
    }
  }
  simd::set_active_level(saved);
}

}  // namespace
}  // namespace hs::kernels
