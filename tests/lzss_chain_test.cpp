// Differential suite for the hash-chain LZSS match finder (DESIGN.md §4j):
// chain-mode streams must round-trip exactly, be bit-identical across SIMD
// levels and across pipeline variants (inline encode vs batched
// find_matches_batch), and legacy mode must be untouched by the new
// machinery. Inputs sweep the shapes that stress a chain matcher: pure
// random (hash collisions only), highly repetitive (deep chains, max-length
// matches), corpus-shaped text, and every length 0..300 to hit the
// block-tail guards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "kernels/lzss.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/lzss_chain.hpp"

namespace hs::kernels {

namespace simd {
/// Test-only access to the matcher's tag, so the wrap path runs without
/// feeding 4 GiB of input.
struct LzssChainMatcherTestPeer {
  static void set_tag(LzssChainMatcher& m, std::uint32_t tag) {
    m.tag_ = tag;
  }
};
}  // namespace simd

namespace {

namespace simd = hs::kernels::simd;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (simd::Level l : {simd::Level::kSse42, simd::Level::kAvx2}) {
    if (simd::supports(l)) levels.push_back(l);
  }
  return levels;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Mix of literal runs and copied back-references — compressible with
/// varied offsets/lengths, the adversarial middle ground between random
/// and constant.
std::vector<std::uint8_t> structured_bytes(std::size_t n,
                                           std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    if (out.size() > 8 && rng() % 3 != 0) {
      const std::size_t off = 1 + rng() % std::min<std::size_t>(
                                              out.size() - 1, 5000);
      std::size_t len = 3 + rng() % 40;
      for (std::size_t i = 0; i < len && out.size() < n; ++i) {
        out.push_back(out[out.size() - off]);
      }
    } else {
      std::size_t len = 1 + rng() % 12;
      for (std::size_t i = 0; i < len && out.size() < n; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
  }
  return out;
}

LzssParams chain_params(std::uint32_t window = 4096,
                        std::uint32_t depth = 8) {
  LzssParams p;
  p.mode = LzssMode::kChain;
  p.window_size = window;
  p.chain_depth = depth;
  return p;
}

void expect_round_trip(std::span<const std::uint8_t> input,
                       const LzssParams& params, const std::string& label) {
  const std::vector<std::uint8_t> encoded = lzss_encode(input, params);
  auto decoded = lzss_decode(encoded, input.size(), params);
  ASSERT_TRUE(decoded.ok()) << label << ": " << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), input.size()) << label;
  EXPECT_TRUE(std::equal(input.begin(), input.end(),
                         decoded.value().begin()))
      << label;
}

TEST(LzssChainTest, ModeNames) {
  EXPECT_EQ(lzss_mode_name(LzssMode::kLegacy), "legacy");
  EXPECT_EQ(lzss_mode_name(LzssMode::kChain), "chain");
  LzssMode m = LzssMode::kLegacy;
  EXPECT_TRUE(parse_lzss_mode("chain", m));
  EXPECT_EQ(m, LzssMode::kChain);
  EXPECT_TRUE(parse_lzss_mode("legacy", m));
  EXPECT_EQ(m, LzssMode::kLegacy);
  m = LzssMode::kChain;
  EXPECT_FALSE(parse_lzss_mode("brute", m));
  EXPECT_EQ(m, LzssMode::kChain);  // untouched on failure
  EXPECT_FALSE(parse_lzss_mode("", m));
}

TEST(LzssChainTest, ParamsValidation) {
  LzssParams p = chain_params();
  EXPECT_TRUE(p.valid());
  p.chain_depth = 0;
  EXPECT_FALSE(p.valid());
  p = chain_params(8192);  // exceeds the 12 offset bits
  EXPECT_FALSE(p.valid());
}

TEST(LzssChainTest, RoundTripAllLengths) {
  const simd::Level saved = simd::active_level();
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto rnd = random_bytes(n, 0x1000 + n);
    const auto rep = std::vector<std::uint8_t>(n, 0x41);
    expect_round_trip(rnd, chain_params(), "random n=" + std::to_string(n));
    expect_round_trip(rep, chain_params(), "const n=" + std::to_string(n));
  }
  simd::set_active_level(saved);
}

TEST(LzssChainTest, RoundTripFuzzAllLevelsBothModes) {
  const simd::Level saved = simd::active_level();
  for (simd::Level level : supported_levels()) {
    simd::set_active_level(level);
    const std::string lv(simd::level_name(level));
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const auto input = structured_bytes(40000 + 977 * seed, seed);
      for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
        for (std::uint32_t window : {256u, 4096u}) {
          LzssParams p = chain_params(window);
          p.mode = mode;
          expect_round_trip(input, p,
                            lv + " seed=" + std::to_string(seed) + " mode=" +
                                std::string(lzss_mode_name(mode)) +
                                " w=" + std::to_string(window));
        }
      }
    }
  }
  simd::set_active_level(saved);
}

TEST(LzssChainTest, ChainStreamBitIdenticalAcrossLevels) {
  const simd::Level saved = simd::active_level();
  const auto levels = supported_levels();
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto input = structured_bytes(120000, 0xC0FFEE + seed);
    simd::set_active_level(simd::Level::kScalar);
    const auto reference = lzss_encode(input, chain_params());
    for (simd::Level level : levels) {
      simd::set_active_level(level);
      const auto encoded = lzss_encode(input, chain_params());
      EXPECT_EQ(encoded, reference)
          << "level " << simd::level_name(level) << " seed " << seed;
    }
  }
  simd::set_active_level(saved);
}

// The purity contract: per-block inline encode and the whole-batch
// find_matches_batch + encode walk must produce the same bytes, in both
// modes — this is what makes every pipeline variant (CPU inline, simulated
// GPU FindMatch kernel) emit identical archives.
TEST(LzssChainTest, InlineMatchesBatchedFindMatches) {
  for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
    LzssParams p = chain_params();
    p.mode = mode;
    const auto input = structured_bytes(90000, 0xBA7C4);
    // Uneven block bounds, including a tiny tail block.
    std::vector<std::uint32_t> starts{0, 1777, 1800, 30000, 89997};
    std::vector<LzssMatch> matches;
    find_matches_batch(input, starts, p, matches);
    ASSERT_EQ(matches.size(), input.size());
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::size_t b = starts[k];
      const std::size_t e =
          k + 1 < starts.size() ? starts[k + 1] : input.size();
      const auto inline_bytes =
          lzss_encode(input, b, e, p);
      const auto walked =
          lzss_encode_from_matches(input, b, e, matches, p);
      EXPECT_EQ(inline_bytes, walked)
          << "mode " << lzss_mode_name(mode) << " block " << k;
    }
  }
}

// Chain mode with a depth large enough to see every window candidate still
// differs from legacy only in tie order — both must round-trip and both
// must compress repetitive data hard.
TEST(LzssChainTest, CompressionRatioSanity) {
  const auto input = datagen::generate(
      {datagen::CorpusKind::kSourceLike, 200000, 42});
  LzssParams legacy_params;  // the seed dedup config: window 256
  legacy_params.window_size = 256;
  const auto legacy = lzss_encode(input, legacy_params);
  const auto chain = lzss_encode(input, chain_params(4096, 2));
  // The tuned chain config (bigger window) must compress at least as well
  // as legacy's window-256 brute force, with a little slack for its
  // bounded depth.
  EXPECT_LT(static_cast<double>(chain.size()),
            static_cast<double>(legacy.size()) * 1.02)
      << "chain " << chain.size() << " vs legacy " << legacy.size();
  // And both decode.
  expect_round_trip(input, chain_params(4096, 2), "ratio-chain");
}

// PooledBuffer sink must emit the same bytes as the vector overload (the
// chain walk's RawBitWriter arena path is shared by both).
TEST(LzssChainTest, PooledSinkMatchesVector) {
  const auto input = structured_bytes(50000, 0x9);
  for (LzssMode mode : {LzssMode::kLegacy, LzssMode::kChain}) {
    LzssParams p = chain_params();
    p.mode = mode;
    const auto expect = lzss_encode(input, 0, input.size(), p);
    PooledBuffer out;
    lzss_encode(input, 0, input.size(), p, out);
    ASSERT_EQ(out.size(), expect.size());
    EXPECT_EQ(0, std::memcmp(out.data(), expect.data(), out.size()))
        << lzss_mode_name(mode);
  }
}

/// Bytes drawn from {first, ..., first + 3}: at most 64 distinct trigrams,
/// so they touch at most 64 head buckets.
std::vector<std::uint8_t> four_symbol_bytes(std::size_t n, std::uint8_t first,
                                            std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(first + rng() % 4);
  return out;
}

/// find_insert at every searchable position of `input` as one block.
std::vector<LzssMatch> matcher_matches(simd::LzssChainMatcher& m,
                                       std::span<const std::uint8_t> input,
                                       const LzssParams& p) {
  m.reset(input, p, simd::Level::kScalar);
  simd::LzssChainMatcher::Block blk = m.block(0, input.size());
  std::vector<LzssMatch> out(input.size());
  for (std::uint32_t pos = 0; pos < blk.search_end(); ++pos) {
    out[pos] = blk.find_insert(pos);
  }
  return out;
}

bool same_matches(const std::vector<LzssMatch>& a,
                  const std::vector<LzssMatch>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LzssMatch& x, const LzssMatch& y) {
                      return x.length == y.length && x.offset == y.offset;
                    });
}

// The tag wrap: a matcher whose tags run up to the u32 limit and then
// restart must answer exactly like a fresh matcher. The inputs are built
// so that stale entries would show: `a` (random) runs first at tags from
// 1; `b` touches only the 64 buckets of its 4-symbol alphabet, on the
// last tags that fit; then `c` runs on the restarted tags. `c` is `a` with
// every third byte flipped, followed by `a` itself, so each trigram of
// its second half would find `a`'s leftover entry for that trigram at the
// same tag — now naming the same offset in `c`'s first half, whose first
// two bytes still match for every third position. At min_match 2 that is
// a match a fresh matcher never reports; only the clear at the wrap
// removes those entries.
TEST(LzssChainTest, TagWrapMatchesFreshMatcher) {
  const auto a = random_bytes(3000, 0x3A9);
  const auto b = four_symbol_bytes(20000, 'w', 2);
  std::vector<std::uint8_t> c = a;
  for (std::size_t i = 2; i < c.size(); i += 3) c[i] ^= 0x55;
  c.insert(c.end(), a.begin(), a.end());
  LzssParams p = chain_params(4096, 8);
  p.min_match = 2;
  p.max_match = 17;
  ASSERT_TRUE(p.valid());
  auto fresh = [&](std::span<const std::uint8_t> input) {
    simd::LzssChainMatcher m;
    return matcher_matches(m, input, p);
  };

  simd::LzssChainMatcher m;
  EXPECT_TRUE(same_matches(matcher_matches(m, a, p), fresh(a)));
  // reset() adds the previous input's size, so `b` runs on the last tags
  // that fit: [UINT32_MAX - b.size(), UINT32_MAX).
  simd::LzssChainMatcherTestPeer::set_tag(
      m, std::numeric_limits<std::uint32_t>::max() -
             static_cast<std::uint32_t>(a.size() + b.size()));
  EXPECT_TRUE(same_matches(matcher_matches(m, b, p), fresh(b)));
  // `c` no longer fits: the tag wraps back to 1.
  EXPECT_TRUE(same_matches(matcher_matches(m, c, p), fresh(c)));
  expect_round_trip(c, p, "min_match 2");
}

/// One shape of fuzz input for the legacy differential below.
std::vector<std::uint8_t> legacy_fuzz_input(std::uint32_t shape,
                                            std::size_t n,
                                            std::uint64_t seed) {
  std::vector<std::uint8_t> out(n);
  switch (shape) {
    case 0: return random_bytes(n, seed);
    case 1: return four_symbol_bytes(n, 'a', seed);
    case 2: return out;  // all zero
    case 3:
      for (std::size_t i = 0; i < n; ++i) out[i] = i % 2 ? 0x5A : 0xA5;
      return out;
    case 4:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(i % 251);
      }
      return out;
    case 5: return structured_bytes(n, seed);
    default: {
      const datagen::CorpusKind kinds[] = {datagen::CorpusKind::kParsecLike,
                                           datagen::CorpusKind::kSourceLike,
                                           datagen::CorpusKind::kSilesiaLike};
      return datagen::generate({kinds[seed % 3], n, seed});
    }
  }
}

/// Sorted block starts over n bytes (starts[0] == 0): a mix of long
/// blocks and 1- and 2-byte ones.
std::vector<std::uint32_t> uneven_starts(std::size_t n, Xoshiro256& rng) {
  std::vector<std::uint32_t> starts{0};
  while (true) {
    const std::uint64_t r = rng() % 8;
    const std::size_t len = r == 0   ? 1
                            : r == 1 ? 2
                                     : 3 + rng() % 6000;
    const std::size_t next = starts.back() + len;
    if (next >= n) break;
    starts.push_back(static_cast<std::uint32_t>(next));
  }
  return starts;
}

/// find_insert_exact at every searchable position of every block, all
/// blocks inserted into one matcher (the batched form).
std::vector<LzssMatch> exact_matches(simd::LzssChainMatcher& m,
                                     std::span<const std::uint8_t> input,
                                     std::span<const std::uint32_t> starts,
                                     const LzssParams& p) {
  m.reset(input, p, simd::active_level());
  std::vector<LzssMatch> out(input.size());
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const std::size_t e =
        k + 1 < starts.size() ? starts[k + 1] : input.size();
    simd::LzssChainMatcher::Block blk = m.block(starts[k], e);
    for (std::uint32_t pos = starts[k]; pos < blk.search_end(); ++pos) {
      out[pos] = blk.find_insert_exact(pos);
    }
  }
  return out;
}

// The legacy encoder finds its matches through the exact chain walk; the
// oracle is the brute-force scan (lzss_longest_match, which
// find_matches_batch runs in legacy mode) fed to the plain encode walk.
// Seeded iterations at every SIMD level sweep windows 2..4096, min_match
// 2..4 and max_match, input shapes from random to all-zero runs, and
// uneven block bounds. Each iteration checks the encoded bytes per block
// and, for min_match >= 3, the exact walk's match at every position. The
// tail drives the walk across the tag wrap.
TEST(LzssChainTest, LegacyEncodeMatchesScanOracle) {
  const simd::Level saved = simd::active_level();
  constexpr std::uint32_t kWindows[] = {2,   3,   4,    7,    16,   17,  18,
                                        19,  64,  251,  256,  1000, 2048,
                                        4095, 4096};
  for (simd::Level level : supported_levels()) {
    simd::set_active_level(level);
    Xoshiro256 rng(0x1E6AC7 + static_cast<std::uint64_t>(level));
    for (std::uint32_t iter = 0; iter < 70; ++iter) {
      LzssParams p;
      p.window_size = kWindows[rng() % std::size(kWindows)];
      p.min_match = 2 + static_cast<std::uint32_t>(rng() % 3);
      p.max_match = p.min_match + 1 + static_cast<std::uint32_t>(rng() % 15);
      ASSERT_TRUE(p.valid());
      const std::uint32_t shape = iter % 7;
      const std::size_t n = 1 + rng() % 14000;
      const auto input = legacy_fuzz_input(shape, n, rng());
      const auto starts = uneven_starts(n, rng);
      const std::string label =
          std::string(simd::level_name(level)) + " iter " +
          std::to_string(iter) + " shape " + std::to_string(shape) +
          " n " + std::to_string(n) + " w " + std::to_string(p.window_size) +
          " min " + std::to_string(p.min_match) + " max " +
          std::to_string(p.max_match);

      std::vector<LzssMatch> oracle;
      find_matches_batch(input, starts, p, oracle);
      for (std::size_t k = 0; k < starts.size(); ++k) {
        const std::size_t b = starts[k];
        const std::size_t e = k + 1 < starts.size() ? starts[k + 1] : n;
        ASSERT_EQ(lzss_encode(input, b, e, p),
                  lzss_encode_from_matches(input, b, e, oracle, p))
            << label << " block " << k << " [" << b << ", " << e << ")";
      }
      if (p.min_match >= simd::LzssChainMatcher::kHashBytes) {
        simd::LzssChainMatcher m;
        ASSERT_TRUE(same_matches(exact_matches(m, input, starts, p), oracle))
            << label;
      }
    }
  }
  simd::set_active_level(saved);

  // Across the tag wrap, on the inputs of TagWrapMatchesFreshMatcher: `b`
  // runs on the last tags that fit, then `c` on the restarted ones.
  const auto a = random_bytes(3000, 0x3A9);
  const auto b = four_symbol_bytes(20000, 'w', 2);
  std::vector<std::uint8_t> c = a;
  for (std::size_t i = 2; i < c.size(); i += 3) c[i] ^= 0x55;
  c.insert(c.end(), a.begin(), a.end());
  LzssParams p;
  simd::LzssChainMatcher m;
  const auto oracle = [&](std::span<const std::uint8_t> input) {
    std::vector<LzssMatch> out;
    const std::uint32_t starts[] = {0};
    find_matches_batch(input, starts, p, out);
    return out;
  };
  const std::uint32_t whole[] = {0};
  EXPECT_TRUE(same_matches(exact_matches(m, a, whole, p), oracle(a)));
  simd::LzssChainMatcherTestPeer::set_tag(
      m, std::numeric_limits<std::uint32_t>::max() -
             static_cast<std::uint32_t>(a.size() + b.size()));
  EXPECT_TRUE(same_matches(exact_matches(m, b, whole, p), oracle(b)));
  EXPECT_TRUE(same_matches(exact_matches(m, c, whole, p), oracle(c)));
}

}  // namespace
}  // namespace hs::kernels
