// Tests of the benchmark's own logic: the percentile routine, the
// stage-composed archive behind the dedup.* breakdown, and the goodput
// ladder rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "datagen/corpus.hpp"
#include "dedup/pipelines.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Oracle: full sort, then the R-7 interpolation written out directly.
double sorted_percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0) return v[lo];
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

TEST(Percentile, MatchesSortOracleOnRandomSamples) {
  hs::Xoshiro256 rng(7);
  for (std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform() * 100.0;
    // Ties, too.
    if (n > 4) v[1] = v[3] = v[n - 1];
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      std::vector<double> work = v;
      EXPECT_DOUBLE_EQ(percentile(work, q), sorted_percentile(v, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(Percentile, EmptyAndMissedSamples) {
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 0.5), 0);

  // 2 of 100 requests refused: the p99 misses any limit.
  std::vector<double> v;
  for (int i = 0; i < 98; ++i) v.push_back(1.0 + i * 0.01);
  v.push_back(kMissed);
  v.push_back(kMissed);
  const Latency lat = summarize(v);
  EXPECT_EQ(lat.n, 100u);
  EXPECT_EQ(lat.missed, 2u);
  EXPECT_TRUE(std::isinf(lat.p99));
  EXPECT_FALSE(std::isinf(lat.p50));
  std::vector<double> work = v;
  EXPECT_EQ(percentile(work, 0.99), sorted_percentile(v, 0.99));
}

TEST(ComposedArchive, EqualsArchiveSequentialBytes) {
  for (auto kind : {hs::datagen::CorpusKind::kSilesiaLike,
                    hs::datagen::CorpusKind::kSourceLike}) {
    hs::datagen::CorpusSpec spec;
    spec.kind = kind;
    spec.bytes = 3 * 1000 * 1000 + 123;  // a partial final batch
    spec.seed = 11;
    const std::vector<std::uint8_t> input = hs::datagen::generate(spec);
    const hs::dedup::DedupConfig cfg = chain_config();
    StageTimes t;
    auto composed = compose_archive(input, cfg, &t);
    auto reference = hs::dedup::archive_sequential(input, cfg);
    ASSERT_TRUE(composed.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(composed.value(), reference.value());
    EXPECT_GT(t.blocks, 0u);
    EXPECT_LE(t.unique_blocks, t.blocks);
    EXPECT_GT(t.compress_s, 0);
  }
}

TEST(ComposedArchive, EmptyInput) {
  const std::vector<std::uint8_t> input;
  auto composed = compose_archive(input, chain_config(), nullptr);
  auto reference = hs::dedup::archive_sequential(input, chain_config());
  ASSERT_TRUE(composed.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(composed.value(), reference.value());
}

std::vector<Rung> ladder(const std::vector<double>& p99,
                         const std::vector<double>& fail) {
  std::vector<Rung> out;
  for (std::size_t i = 0; i < p99.size(); ++i) {
    out.push_back(Rung{250.0 * static_cast<double>(i + 1), p99[i], fail[i]});
  }
  return out;
}

TEST(GoodputRule, HighestRungBeforeTheFirstMiss) {
  // Knee between 750 and 1000 jobs/s.
  EXPECT_EQ(goodput_rung(ladder({2, 3, 9, 25, 80}, {0, 0, 0, 0, 0}), 20, 0.01),
            2);
  // Every rung within the limit.
  EXPECT_EQ(goodput_rung(ladder({2, 3, 4}, {0, 0, 0}), 20, 0.01), 2);
  // The limit is inclusive.
  EXPECT_EQ(goodput_rung(ladder({2, 20, 21}, {0, 0, 0}), 20, 0.01), 1);
}

TEST(GoodputRule, LowestRungFailing) {
  EXPECT_EQ(goodput_rung(ladder({30, 3}, {0, 0}), 20, 0.01), -1);
  EXPECT_EQ(goodput_rung({}, 20, 0.01), -1);
}

TEST(GoodputRule, FailShareDisqualifies) {
  // Rung 1 meets the latency limit but refused 2% of its requests.
  EXPECT_EQ(goodput_rung(ladder({2, 3, 4}, {0, 0.02, 0}), 20, 0.01), 0);
  EXPECT_EQ(goodput_rung(ladder({2, 3, 4}, {0, 0.01, 0}), 20, 0.01), 2);
}

TEST(GoodputRule, PassAfterAMissDoesNotCount) {
  // A noisy rung past the knee that happens to pass is not goodput.
  EXPECT_EQ(goodput_rung(ladder({2, 3, 25, 15, 90}, {0, 0, 0, 0, 0}), 20, 0.01),
            1);
  // An infinite p99 (refused requests) is a miss.
  EXPECT_EQ(goodput_rung(ladder({2, kMissed, 3}, {0, 0, 0}), 20, 0.01), 0);
}

}  // namespace
}  // namespace perfbench
