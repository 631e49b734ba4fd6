// Hash-chain LZSS match finder (DESIGN.md §4j) — the LzssMode::kChain
// engine behind lzss_encode/find_matches_batch, and the LzssMode::kLegacy
// engine behind lzss_encode.
//
// The seed matcher (lzss_longest_match, still the per-thread FindMatch
// body of find_matches_batch and the simulated GPU kernels) scans every
// window position per query: O(n·window), ~0.01-0.02 GB/s at window 256 —
// the compress-stage imbalance the paper's dedup analysis calls out. This
// matcher is the classic LZ4/zlib structure instead, laid out so both
// tables fit in a 48 KiB L1d together (32 KiB + at most 8 KiB):
//
//   * head[h] (2^13 x u32): the newest inserted position whose first 3
//     bytes hash to h, stored as a *tagged* position tag + pos (below);
//   * prev[pos & (P-1)] (P x u16, P = a power of two >= window_size): the
//     distance from pos back to the previous position on its chain, or
//     kNoLink (0xFFFF) for "none, stale or farther than any window". A
//     slot is only overwritten P >= window inserts later — by then its old
//     occupant has fallen out of every window, so a walk (which stops at
//     the first candidate outside the window/block bound) never reads a
//     clobbered link.
//
// Tagging. reset() advances `tag` past every tagged position the previous
// input could have written (tag += its size), so every head entry from an
// earlier input is < tag and one from this input is tag + p with p < pos.
// A query computes the candidate distance d = (tag + pos) - head[h] in
// u32: a current entry gives d in [1, pos], a stale one d > pos. So the
// whole validity + window + block test is one unsigned bound,
// d - 1 < reach with reach = min(pos - block_start, window) <= 4096, and
// following a link is d += prev[...]: kNoLink pushes d past every reach.
// reset() stays O(1) — a warm thread_local matcher re-anchors onto a new
// block for free (the steady-state zero-alloc gate counts on this).
//
// The wrap. Tagged positions must fit in u32, so once tag + size would
// overflow (every 4 GiB of input) reset() clears head for real and
// restarts the tag at 1 (0 is the cleared value, below every tag). prev
// needs no clearing: a link is only read through a current head entry or
// a current link, and every such hop was written by a current insert.
//
// find_insert(pos) is fused: it hashes pos once, reads head[h], links pos
// into the chain (head/prev writes) and then walks the chain it read,
// newest-first. It keeps the longest match (ties keep the NEWER candidate
// — smaller offset — unlike legacy's oldest-first scan, which is why the
// modes golden separately), prunes with the classic would-extend byte
// test, extends with the per-level vectorized compare (match_compare_fn),
// and gives up after params.chain_depth candidates or as soon as the best
// possible length is reached. insert(pos) does only the linking, for the
// positions a match covers.
//
// find_insert_exact(pos) is the legacy engine: the same link, then a walk
// with no depth bound that returns exactly the brute-force scan's match
// (longest, oldest on ties) whenever min_match >= kHashBytes — every
// candidate that can reach min_match shares pos's first 3 bytes, so it is
// on the chain. Candidates that reach the lookahead cap end the walk; the
// oldest one is then found by racing the rest of the chain against an
// oldest-first byte scan (oldest_full), which keeps runs (all-zero, short
// periods), where the chain holds every window position, cheap.
//
// State in locals. block() hands out a Block: a value copy of the base
// pointer, table pointers, tag and params. Kept as a local by the encode
// walk and the batch loop, none of it can be aliased by the bit writer's
// byte stores, so the walk runs with everything in registers.
//
// Purity contract (what keeps every pipeline variant bit-identical): the
// match find_insert(pos) or find_insert_exact(pos) returns depends only on
// the input bytes and on the set of inserted positions in
// [block_start, pos) — stale, cross-block and out-of-window candidates end
// the walk before they cost depth budget, so it does not matter whether
// other blocks of the batch were inserted (find_matches_batch / the
// simulated-GPU FindMatch) or only this block's positions (the inline
// per-block encode, which resets onto the block's own bytes).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "kernels/lzss.hpp"
#include "kernels/simd/dispatch.hpp"
#include "kernels/simd/lzss_match.hpp"

namespace hs::kernels::simd {

class LzssChainMatcher {
 public:
  /// Bytes hashed per chain entry. Positions closer than this to their
  /// block end are never inserted or queried (they encode as literals, or
  /// as sub-3-byte matches only legacy mode can find when min_match == 2).
  static constexpr std::uint32_t kHashBytes = 3;

  /// Re-anchors the matcher onto `input` (a whole batch or one block;
  /// block bounds are per-Block). Invalidates all previous insertions in
  /// O(1) but once per 4 GiB of input. `level` picks the vectorized
  /// extend body; the match results are identical at every level.
  /// Requires input.size() < 2^31.
  void reset(std::span<const std::uint8_t> input, const LzssParams& params,
             Level level);

  /// Queries and inserts for positions of one block, with the matcher's
  /// state copied into the value (see "State in locals" above). Valid
  /// until the next reset(); positions must be visited in increasing
  /// order, each at most once.
  class Block {
   public:
    /// One past the last position that can host a 3-byte hash: positions
    /// in [search_end(), block_end) are never queried or inserted.
    [[nodiscard]] std::uint32_t search_end() const { return search_end_; }

    /// Links `pos` into its chain and returns its longest match among
    /// inserted positions in [max(block_start, pos - window), pos),
    /// newest first, bounded depth; length 0 means "emit a literal".
    /// Requires block_start <= pos < search_end().
    [[nodiscard, gnu::always_inline]] LzssMatch find_insert(
        std::uint32_t pos) {
      const std::uint32_t dist = link(pos);
      const std::uint32_t room = block_end_ - pos;
      const std::uint32_t lookahead = max_match_ < room ? max_match_ : room;
      if (lookahead < min_match_) return LzssMatch{};
      const std::uint32_t back = pos - block_start_;
      return walk(pos, dist, back < window_ ? back : window_, lookahead);
    }

    /// Links `pos` into its chain and returns the exact legacy match: the
    /// longest among ALL positions in [max(block_start, pos - window),
    /// pos), ties to the oldest — lzss_longest_match's result whenever
    /// min_match >= kHashBytes. Same preconditions as find_insert(), and
    /// every position in [block_start, pos) must have been inserted.
    [[nodiscard, gnu::always_inline]] LzssMatch find_insert_exact(
        std::uint32_t pos) {
      const std::uint32_t dist = link(pos);
      const std::uint32_t room = block_end_ - pos;
      const std::uint32_t lookahead = max_match_ < room ? max_match_ : room;
      if (lookahead < min_match_) return LzssMatch{};
      const std::uint32_t back = pos - block_start_;
      return walk_exact(pos, dist, back < window_ ? back : window_,
                        lookahead);
    }

    /// Links `pos` into its chain without a query (positions a match
    /// covers). Requires block_start <= pos < search_end().
    void insert(std::uint32_t pos) { link(pos); }

   private:
    friend class LzssChainMatcher;

    [[nodiscard]] std::uint32_t hash3(std::uint32_t pos) const {
      // One 2-byte load + one byte (little-endian, like the word compare
      // in prefix()); reading 4 bytes could cross the input's end.
      std::uint16_t lo;
      std::memcpy(&lo, base_ + pos, 2);
      const std::uint32_t v =
          lo | (static_cast<std::uint32_t>(base_[pos + 2]) << 16);
      return (v * 0x9E3779B1u) >> (32 - kHashBits);
    }

    /// head/prev update for `pos`; returns the distance to the newest
    /// earlier entry of its chain (> pos when there is none).
    std::uint32_t link(std::uint32_t pos) {
      const std::uint32_t h = hash3(pos);
      const std::uint32_t tagged = tag_ + pos;
      const std::uint32_t dist = tagged - head_[h];
      head_[h] = tagged;
      prev_[pos & prev_mask_] =
          static_cast<std::uint16_t>(dist < kNoLink ? dist : kNoLink);
      return dist;
    }

    /// Chain walk from the candidate `dist` back from pos. Every hop with
    /// dist in [1, reach] is a current insert inside the window and the
    /// block; the first hop outside ends the walk without costing depth.
    [[nodiscard, gnu::always_inline]] LzssMatch walk(
        std::uint32_t pos, std::uint32_t dist, std::uint32_t reach,
        std::uint32_t lookahead) const {
      const std::uint8_t* const cur = base_ + pos;
      std::uint32_t best_len = 0;
      std::uint32_t best_dist = 0;
      std::uint32_t depth = depth_;
      while (dist - 1 < reach) {
        const std::uint8_t* const cand = cur - dist;
        // Source bytes must stay below pos, so the length is additionally
        // capped by the candidate's distance.
        const std::uint32_t limit = lookahead < dist ? lookahead : dist;
        // Would-extend prune: a candidate that beats the best must match
        // at index best_len (at 0 this screens hash collisions). In
        // bounds: best_len < limit <= dist and < block_end - pos.
        if (limit > best_len && cand[best_len] == cur[best_len]) {
          const std::uint32_t len = prefix(cand, cur, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len == lookahead) break;  // cannot do better
          }
        }
        if (--depth == 0) break;
        dist += prev_[(pos - dist) & prev_mask_];
      }
      if (best_len < min_match_) return LzssMatch{};
      return LzssMatch{static_cast<std::uint16_t>(best_len),
                       static_cast<std::uint16_t>(best_dist)};
    }

    /// Common-prefix length of cand and cur, up to `limit` bytes: the
    /// first 8 inline (the common case at max_match 18 — an indirect call
    /// per candidate would dominate a walk), the tail through the
    /// per-level vectorized body. Loads are in bounds: limit >= 8 implies
    /// cur + 8 <= block_end and cand + 8 <= cur.
    [[nodiscard, gnu::always_inline]] std::uint32_t prefix(
        const std::uint8_t* cand, const std::uint8_t* cur,
        std::uint32_t limit) const {
      if (limit < 8) {
        std::uint32_t len = 0;
        while (len < limit && cand[len] == cur[len]) ++len;
        return len;
      }
      std::uint64_t x, y;
      std::memcpy(&x, cand, 8);
      std::memcpy(&y, cur, 8);
      if (x != y) {
        return static_cast<std::uint32_t>(std::countr_zero(x ^ y)) >> 3;
      }
      return 8 + static_cast<std::uint32_t>(
                     compare_(cand + 8, cur + 8, limit - 8));
    }

    /// The exact walk: no depth bound, so it ends only at the window or
    /// block bound. A match of length >= min_match >= 3 shares its first 3
    /// bytes with pos, so its candidate sits on this chain (hash
    /// collisions only add candidates). The result — the longest length,
    /// then the oldest candidate — does not depend on visiting order, so
    /// the walk takes the candidates in two passes. The first takes those
    /// at least `lookahead` back, the only ones whose length is not capped
    /// below the cap by their distance; once one reaches the cap,
    /// oldest_full() finishes. Otherwise the second pass re-walks the
    /// newest ones (a run puts ~lookahead of them at the chain's head), and
    /// each of those must strictly beat the first pass's best. Within a
    /// pass, walking newest-first, a tie replaces the best (`>=`): the
    /// oldest of the longest wins, as in the legacy scan.
    [[nodiscard, gnu::always_inline]] LzssMatch walk_exact(
        std::uint32_t pos, std::uint32_t dist, std::uint32_t reach,
        std::uint32_t lookahead) const {
      const std::uint8_t* const cur = base_ + pos;
      const std::uint32_t newest = dist;
      // `need` is the length a candidate must reach to become the best.
      // Tie-or-extend prune: such a candidate matches at index need - 1,
      // which is in bounds: need - 1 < limit <= dist and < block_end - pos.
      std::uint32_t need = min_match_;
      std::uint32_t best_len = 0;
      std::uint32_t best_dist = 0;
      for (; dist - 1 < reach; dist += prev_[(pos - dist) & prev_mask_]) {
        if (dist < lookahead) continue;
        const std::uint8_t* const cand = cur - dist;
        if (cand[need - 1] != cur[need - 1]) continue;
        const std::uint32_t len = prefix(cand, cur, lookahead);
        if (len < need) continue;
        if (len == lookahead) {
          return LzssMatch{static_cast<std::uint16_t>(len),
                           static_cast<std::uint16_t>(
                               oldest_full(pos, dist, reach, lookahead))};
        }
        need = best_len = len;
        best_dist = dist;
      }
      if (best_dist != 0) need = best_len + 1;
      for (dist = newest; dist - 1 < reach && dist < lookahead;
           dist += prev_[(pos - dist) & prev_mask_]) {
        const std::uint8_t* const cand = cur - dist;
        if (dist < need || cand[need - 1] != cur[need - 1]) continue;
        const std::uint32_t len = prefix(cand, cur, dist);
        if (len < need) continue;
        need = best_len = len;
        best_dist = dist;
      }
      if (best_dist == 0) return LzssMatch{};
      return LzssMatch{static_cast<std::uint16_t>(best_len),
                       static_cast<std::uint16_t>(best_dist)};
    }

    /// The oldest candidate matching all `lookahead` bytes, given that the
    /// one `dist` back does. Two exact searches race over (dist, reach]:
    /// the chain walked on newest-first (visits only same-hash candidates:
    /// few in text) and a byte scan from the window start oldest-first
    /// (its first hit is the answer: at once on runs, where the chain
    /// holds every position). kScanBurst scan steps per chain hop; they
    /// stop when the scan meets the chain or the chain leaves the window.
    /// Every candidate here is at least `dist` >= lookahead back, so no
    /// length is capped below lookahead.
    [[nodiscard]] std::uint32_t oldest_full(std::uint32_t pos,
                                            std::uint32_t dist,
                                            std::uint32_t reach,
                                            std::uint32_t lookahead) const {
      const std::uint8_t* const cur = base_ + pos;
      std::uint32_t best = dist;
      std::uint32_t scan = reach;  // (scan, reach] holds no full match
      for (;;) {
        for (std::uint32_t k = 0; k < kScanBurst; ++k, --scan) {
          if (scan <= dist) return best;
          if (prefix(cur - scan, cur, lookahead) == lookahead) return scan;
        }
        dist += prev_[(pos - dist) & prev_mask_];
        if (dist - 1 >= reach || dist > scan) return best;
        if (prefix(cur - dist, cur, lookahead) == lookahead) best = dist;
      }
    }

    const std::uint8_t* base_ = nullptr;
    std::uint32_t* head_ = nullptr;
    std::uint16_t* prev_ = nullptr;
    MatchCompareFn compare_ = nullptr;
    std::uint32_t tag_ = 0;
    std::uint32_t prev_mask_ = 0;
    std::uint32_t block_start_ = 0;
    std::uint32_t block_end_ = 0;
    std::uint32_t search_end_ = 0;
    std::uint32_t window_ = 0;
    std::uint32_t min_match_ = 0;
    std::uint32_t max_match_ = 0;
    std::uint32_t depth_ = 0;
  };

  /// The Block view of input[block_start, block_end) after reset().
  [[nodiscard]] Block block(std::size_t block_start, std::size_t block_end);

 private:
  friend struct LzssChainMatcherTestPeer;

  static constexpr std::uint32_t kHashBits = 13;
  static constexpr std::uint16_t kNoLink = 0xFFFF;
  /// Scan steps per chain hop in oldest_full().
  static constexpr std::uint32_t kScanBurst = 8;

  const std::uint8_t* base_ = nullptr;
  LzssParams params_{};
  MatchCompareFn compare_ = nullptr;
  std::uint32_t prev_mask_ = 0;  ///< P - 1
  std::uint32_t tag_ = 1;        ///< added to positions stored in head_
  std::uint32_t span_ = 0;       ///< size of the current input
  std::vector<std::uint32_t> head_;  ///< tag + position; 0 = empty
  std::vector<std::uint16_t> prev_;  ///< P link distances
};

}  // namespace hs::kernels::simd
