#include "kernels/lzss.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "kernels/simd/lzss_chain.hpp"
#include "kernels/simd/lzss_match.hpp"

namespace hs::kernels {

std::string_view lzss_mode_name(LzssMode mode) {
  switch (mode) {
    case LzssMode::kLegacy: return "legacy";
    case LzssMode::kChain: return "chain";
  }
  return "?";
}

bool parse_lzss_mode(std::string_view name, LzssMode& out) {
  if (name == "legacy") {
    out = LzssMode::kLegacy;
    return true;
  }
  if (name == "chain") {
    out = LzssMode::kChain;
    return true;
  }
  return false;
}

namespace {

/// MSB-first bit writer over any push_back-able byte sink. Bits collect in
/// a 64-bit accumulator and flush a byte at a time; the worst case between
/// flushes is 7 carried bits + a 12-bit offset field, far below 64, so the
/// accumulator never overflows. The emitted stream is identical to writing
/// each bit individually.
template <typename Sink>
class BitWriter {
 public:
  explicit BitWriter(Sink& sink) : sink_(sink) {}

  void put_bit(bool bit) { put_bits(bit ? 1u : 0u, 1); }

  void put_bits(std::uint32_t value, std::uint32_t count) {
    acc_ = (acc_ << count) | (value & ((1u << count) - 1u));
    filled_ += count;
    while (filled_ >= 8) {
      filled_ -= 8;
      sink_.push_back(static_cast<std::uint8_t>(acc_ >> filled_));
    }
  }

  void finish() {
    if (filled_ > 0) {
      sink_.push_back(static_cast<std::uint8_t>(acc_ << (8 - filled_)));
      filled_ = 0;
    }
  }

 private:
  Sink& sink_;
  std::uint64_t acc_ = 0;
  std::uint32_t filled_ = 0;
};

/// MSB-first bit reader over a 64-bit buffer. The next unread bit is the
/// buffer's MSB and the bits below `count_` are zero. refill() tops the
/// buffer up to >= 56 bits with one 8-byte big-endian load while 8 input
/// bytes remain, then byte by byte; callers check have() before taking
/// bits, so a truncated stream is reported exactly where it ends.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  void refill() {
    if (end_ - p_ >= 8) {
      std::uint64_t v;
      std::memcpy(&v, p_, 8);
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap64(v);
      }
      buf_ |= v >> count_;
      p_ += (63 - count_) >> 3;
      count_ |= 56;
      return;
    }
    while (count_ <= 56 && p_ < end_) {
      buf_ |= static_cast<std::uint64_t>(*p_++) << (56 - count_);
      count_ += 8;
    }
  }

  [[nodiscard]] bool have(std::uint32_t bits) const { return count_ >= bits; }

  /// The next `bits` (1..32) bits, not consumed.
  [[nodiscard]] std::uint32_t peek(std::uint32_t bits) const {
    return static_cast<std::uint32_t>(buf_ >> (64 - bits));
  }

  void skip(std::uint32_t bits) {
    buf_ <<= bits;
    count_ -= bits;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t buf_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace

LzssMatch lzss_longest_match(std::span<const std::uint8_t> input,
                             std::size_t block_start, std::size_t block_end,
                             std::size_t pos, const LzssParams& params) {
  // Dispatched on the process-wide SIMD level; every body returns the
  // identical (max length, oldest candidate) result, so all encoders —
  // CPU, batched FindMatch, simulated GPU kernels — stay bit-identical
  // regardless of level. The seed scalar body lives in
  // simd/lzss_match.cpp as lzss_longest_match_scalar.
  return simd::lzss_longest_match_at(simd::active_level(), input, block_start,
                                     block_end, pos, params);
}

namespace {

/// Shared encode walk; `next_match` yields the match for a position and
/// `out_bytes` is any push_back-able byte sink.
template <typename Sink, typename MatchFn>
void encode_walk(std::span<const std::uint8_t> input, std::size_t block_start,
                 std::size_t block_end, const LzssParams& params,
                 const MatchFn& next_match, Sink& out_bytes) {
  BitWriter<Sink> out(out_bytes);
  std::size_t pos = block_start;
  while (pos < block_end) {
    LzssMatch m = next_match(pos);
    if (m.length >= params.min_match) {
      out.put_bit(false);
      out.put_bits(static_cast<std::uint32_t>(m.offset - 1),
                   LzssParams::kOffsetBits);
      out.put_bits(static_cast<std::uint32_t>(m.length - params.min_match),
                   LzssParams::kLengthBits);
      pos += m.length;
    } else {
      out.put_bit(true);
      out.put_bits(input[pos], 8);
      ++pos;
    }
  }
  out.finish();
}

/// MSB-first bit writer over a raw pointer with pre-reserved worst-case
/// capacity: no per-byte capacity checks, bulk 4-byte big-endian flushes.
/// Emits exactly the bytes BitWriter would for the same put sequence (the
/// cross-variant bit-identity lzss_chain_test asserts).
class RawBitWriter {
 public:
  explicit RawBitWriter(std::uint8_t* dst) : dst_(dst) {}

  void put_bits(std::uint32_t value, std::uint32_t count) {
    acc_ = (acc_ << count) | (value & ((1u << count) - 1u));
    filled_ += count;
    if (filled_ >= 32) {
      filled_ -= 32;
      const std::uint32_t word =
          byteswap32(static_cast<std::uint32_t>(acc_ >> filled_));
      std::memcpy(dst_, &word, 4);
      dst_ += 4;
    }
  }

  std::uint8_t* finish() {
    while (filled_ >= 8) {
      filled_ -= 8;
      *dst_++ = static_cast<std::uint8_t>(acc_ >> filled_);
    }
    if (filled_ > 0) {
      *dst_++ = static_cast<std::uint8_t>(acc_ << (8 - filled_));
      filled_ = 0;
    }
    return dst_;
  }

 private:
  static std::uint32_t byteswap32(std::uint32_t v) {
    return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
           (v << 24);
  }

  std::uint8_t* dst_;
  std::uint64_t acc_ = 0;
  std::uint32_t filled_ = 0;
};

void append_bytes(std::vector<std::uint8_t>& sink, const std::uint8_t* p,
                  std::size_t n) {
  sink.insert(sink.end(), p, p + n);
}
void append_bytes(PooledBuffer& sink, const std::uint8_t* p, std::size_t n) {
  sink.append(p, n);
}

/// Chain-mode encode walk over one block, `blk` covering all of `block`:
/// find_insert at every emitted position, insert at every position a match
/// covers, so the chain state at any query matches the batched FindMatch
/// form exactly (see lzss_chain.hpp purity contract).
///
/// `blk` and the writer are locals, and the few params read here are
/// copied out, so the writer's byte stores cannot force the walk state
/// back to memory. The emit is branchless: the match-or-literal decision
/// selects a (token, width, advance) triple by conditional move, so the
/// walk's only data-dependent branches are inside find_insert() and the
/// interior-insert loop bound. Tokens land in a thread-local arena through
/// RawBitWriter and are appended to the sink in one shot — the walk itself
/// does no capacity checks and, warm, no allocation.
///
/// kExact selects the exact legacy walk (find_insert_exact) over the
/// bounded chain walk; the emitter is the same.
template <bool kExact, typename Sink>
void encode_chain_walk(simd::LzssChainMatcher::Block blk,
                       std::span<const std::uint8_t> block,
                       const LzssParams& params, Sink& out_bytes) {
  static thread_local std::vector<std::uint8_t> arena;
  const std::uint8_t* const src = block.data();
  const auto n = static_cast<std::uint32_t>(block.size());
  // Worst case: every byte a literal (9 bits) plus padding slack.
  const std::size_t worst = std::size_t{n} + n / 8 + 16;
  if (arena.size() < worst) arena.resize(worst);
  RawBitWriter out(arena.data());

  constexpr std::uint32_t kMatchBits =
      1 + LzssParams::kOffsetBits + LzssParams::kLengthBits;
  constexpr std::uint32_t kLengthMask = (1u << LzssParams::kLengthBits) - 1u;
  const std::uint32_t min_match = params.min_match;
  const std::uint32_t search_end = blk.search_end();
  std::uint32_t pos = 0;
  while (pos < search_end) {
    LzssMatch m;
    if constexpr (kExact) {
      m = blk.find_insert_exact(pos);
    } else {
      m = blk.find_insert(pos);
    }
    const bool is_match = m.length >= min_match;
    const std::uint32_t token =
        is_match ? (static_cast<std::uint32_t>(m.offset - 1)
                    << LzssParams::kLengthBits) |
                       ((m.length - min_match) & kLengthMask)
                 : 0x100u | src[pos];
    const std::uint32_t nbits = is_match ? kMatchBits : 9;
    const std::uint32_t advance = is_match ? m.length : 1;
    out.put_bits(token, nbits);
    const std::uint32_t insert_end = std::min(pos + advance, search_end);
    for (std::uint32_t q = pos + 1; q < insert_end; ++q) blk.insert(q);
    pos += advance;
  }
  // The last kHashBytes - 1 positions cannot host a hash: literals.
  for (; pos < n; ++pos) out.put_bits(0x100u | src[pos], 9);
  append_bytes(out_bytes, arena.data(),
               static_cast<std::size_t>(out.finish() - arena.data()));
}

/// Per-thread chain matcher: reset() is O(1) (tagged heads), so
/// re-anchoring per encoded block costs nothing, and a warm thread never
/// allocates — farm workers each warm their own copy on the first block.
simd::LzssChainMatcher& chain_matcher() {
  static thread_local simd::LzssChainMatcher matcher;
  return matcher;
}

template <typename Sink>
void encode_dispatch(std::span<const std::uint8_t> input,
                     std::size_t block_start, std::size_t block_end,
                     const LzssParams& params, Sink& out_bytes) {
  // Legacy matches shorter than kHashBytes (min_match 2) are not on any
  // chain, so that configuration keeps the brute-force scan.
  if (params.mode == LzssMode::kChain ||
      params.min_match >= simd::LzssChainMatcher::kHashBytes) {
    // Reset onto the block's own bytes: the tag then advances by the
    // bytes encoded, not by the whole batch per block.
    const auto block = input.subspan(block_start, block_end - block_start);
    simd::LzssChainMatcher& matcher = chain_matcher();
    matcher.reset(block, params, simd::active_level());
    const simd::LzssChainMatcher::Block blk = matcher.block(0, block.size());
    if (params.mode == LzssMode::kChain) {
      encode_chain_walk<false>(blk, block, params, out_bytes);
    } else {
      encode_chain_walk<true>(blk, block, params, out_bytes);
    }
    return;
  }
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) {
                return lzss_longest_match(input, block_start, block_end, pos,
                                          params);
              },
              out_bytes);
}

}  // namespace

std::vector<std::uint8_t> lzss_encode(std::span<const std::uint8_t> input,
                                      std::size_t block_start,
                                      std::size_t block_end,
                                      const LzssParams& params) {
  assert(params.valid());
  std::vector<std::uint8_t> out;
  encode_dispatch(input, block_start, block_end, params, out);
  return out;
}

void lzss_encode(std::span<const std::uint8_t> input, std::size_t block_start,
                 std::size_t block_end, const LzssParams& params,
                 PooledBuffer& out) {
  assert(params.valid());
  out.clear();
  encode_dispatch(input, block_start, block_end, params, out);
}

Result<std::vector<std::uint8_t>> lzss_decode(
    std::span<const std::uint8_t> compressed, std::size_t original_size,
    const LzssParams& params) {
  if (!params.valid()) return InvalidArgument("bad LZSS parameters");
  constexpr std::uint32_t kFieldBits =
      LzssParams::kOffsetBits + LzssParams::kLengthBits;
  std::vector<std::uint8_t> out(original_size);
  std::uint8_t* const dst = out.data();
  BitReader in(compressed);
  std::size_t n = 0;
  while (n < original_size) {
    // A token is at most 1 + kFieldBits = 17 bits.
    if (!in.have(1 + kFieldBits)) in.refill();
    if (!in.have(1)) {
      return DataLoss("LZSS stream truncated before expected output size");
    }
    if (in.peek(1) != 0) {
      if (!in.have(9)) {
        return DataLoss("LZSS stream truncated inside a literal");
      }
      dst[n++] = static_cast<std::uint8_t>(in.peek(9));
      in.skip(9);
      continue;
    }
    if (!in.have(1 + kFieldBits)) {
      return DataLoss("LZSS stream truncated inside a match");
    }
    in.skip(1);
    const std::uint32_t fields = in.peek(kFieldBits);
    in.skip(kFieldBits);
    const std::size_t offset = (fields >> LzssParams::kLengthBits) + 1;
    const std::size_t length =
        (fields & ((1u << LzssParams::kLengthBits) - 1u)) + params.min_match;
    if (offset > n) {
      return DataLoss("LZSS match reaches before the block start");
    }
    if (n + length > original_size) {
      return DataLoss("LZSS match overruns the declared output size");
    }
    const std::uint8_t* src = dst + n - offset;
    if (offset >= length) {
      std::memcpy(dst + n, src, length);
    } else {
      // Overlapping copy (a run): byte order matters.
      for (std::size_t i = 0; i < length; ++i) dst[n + i] = src[i];
    }
    n += length;
  }
  return out;
}

void find_matches_batch(std::span<const std::uint8_t> input,
                        std::span<const std::uint32_t> start_pos,
                        const LzssParams& params,
                        std::vector<LzssMatch>& out_matches) {
  assert(!start_pos.empty() && start_pos[0] == 0);
  out_matches.assign(input.size(), LzssMatch{});
  // For each position, locate its block (start_pos is sorted) exactly as
  // Listing 3 scans startPoss, then run the shared match body.
  if (params.mode == LzssMode::kChain) {
    // One matcher spans the whole batch: a query's chain walk stops at its
    // block start, so inserting every position (including other blocks')
    // yields the same per-position result as the inline per-block encoder
    // — the cross-variant bit-identity the tests assert.
    simd::LzssChainMatcher& matcher = chain_matcher();
    matcher.reset(input, params, simd::active_level());
    LzssMatch* const out = out_matches.data();
    for (std::size_t k = 0; k < start_pos.size(); ++k) {
      const std::size_t bend =
          k + 1 < start_pos.size() ? start_pos[k + 1] : input.size();
      simd::LzssChainMatcher::Block blk = matcher.block(start_pos[k], bend);
      const std::uint32_t search_end = blk.search_end();
      for (std::uint32_t pos = start_pos[k]; pos < search_end; ++pos) {
        out[pos] = blk.find_insert(pos);
      }
    }
    return;
  }
  std::size_t block_idx = 0;
  for (std::size_t pos = 0; pos < input.size(); ++pos) {
    while (block_idx + 1 < start_pos.size() &&
           pos >= start_pos[block_idx + 1]) {
      ++block_idx;
    }
    const std::size_t bstart = start_pos[block_idx];
    const std::size_t bend = block_idx + 1 < start_pos.size()
                                 ? start_pos[block_idx + 1]
                                 : input.size();
    out_matches[pos] = lzss_longest_match(input, bstart, bend, pos, params);
  }
}

std::vector<std::uint8_t> lzss_encode_from_matches(
    std::span<const std::uint8_t> input, std::size_t block_start,
    std::size_t block_end, std::span<const LzssMatch> matches,
    const LzssParams& params) {
  assert(matches.size() >= block_end);
  std::vector<std::uint8_t> out;
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) { return matches[pos]; }, out);
  return out;
}

void lzss_encode_from_matches(std::span<const std::uint8_t> input,
                              std::size_t block_start, std::size_t block_end,
                              std::span<const LzssMatch> matches,
                              const LzssParams& params, PooledBuffer& out) {
  assert(matches.size() >= block_end);
  out.clear();
  encode_walk(input, block_start, block_end, params,
              [&](std::size_t pos) { return matches[pos]; }, out);
}

std::uint64_t lzss_match_cost(std::size_t block_start, std::size_t pos,
                              const LzssParams& params) {
  std::size_t distance = pos - block_start;
  return 1 + std::min<std::size_t>(distance, params.window_size);
}

}  // namespace hs::kernels
