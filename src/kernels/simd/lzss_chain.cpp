#include "kernels/simd/lzss_chain.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace hs::kernels::simd {

void LzssChainMatcher::reset(std::span<const std::uint8_t> input,
                             const LzssParams& params, Level level) {
  assert(params.valid());
  assert(input.size() <=
         static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  base_ = input.data();
  params_ = params;
  compare_ = match_compare_fn(level);
  const std::uint32_t slots = std::bit_ceil(params.window_size);
  prev_mask_ = slots - 1;
  if (head_.empty()) head_.assign(std::size_t{1} << kHashBits, 0);
  if (prev_.size() < slots) prev_.resize(slots);
  // Every entry the previous input wrote is < tag_ + span_.
  const std::uint64_t next = std::uint64_t{tag_} + span_;
  if (next + input.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Tag wrap (once per 4 GiB of input): entries of long-gone inputs
    // could alias the restarted tags, so clear for real this once.
    std::fill(head_.begin(), head_.end(), std::uint32_t{0});
    tag_ = 1;
  } else {
    tag_ = static_cast<std::uint32_t>(next);
  }
  span_ = static_cast<std::uint32_t>(input.size());
}

LzssChainMatcher::Block LzssChainMatcher::block(std::size_t block_start,
                                                std::size_t block_end) {
  assert(block_start <= block_end && block_end <= span_);
  Block b;
  b.base_ = base_;
  b.head_ = head_.data();
  b.prev_ = prev_.data();
  b.compare_ = compare_;
  b.tag_ = tag_;
  b.prev_mask_ = prev_mask_;
  b.block_start_ = static_cast<std::uint32_t>(block_start);
  b.block_end_ = static_cast<std::uint32_t>(block_end);
  b.search_end_ = block_end - block_start >= kHashBytes
                      ? static_cast<std::uint32_t>(block_end - kHashBytes + 1)
                      : static_cast<std::uint32_t>(block_start);
  b.window_ = params_.window_size;
  b.min_match_ = params_.min_match;
  b.max_match_ = params_.max_match;
  b.depth_ = params_.chain_depth;
  return b;
}

}  // namespace hs::kernels::simd
