// Archive container for deduplicated + LZSS-compressed streams.
//
// Layout (little-endian):
//   header : magic "HSDEDUP1" | u32 version | u32 codec (0 = LZSS) |
//            u64 original_size | u64 batch_count |
//            u32 lzss_window | u32 lzss_min_match
//   batch  : u64 index | u32 original_len | u32 block_count | blocks...
//   block  : u8 tag (0 = unique, 1 = duplicate)
//            unique    : u32 raw_len | u32 comp_len | comp_len bytes
//            duplicate : u64 global_id (the first occurrence's id)
//   trailer: u8[20] SHA-1 of the original input (integrity check)
//
// Unique blocks are numbered 0,1,2,... in stream order, so a duplicate
// always references an id the decoder has already materialized — this is
// why the duplicate-check stage is serial-in-order in every pipeline
// variant (DESIGN.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "dedup/types.hpp"

namespace hs::dedup {

/// Incrementally assembles an archive. Batches must be appended in index
/// order (enforced).
class ArchiveWriter {
 public:
  explicit ArchiveWriter(const DedupConfig& config);

  /// Appends a fully-processed batch (blocks hashed, dedup-checked, unique
  /// blocks compressed).
  Status append(const Batch& batch);

  /// Finalizes: patches the header and appends the input digest. The
  /// writer must not be reused afterwards.
  std::vector<std::uint8_t> finish(const kernels::Sha1Digest& input_digest);

  /// Pre-sizes the output buffer (callers that know the input size avoid
  /// repeated growth reallocations in the serial writer stage).
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  [[nodiscard]] std::uint64_t batches_written() const { return batch_count_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return out_.size(); }

 private:
  DedupConfig config_;
  std::vector<std::uint8_t> out_;
  std::uint64_t batch_count_ = 0;
  std::uint64_t original_size_ = 0;
  std::uint64_t next_batch_index_ = 0;
  bool finished_ = false;
};

struct ArchiveInfo {
  std::uint64_t original_size = 0;
  std::uint64_t batch_count = 0;
  std::uint64_t unique_blocks = 0;
  std::uint64_t duplicate_blocks = 0;
  std::uint64_t compressed_payload_bytes = 0;
};

/// Decompresses a complete archive back to the original bytes, verifying
/// structure and the trailing SHA-1. DATA_LOSS on any corruption.
Result<std::vector<std::uint8_t>> extract(
    std::span<const std::uint8_t> archive);

/// Parses structure only (no payload decompression of duplicates needed):
/// used by tests and the CLI's `info` mode.
Result<ArchiveInfo> inspect(std::span<const std::uint8_t> archive);

/// Parallel extractor (extension): block decompression fans out to a
/// `replicas`-worker farm (ordered) while parsing and assembly stay
/// serial — the inverse of the compression pipeline. Output is identical
/// to extract(); the same integrity checks apply.
Result<std::vector<std::uint8_t>> extract_parallel(
    std::span<const std::uint8_t> archive, int replicas);

}  // namespace hs::dedup
