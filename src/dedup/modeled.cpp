#include "dedup/modeled.hpp"

namespace hs::dedup {

std::string_view fig5_backend_name(Fig5Backend b) {
  switch (b) {
    case Fig5Backend::kSequential: return "sequential";
    case Fig5Backend::kSparCpu: return "spar-cpu";
    case Fig5Backend::kCudaSingle: return "cuda-1thread";
    case Fig5Backend::kOclSingle: return "opencl-1thread";
    case Fig5Backend::kSparCuda: return "spar+cuda";
    case Fig5Backend::kSparOcl: return "spar+opencl";
  }
  return "?";
}

DedupTrace build_trace(std::span<const std::uint8_t> input,
                       const DedupConfig& config, bool variable_batches) {
  DedupTrace trace;
  trace.input_bytes = input.size();
  DupCache cache;
  std::vector<Batch> batches = variable_batches
                                   ? fragment_input_variable(input, config)
                                   : fragment_input(input, config);
  for (Batch& batch : batches) {
    hash_blocks(batch);
    cache.check(batch);

    BatchCosts costs;
    costs.data_len = static_cast<std::uint32_t>(batch.data.size());
    costs.start_pos = batch.start_pos;
    costs.block_count = batch.blocks.size();
    costs.sha1_rounds = batch_sha1_rounds(batch);
    costs.match_cost_units = batch_match_cost(batch, config);
    costs.block_lens.reserve(batch.blocks.size());
    costs.shard_key.reserve(batch.blocks.size());
    for (const BlockInfo& block : batch.blocks) {
      costs.block_lens.push_back(block.len);
      costs.shard_key.push_back(block.digest[0]);
      if (block.duplicate) {
        ++trace.duplicate_blocks;
      } else {
        ++trace.unique_blocks;
        costs.unique_bytes += block.len;
        costs.unique_match_cost_units += static_cast<std::uint64_t>(
            (static_cast<double>(block.len) / batch.data.size()) *
            static_cast<double>(costs.match_cost_units));
      }
    }
    // Output bytes: compress unique blocks for real so the write-stage
    // cost and the reported compression come from actual LZSS output.
    compress_blocks_cpu(batch, config);
    costs.output_bytes = batch_output_bytes(batch);
    trace.output_bytes += costs.output_bytes;
    trace.batches.push_back(std::move(costs));
  }
  return trace;
}

}  // namespace hs::dedup
