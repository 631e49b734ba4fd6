#include "mandel/modeled.hpp"

namespace hs::mandel {

std::string_view cpu_model_name(CpuModel m) {
  switch (m) {
    case CpuModel::kSpar: return "spar";
    case CpuModel::kTbb: return "tbb";
    case CpuModel::kFastFlow: return "fastflow";
  }
  return "?";
}

std::string_view gpu_api_name(GpuApi a) {
  return a == GpuApi::kCuda ? "cuda" : "opencl";
}

}  // namespace hs::mandel
