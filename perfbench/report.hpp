// Named metrics of one benchmark run and the result line the run ends with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// Sets (or replaces) metric `name`.
  void set(const std::string& name, double value, const std::string& unit);
  /// Value of `name`, or `fallback` when it was never set.
  [[nodiscard]] double get(const std::string& name, double fallback = 0) const;
  [[nodiscard]] bool has(const std::string& name) const;

  /// Counts one operation; `ok` false counts it as failed too.
  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a wrong output: the run is reported as not correct.
  void wrong(const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return errors_.empty(); }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

  /// Human-readable "name = value unit" lines.
  [[nodiscard]] std::string table() const;
  /// The one-line JSON result: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}} over `names`, in that order
  /// (every name must have been set).
  [[nodiscard]] std::string json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Shortest round-trip decimal form of `v` (all significant digits);
/// non-finite values are clamped to the largest finite double so the
/// output stays valid JSON.
std::string json_number(double v);

/// Host fingerprint printed with every result (and kept as host.* metrics
/// in traced runs): core count, measured parallelism, SIMD level, SHA-NI
/// and build type.
struct Host {
  int nproc = 0;
  /// nproc threads of a fixed spin loop against one thread: nproc * t1/tN.
  double parallelism = 0;
  std::string simd;
  bool sha_ni = false;
  std::string build_type;
};

Host fingerprint_host();
std::string host_json(const Host& host);
void add_host_metrics(const Host& host, Report& report);

}  // namespace perfbench
