#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Report::get(const std::string& name, double fallback) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

bool Report::has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::wrong(const std::string& what) {
  // Keep the first few; one bad output already fails the run.
  if (errors_.size() < 8) errors_.push_back(what);
  if (errors_.size() == 8) errors_.push_back("...");
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    v = v < 0 ? std::numeric_limits<double>::lowest()
              : std::numeric_limits<double>::max();
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, end);
}

std::string Report::table() const {
  std::string out;
  for (const Metric& m : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %14.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (const Metric& m : metrics_) {
      if (m.name != names[i]) continue;
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
