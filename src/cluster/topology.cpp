#include "cluster/topology.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <deque>

namespace hs::cluster {

namespace {

std::vector<std::string> split_ws(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    std::size_t j = i;
    while (j < line.size() && !std::isspace(static_cast<unsigned char>(line[j]))) ++j;
    if (j > i) out.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Records the attribute name of `token` (the part before '=') in `seen`;
/// false when the line already used it.
bool first_use(std::vector<std::string_view>& seen, std::string_view token) {
  const std::string_view key = token.substr(0, token.find('='));
  if (std::find(seen.begin(), seen.end(), key) != seen.end()) return false;
  seen.push_back(key);
  return true;
}

/// "key=value" -> value, or empty when the token has a different key.
std::string_view kv(std::string_view token, std::string_view key) {
  if (token.size() > key.size() + 1 && token.substr(0, key.size()) == key &&
      token[key.size()] == '=') {
    return token.substr(key.size() + 1);
  }
  return {};
}

/// Strict double parse of the whole token (no exceptions; strtod + full
/// consumption check), scaled by `scale`. NaN, infinities and values that
/// overflow once scaled fail.
bool parse_number(std::string_view s, double scale, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  v *= scale;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Out-of-range values fail rather than wrap into range.
bool parse_int(std::string_view s, int* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// Number with an optional decimal byte suffix (KB/MB/GB), case-insensitive.
bool parse_bytes_per_s(std::string_view s, double* out) {
  double scale = 1.0;
  auto ends_with_ci = [&](std::string_view suf) {
    if (s.size() < suf.size()) return false;
    for (std::size_t i = 0; i < suf.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(
              s[s.size() - suf.size() + i])) != suf[i]) {
        return false;
      }
    }
    return true;
  };
  if (ends_with_ci("GB")) {
    scale = 1e9;
    s.remove_suffix(2);
  } else if (ends_with_ci("MB")) {
    scale = 1e6;
    s.remove_suffix(2);
  } else if (ends_with_ci("KB")) {
    scale = 1e3;
    s.remove_suffix(2);
  }
  return parse_number(s, scale, out);
}

/// Number with a time suffix (s/ms/us/ns); a bare number means seconds.
bool parse_seconds(std::string_view s, double* out) {
  double scale = 1.0;
  auto strip = [&](std::string_view suf, double sc) {
    if (s.size() > suf.size() &&
        s.substr(s.size() - suf.size()) == suf) {
      scale = sc;
      s.remove_suffix(suf.size());
      return true;
    }
    return false;
  };
  // Order matters: "ms"/"us"/"ns" before the bare "s".
  if (!strip("ms", 1e-3) && !strip("us", 1e-6) && !strip("ns", 1e-9)) {
    strip("s", 1.0);
  }
  return parse_number(s, scale, out);
}

Status line_error(std::size_t lineno, const std::string& what) {
  return InvalidArgument("topology line " + std::to_string(lineno) + ": " +
                         what);
}

/// GPUs one spec line may give a node: the line allocates a DeviceSpec per
/// GPU, so an unbounded count is an allocation of the spec's choosing.
constexpr int kMaxGpusPerNode = 64;
/// Link bounds validate() enforces.
constexpr double kMinLinkBandwidth = 1.0;  ///< bytes/s
constexpr double kMaxLinkLatencyS = 3600.0;

}  // namespace

int Topology::node_index(std::string_view name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Topology::validate() const {
  if (nodes.empty()) return InvalidArgument("topology has no nodes");
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name.empty()) return InvalidArgument("node with empty name");
    if (nodes[i].cores <= 0) {
      return InvalidArgument("node '" + nodes[i].name +
                             "': cores must be positive");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes[j].name == nodes[i].name) {
        return InvalidArgument("duplicate node '" + nodes[i].name + "'");
      }
    }
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkSpec& l = links[i];
    if (node_index(l.a) < 0) {
      return InvalidArgument("link references unknown node '" + l.a + "'");
    }
    if (node_index(l.b) < 0) {
      return InvalidArgument("link references unknown node '" + l.b + "'");
    }
    if (l.a == l.b) {
      return InvalidArgument("self-link on node '" + l.a + "'");
    }
    // Bounds that keep every transfer time (lat + bytes/bw) finite.
    if (!(l.bandwidth_bytes_per_s >= kMinLinkBandwidth) ||
        !std::isfinite(l.bandwidth_bytes_per_s)) {
      return InvalidArgument("link " + l.a + "-" + l.b +
                             ": bandwidth must be finite and >= 1 B/s");
    }
    if (!(l.latency_s >= 0 && l.latency_s <= kMaxLinkLatencyS)) {
      return InvalidArgument("link " + l.a + "-" + l.b +
                             ": latency must be in [0, 3600] s");
    }
    for (std::size_t j = 0; j < i; ++j) {
      const LinkSpec& m = links[j];
      if ((m.a == l.a && m.b == l.b) || (m.a == l.b && m.b == l.a)) {
        return InvalidArgument("duplicate link " + l.a + "-" + l.b);
      }
    }
  }
  return OkStatus();
}

Result<Topology> parse_topology(std::string_view text) {
  Topology topo;
  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::vector<std::string> tok = split_ws(line);
    if (tok.empty()) continue;

    if (tok[0] == "node") {
      if (tok.size() < 2) return line_error(lineno, "node needs a name");
      NodeSpec node;
      node.name = tok[1];
      int gpus = 0;
      std::vector<std::string_view> seen;
      for (std::size_t t = 2; t < tok.size(); ++t) {
        if (!first_use(seen, tok[t])) {
          return line_error(lineno, "repeated node attribute '" + tok[t] + "'");
        }
        if (auto v = kv(tok[t], "cores"); !v.empty()) {
          if (!parse_int(v, &node.cores)) {
            return line_error(lineno, "bad cores value '" + std::string(v) + "'");
          }
        } else if (auto g = kv(tok[t], "gpus"); !g.empty()) {
          if (!parse_int(g, &gpus)) {
            return line_error(lineno, "bad gpus value '" + std::string(g) + "'");
          }
          if (gpus < 0 || gpus > kMaxGpusPerNode) {
            return line_error(lineno, "gpus must be in [0, " +
                                          std::to_string(kMaxGpusPerNode) +
                                          "]");
          }
        } else {
          return line_error(lineno, "unknown node attribute '" + tok[t] + "'");
        }
      }
      node.gpus.assign(static_cast<std::size_t>(gpus),
                       gpusim::DeviceSpec::TitanXP());
      topo.nodes.push_back(std::move(node));
    } else if (tok[0] == "link") {
      if (tok.size() < 3) return line_error(lineno, "link needs two nodes");
      LinkSpec link;
      link.a = tok[1];
      link.b = tok[2];
      bool have_bw = false;
      std::vector<std::string_view> seen;
      for (std::size_t t = 3; t < tok.size(); ++t) {
        if (!first_use(seen, tok[t])) {
          return line_error(lineno, "repeated link attribute '" + tok[t] + "'");
        }
        if (auto v = kv(tok[t], "bw"); !v.empty()) {
          if (!parse_bytes_per_s(v, &link.bandwidth_bytes_per_s)) {
            return line_error(lineno, "bad bw value '" + std::string(v) + "'");
          }
          have_bw = true;
        } else if (auto l = kv(tok[t], "lat"); !l.empty()) {
          if (!parse_seconds(l, &link.latency_s)) {
            return line_error(lineno, "bad lat value '" + std::string(l) + "'");
          }
        } else if (tok[t] == "half") {
          link.full_duplex = false;
        } else {
          return line_error(lineno, "unknown link attribute '" + tok[t] + "'");
        }
      }
      if (!have_bw) return line_error(lineno, "link needs bw=");
      topo.links.push_back(std::move(link));
    } else {
      return line_error(lineno, "unknown directive '" + tok[0] + "'");
    }
  }
  if (Status s = topo.validate(); !s.ok()) return s;
  return topo;
}

Routes compute_routes(const Topology& topo) {
  const int n = static_cast<int>(topo.nodes.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const LinkSpec& l : topo.links) {
    int a = topo.node_index(l.a);
    int b = topo.node_index(l.b);
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  // Lowest-index tie break: visit neighbors in sorted order.
  for (auto& v : adj) std::sort(v.begin(), v.end());

  Routes r;
  r.next.assign(static_cast<std::size_t>(n),
                std::vector<int>(static_cast<std::size_t>(n), -1));
  r.hops.assign(static_cast<std::size_t>(n),
                std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int s = 0; s < n; ++s) {
    auto& next = r.next[static_cast<std::size_t>(s)];
    auto& hops = r.hops[static_cast<std::size_t>(s)];
    next[static_cast<std::size_t>(s)] = s;
    hops[static_cast<std::size_t>(s)] = 0;
    // BFS from s; first_hop[d] is the neighbor of s the path starts with.
    std::deque<int> queue{s};
    std::vector<int> first_hop(static_cast<std::size_t>(n), -1);
    first_hop[static_cast<std::size_t>(s)] = s;
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop_front();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (hops[static_cast<std::size_t>(v)] != -1) continue;
        hops[static_cast<std::size_t>(v)] =
            hops[static_cast<std::size_t>(u)] + 1;
        first_hop[static_cast<std::size_t>(v)] =
            u == s ? v : first_hop[static_cast<std::size_t>(u)];
        next[static_cast<std::size_t>(v)] =
            first_hop[static_cast<std::size_t>(v)];
        queue.push_back(v);
      }
    }
  }
  return r;
}

Topology full_mesh(int nodes, int gpus_per_node,
                   const gpusim::DeviceSpec& gpu_spec,
                   double bandwidth_bytes_per_s, double latency_s,
                   int cores_per_node) {
  Topology topo;
  for (int i = 0; i < nodes; ++i) {
    NodeSpec node;
    node.name = "n" + std::to_string(i);
    node.cores = cores_per_node;
    node.gpus.assign(static_cast<std::size_t>(std::max(0, gpus_per_node)),
                     gpu_spec);
    topo.nodes.push_back(std::move(node));
  }
  for (int a = 0; a < nodes; ++a) {
    for (int b = a + 1; b < nodes; ++b) {
      LinkSpec link;
      link.a = "n" + std::to_string(a);
      link.b = "n" + std::to_string(b);
      link.bandwidth_bytes_per_s = bandwidth_bytes_per_s;
      link.latency_s = latency_s;
      topo.links.push_back(std::move(link));
    }
  }
  return topo;
}

}  // namespace hs::cluster
