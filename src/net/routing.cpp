#include "net/routing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace hermes::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueEntry {
  double dist;
  NodeId node;
  bool operator>(const QueueEntry& o) const {
    return dist > o.dist || (dist == o.dist && node > o.node);
  }
};

// Every link's weight, evaluated once per call.
std::vector<double> link_weights(const Topology& topo,
                                 const LinkWeight& weight) {
  std::vector<double> w;
  w.reserve(static_cast<std::size_t>(topo.link_count()));
  for (const Link& l : topo.links()) w.push_back(weight(l));
  return w;
}

// Dijkstra from `src` over non-negative per-link weights `w`, honoring
// `banned_nodes` and `banned_links` (for Yen). Returns per-node distance
// and predecessor link.
struct SsspResult {
  std::vector<double> dist;
  std::vector<LinkId> pred_link;
};

SsspResult dijkstra(const Topology& topo, NodeId src,
                    const std::vector<double>& w,
                    const std::vector<char>* banned_nodes = nullptr,
                    const std::vector<char>* banned_links = nullptr) {
  auto n = static_cast<std::size_t>(topo.node_count());
  SsspResult r{std::vector<double>(n, kInf),
               std::vector<LinkId>(n, kInvalidLink)};
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      pq;
  r.dist[static_cast<std::size_t>(src)] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > r.dist[static_cast<std::size_t>(u)]) continue;
    for (LinkId lid : topo.links_of(u)) {
      auto li = static_cast<std::size_t>(lid);
      if (banned_links && (*banned_links)[li]) continue;
      NodeId v = topo.link(lid).other(u);
      auto vi = static_cast<std::size_t>(v);
      if (banned_nodes && (*banned_nodes)[vi]) continue;
      double nd = d + w[li];
      if (nd < r.dist[vi]) {
        r.dist[vi] = nd;
        r.pred_link[vi] = lid;
        // A leaf (a host) is settled here: popping it would only relax
        // the link just used, which improves nothing.
        if (topo.links_of(v).size() > 1) pq.push({nd, v});
      }
    }
  }
  return r;
}

std::optional<Path> extract_path(const Topology& topo, const SsspResult& r,
                                 NodeId src, NodeId dst) {
  if (r.dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;
  Path path;
  NodeId cur = dst;
  while (cur != src) {
    path.push_back(cur);
    LinkId pl = r.pred_link[static_cast<std::size_t>(cur)];
    cur = topo.link(pl).other(cur);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

LinkWeight hop_count() {
  return [](const Link&) { return 1.0; };
}

LinkWeight propagation_delay() {
  return [](const Link& l) { return l.delay_s; };
}

std::optional<Path> shortest_path(const Topology& topo, NodeId src,
                                  NodeId dst, const LinkWeight& weight) {
  if (src == dst) return Path{src};
  auto r = dijkstra(topo, src, link_weights(topo, weight));
  return extract_path(topo, r, src, dst);
}

double path_cost(const Topology& topo, const Path& path,
                 const LinkWeight& weight) {
  if (path.empty()) return kInf;
  double total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    LinkId l = topo.find_link(path[i], path[i + 1]);
    if (l == kInvalidLink) return kInf;
    total += weight(topo.link(l));
  }
  return total;
}

std::vector<Path> ecmp_paths(const Topology& topo, NodeId src, NodeId dst,
                             const LinkWeight& weight, int max_paths) {
  std::vector<Path> out;
  if (max_paths <= 0) return out;
  if (src == dst) {
    out.push_back(Path{src});
    return out;
  }
  // prefix + link + dist_to_dst == total  <=>  the link extends a
  // shortest path. Enumerate such paths by DFS from src; each frame
  // carries the weight of the path down to its node. A zero-weight link
  // satisfies the test in both directions, so nodes already on the path
  // are skipped: only simple paths are listed.
  std::vector<double> w = link_weights(topo, weight);
  auto to_dst = dijkstra(topo, dst, w);
  double total = to_dst.dist[static_cast<std::size_t>(src)];
  if (total == kInf) return out;

  constexpr double kEps = 1e-12;
  Path current{src};
  std::vector<char> on_path(static_cast<std::size_t>(topo.node_count()), 0);
  on_path[static_cast<std::size_t>(src)] = 1;
  // Iterative DFS with explicit stack of (node, next-neighbor-index).
  struct Frame {
    NodeId node;
    std::size_t next_idx;
    double prefix;
  };
  std::vector<Frame> stack{{src, 0, 0.0}};
  while (!stack.empty() && static_cast<int>(out.size()) < max_paths) {
    Frame& f = stack.back();
    NodeId u = f.node;
    const auto& adj = topo.links_of(u);
    bool descended = false;
    while (f.next_idx < adj.size()) {
      LinkId lid = adj[f.next_idx++];
      NodeId v = topo.link(lid).other(u);
      double dv = to_dst.dist[static_cast<std::size_t>(v)];
      if (dv == kInf || on_path[static_cast<std::size_t>(v)]) continue;
      double reached = f.prefix + w[static_cast<std::size_t>(lid)];
      if (std::abs(reached + dv - total) > kEps) continue;
      current.push_back(v);
      if (v == dst) {
        out.push_back(current);
        current.pop_back();
        if (static_cast<int>(out.size()) >= max_paths) break;
        continue;
      }
      on_path[static_cast<std::size_t>(v)] = 1;
      stack.push_back({v, 0, reached});  // invalidates `f`
      descended = true;
      break;
    }
    if (!descended && f.next_idx >= adj.size()) {
      on_path[static_cast<std::size_t>(u)] = 0;
      stack.pop_back();
      current.pop_back();
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeId src,
                                   NodeId dst, const LinkWeight& weight,
                                   int k) {
  std::vector<Path> result;
  if (k <= 0) return result;
  std::vector<double> w = link_weights(topo, weight);
  auto first = extract_path(topo, dijkstra(topo, src, w), src, dst);
  if (!first) return result;
  result.push_back(*first);

  // Candidate paths with their costs, taken by cost then
  // lexicographically (determinism).
  std::vector<std::pair<double, Path>> candidates;
  std::vector<char> banned_links(static_cast<std::size_t>(topo.link_count()));
  std::vector<char> banned_nodes(static_cast<std::size_t>(topo.node_count()));

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      NodeId spur_node = prev[i];
      Path root(prev.begin(),
                prev.begin() + static_cast<std::ptrdiff_t>(i + 1));

      std::fill(banned_links.begin(), banned_links.end(), 0);
      for (const Path& p : result) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          LinkId l = topo.find_link(p[i], p[i + 1]);
          if (l != kInvalidLink) banned_links[static_cast<std::size_t>(l)] = 1;
        }
      }
      std::fill(banned_nodes.begin(), banned_nodes.end(), 0);
      for (std::size_t j = 0; j < i; ++j)
        banned_nodes[static_cast<std::size_t>(root[j])] = 1;

      auto sssp = dijkstra(topo, spur_node, w, &banned_nodes, &banned_links);
      auto spur = extract_path(topo, sssp, spur_node, dst);
      if (!spur) continue;
      Path total = root;
      total.insert(total.end(), spur->begin() + 1, spur->end());
      bool seen =
          std::find(result.begin(), result.end(), total) != result.end() ||
          std::any_of(candidates.begin(), candidates.end(),
                      [&](const auto& c) { return c.second == total; });
      if (!seen) {
        double cost = path_cost(topo, total, weight);
        candidates.emplace_back(cost, std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end());
    result.push_back(std::move(best->second));
    candidates.erase(best);
  }
  return result;
}

PathDatabase::PathDatabase(const Topology& topo, int paths_per_pair,
                           LinkWeight weight)
    : topo_(topo),
      paths_per_pair_(paths_per_pair),
      weight_(std::move(weight)) {}

const std::vector<Path>& PathDatabase::paths(NodeId src, NodeId dst) {
  std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  std::vector<Path> paths = ecmp_paths(topo_, src, dst, weight_,
                                       paths_per_pair_);
  if (static_cast<int>(paths.size()) < paths_per_pair_) {
    for (Path& p : k_shortest_paths(topo_, src, dst, weight_,
                                    paths_per_pair_)) {
      if (std::find(paths.begin(), paths.end(), p) == paths.end())
        paths.push_back(std::move(p));
      if (static_cast<int>(paths.size()) >= paths_per_pair_) break;
    }
  }
  return cache_.emplace(key, std::move(paths)).first->second;
}

}  // namespace hermes::net
