// Property tests for the routing algorithms on random graphs, checked
// against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <set>

#include "net/routing.h"

namespace hermes::net {
namespace {

// Link delays are 1..9 ms, or with `tied` 0, 1 or 2 ms: zero-weight
// links and many equal-cost paths.
Topology random_graph(std::mt19937_64& rng, int n, double edge_prob,
                      bool tied = false) {
  Topology t;
  for (int i = 0; i < n; ++i)
    t.add_node(NodeKind::kSwitch, "n" + std::to_string(i));
  auto delay = [&] {
    return tied ? 1e-3 * static_cast<double>(rng() % 3)
                : 1e-3 * (1 + static_cast<double>(rng() % 9));
  };
  // Spanning path for connectivity, then random extra edges.
  std::uniform_real_distribution<double> unit(0, 1);
  for (int i = 0; i + 1 < n; ++i) t.add_link(i, i + 1, 1e9, delay());
  for (int i = 0; i < n; ++i) {
    for (int j = i + 2; j < n; ++j) {
      if (unit(rng) < edge_prob) t.add_link(i, j, 1e9, delay());
    }
  }
  return t;
}

// Whole milliseconds: exact sums, so path costs compare with ==.
LinkWeight whole_ms() {
  return [](const Link& l) { return std::round(l.delay_s * 1e3); };
}


// All loopless paths src->dst by DFS (graphs are small).
void all_paths(const Topology& t, NodeId at, NodeId dst,
               std::vector<char>& used, Path& current,
               std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(current);
    return;
  }
  for (LinkId l : t.links_of(at)) {
    NodeId next = t.link(l).other(at);
    if (used[static_cast<std::size_t>(next)]) continue;
    used[static_cast<std::size_t>(next)] = 1;
    current.push_back(next);
    all_paths(t, next, dst, used, current, out);
    current.pop_back();
    used[static_cast<std::size_t>(next)] = 0;
  }
}

std::vector<Path> brute_force_paths(const Topology& t, NodeId src,
                                    NodeId dst) {
  std::vector<Path> out;
  std::vector<char> used(static_cast<std::size_t>(t.node_count()), 0);
  used[static_cast<std::size_t>(src)] = 1;
  Path current{src};
  all_paths(t, src, dst, used, current, out);
  return out;
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, DijkstraMatchesBruteForceMinimum) {
  std::mt19937_64 rng(GetParam());
  Topology t = random_graph(rng, 7, 0.3);
  auto weight = propagation_delay();
  for (NodeId src = 0; src < t.node_count(); ++src) {
    for (NodeId dst = 0; dst < t.node_count(); ++dst) {
      if (src == dst) continue;
      auto sp = shortest_path(t, src, dst, weight);
      ASSERT_TRUE(sp.has_value());
      double best = std::numeric_limits<double>::infinity();
      for (const Path& p : brute_force_paths(t, src, dst))
        best = std::min(best, path_cost(t, p, weight));
      EXPECT_NEAR(path_cost(t, *sp, weight), best, 1e-12);
    }
  }
}

TEST_P(RoutingProperty, YenMatchesBruteForceTopK) {
  std::mt19937_64 rng(GetParam() ^ 0xABCDEF);
  Topology t = random_graph(rng, 6, 0.35);
  auto weight = propagation_delay();
  const int k = 4;
  NodeId src = 0;
  NodeId dst = t.node_count() - 1;
  auto yen = k_shortest_paths(t, src, dst, weight, k);
  auto brute = brute_force_paths(t, src, dst);
  std::sort(brute.begin(), brute.end(), [&](const Path& a, const Path& b) {
    return path_cost(t, a, weight) < path_cost(t, b, weight);
  });
  ASSERT_EQ(yen.size(),
            std::min<std::size_t>(static_cast<std::size_t>(k),
                                  brute.size()));
  for (std::size_t i = 0; i < yen.size(); ++i) {
    // Same cost at each rank (ties may reorder the concrete paths).
    EXPECT_NEAR(path_cost(t, yen[i], weight),
                path_cost(t, brute[i], weight), 1e-12)
        << "rank " << i;
    // Loopless.
    std::set<NodeId> uniq(yen[i].begin(), yen[i].end());
    EXPECT_EQ(uniq.size(), yen[i].size());
  }
}

TEST_P(RoutingProperty, EcmpEnumeratesAllMinimumCostPaths) {
  // Hop count => many ties => real ECMP sets. Tied graphs add zero-weight
  // links, weighed in whole milliseconds so costs compare exactly.
  for (bool tied : {false, true}) {
    std::mt19937_64 rng(GetParam() ^ (tied ? 0x3333 : 0x5555));
    Topology t = random_graph(rng, 6, 0.4, tied);
    auto weight = tied ? whole_ms() : hop_count();
    NodeId src = 0;
    NodeId dst = t.node_count() - 1;
    auto ecmp = ecmp_paths(t, src, dst, weight, 64);
    auto brute = brute_force_paths(t, src, dst);
    double best = std::numeric_limits<double>::infinity();
    for (const Path& p : brute) best = std::min(best, path_cost(t, p, weight));
    std::set<Path> expected;
    for (const Path& p : brute)
      if (path_cost(t, p, weight) == best) expected.insert(p);
    std::set<Path> got(ecmp.begin(), ecmp.end());
    EXPECT_EQ(got, expected) << "tied " << tied;
  }
}

// Reference implementations: the two-search ECMP enumeration and the
// std::set-based Yen that routing.cpp used before its single weighted
// search, kept here as oracles. Weights go through the LinkWeight on
// every edge, as they did then. The ECMP DFS also skips nodes already on
// the path, without which it never ends on a zero-weight link.
struct RefSssp {
  std::vector<double> dist;
  std::vector<LinkId> pred;
};

RefSssp ref_dijkstra(const Topology& t, NodeId src, const LinkWeight& weight,
                     const std::vector<char>* banned_nodes = nullptr,
                     const std::set<LinkId>* banned_links = nullptr) {
  auto n = static_cast<std::size_t>(t.node_count());
  RefSssp r{std::vector<double>(n, std::numeric_limits<double>::infinity()),
            std::vector<LinkId>(n, kInvalidLink)};
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  r.dist[static_cast<std::size_t>(src)] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > r.dist[static_cast<std::size_t>(u)]) continue;
    for (LinkId lid : t.links_of(u)) {
      if (banned_links && banned_links->count(lid)) continue;
      NodeId v = t.link(lid).other(u);
      if (banned_nodes && (*banned_nodes)[static_cast<std::size_t>(v)])
        continue;
      double nd = d + weight(t.link(lid));
      if (nd < r.dist[static_cast<std::size_t>(v)]) {
        r.dist[static_cast<std::size_t>(v)] = nd;
        r.pred[static_cast<std::size_t>(v)] = lid;
        pq.push({nd, v});
      }
    }
  }
  return r;
}

std::optional<Path> ref_extract(const Topology& t, const RefSssp& r,
                                NodeId src, NodeId dst) {
  if (r.dist[static_cast<std::size_t>(dst)] ==
      std::numeric_limits<double>::infinity())
    return std::nullopt;
  Path path;
  for (NodeId cur = dst; cur != src;) {
    path.push_back(cur);
    cur = t.link(r.pred[static_cast<std::size_t>(cur)]).other(cur);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

// dist_from_src + link + dist_to_dst == total, by DFS from src.
std::vector<Path> ref_ecmp(const Topology& t, NodeId src, NodeId dst,
                           const LinkWeight& weight, int max_paths) {
  std::vector<Path> out;
  if (src == dst) return {Path{src}};
  auto from_src = ref_dijkstra(t, src, weight);
  auto to_dst = ref_dijkstra(t, dst, weight);
  double total = from_src.dist[static_cast<std::size_t>(dst)];
  if (total == std::numeric_limits<double>::infinity()) return out;
  Path current{src};
  std::vector<char> used(static_cast<std::size_t>(t.node_count()), 0);
  used[static_cast<std::size_t>(src)] = 1;
  std::function<void(NodeId)> dfs = [&](NodeId u) {
    for (LinkId lid : t.links_of(u)) {
      if (static_cast<int>(out.size()) >= max_paths) return;
      NodeId v = t.link(lid).other(u);
      if (used[static_cast<std::size_t>(v)]) continue;
      double dv = to_dst.dist[static_cast<std::size_t>(v)];
      if (dv == std::numeric_limits<double>::infinity()) continue;
      double du = from_src.dist[static_cast<std::size_t>(u)];
      if (std::abs(du + weight(t.link(lid)) + dv - total) > 1e-12) continue;
      current.push_back(v);
      if (v == dst) {
        out.push_back(current);
      } else {
        used[static_cast<std::size_t>(v)] = 1;
        dfs(v);
        used[static_cast<std::size_t>(v)] = 0;
      }
      current.pop_back();
    }
  };
  dfs(src);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Path> ref_yen(const Topology& t, NodeId src, NodeId dst,
                          const LinkWeight& weight, int k) {
  std::vector<Path> result;
  auto first = ref_extract(t, ref_dijkstra(t, src, weight), src, dst);
  if (!first) return result;
  result.push_back(*first);
  auto cmp = [&](const Path& a, const Path& b) {
    double ca = path_cost(t, a, weight);
    double cb = path_cost(t, b, weight);
    if (ca != cb) return ca < cb;
    return a < b;
  };
  std::vector<Path> candidates;
  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      Path root(prev.begin(),
                prev.begin() + static_cast<std::ptrdiff_t>(i + 1));
      std::set<LinkId> banned_links;
      for (const Path& p : result) {
        if (p.size() > i + 1 && std::equal(root.begin(), root.end(), p.begin()))
          banned_links.insert(t.find_link(p[i], p[i + 1]));
      }
      std::vector<char> banned_nodes(static_cast<std::size_t>(t.node_count()),
                                     0);
      for (std::size_t j = 0; j < i; ++j)
        banned_nodes[static_cast<std::size_t>(root[j])] = 1;
      auto spur = ref_extract(
          t, ref_dijkstra(t, prev[i], weight, &banned_nodes, &banned_links),
          prev[i], dst);
      if (!spur) continue;
      Path total = root;
      total.insert(total.end(), spur->begin() + 1, spur->end());
      if (std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end() &&
          std::find(result.begin(), result.end(), total) == result.end())
        candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(), cmp);
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

TEST_P(RoutingProperty, EcmpMatchesTwoSearchReference) {
  // Delay weights are non-integer (sums round differently along
  // different equal-cost paths); hop counts give large tie sets; tied
  // graphs add zero-weight links and repeated weights.
  for (bool tied : {false, true}) {
    std::mt19937_64 rng(GetParam() ^ (tied ? 0x33 : 0x77));
    for (int graph = 0; graph < 4; ++graph) {
      Topology t = random_graph(rng, 9, 0.35, tied);
      for (const LinkWeight& weight : {propagation_delay(), hop_count()}) {
        for (NodeId src = 0; src < t.node_count(); ++src) {
          for (NodeId dst = 0; dst < t.node_count(); ++dst) {
            for (int max_paths : {1, 3, 64}) {
              EXPECT_EQ(ecmp_paths(t, src, dst, weight, max_paths),
                        ref_ecmp(t, src, dst, weight, max_paths))
                  << "tied " << tied << " graph " << graph << " " << src
                  << "->" << dst << " max " << max_paths;
            }
          }
        }
      }
    }
  }
}

TEST_P(RoutingProperty, YenMatchesSetBasedReference) {
  for (bool tied : {false, true}) {
    std::mt19937_64 rng(GetParam() ^ (tied ? 0x44 : 0x99));
    for (int graph = 0; graph < 4; ++graph) {
      Topology t = random_graph(rng, 8, 0.4, tied);
      for (const LinkWeight& weight : {propagation_delay(), hop_count()}) {
        for (NodeId dst = 1; dst < t.node_count(); ++dst) {
          EXPECT_EQ(k_shortest_paths(t, 0, dst, weight, 6),
                    ref_yen(t, 0, dst, weight, 6))
              << "tied " << tied << " graph " << graph << " 0->" << dst;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(10, 20, 30, 40));

TEST(PathDatabaseFatTree, ServesEcmpSpreadsForHostPairs) {
  Topology t = fat_tree(4);
  PathDatabase db(t, 4, hop_count());
  auto hosts = t.hosts();
  // Inter-pod pair: 4 equal-cost paths exist and must all be served.
  const auto& paths = db.paths(hosts.front(), hosts.back());
  EXPECT_EQ(paths.size(), 4u);
  std::set<Path> uniq(paths.begin(), paths.end());
  EXPECT_EQ(uniq.size(), paths.size());
  for (const Path& p : paths) {
    EXPECT_EQ(p.front(), hosts.front());
    EXPECT_EQ(p.back(), hosts.back());
    EXPECT_FALSE(path_links(t, p).empty());
  }
}

TEST(YenBannedLinks, SpursAvoidEveryLinkTakenFromASharedRoot) {
  // 0 - 1 then three parallel two-hop branches 1-{2,3,4}-5 of rising
  // delay. The 2nd and 3rd paths spur at node 1, where the branch links
  // of every earlier path with root {0,1} must be banned.
  Topology t;
  for (int i = 0; i < 6; ++i) t.add_node(NodeKind::kSwitch, std::to_string(i));
  t.add_link(0, 1, 1e9, 1e-3);
  t.add_link(1, 2, 1e9, 1e-3);
  t.add_link(2, 5, 1e9, 1e-3);
  t.add_link(1, 3, 1e9, 2e-3);
  t.add_link(3, 5, 1e9, 2e-3);
  t.add_link(1, 4, 1e9, 3e-3);
  t.add_link(4, 5, 1e9, 3e-3);
  auto yen = k_shortest_paths(t, 0, 5, propagation_delay(), 5);
  std::vector<Path> want{{0, 1, 2, 5}, {0, 1, 3, 5}, {0, 1, 4, 5}};
  EXPECT_EQ(yen, want);
  EXPECT_EQ(yen, ref_yen(t, 0, 5, propagation_delay(), 5));
}

TEST(EcmpZeroWeight, ListsOnlySimplePaths) {
  // 0 -(0 s)- 1 -(1 ms)- 2. Link 1-2 is added first, so node 1 reaches 2
  // before it tries the zero-weight link back to 0, which also keeps
  // prefix + weight + distance-to-2 at the optimum.
  Topology t;
  for (int i = 0; i < 3; ++i) t.add_node(NodeKind::kSwitch, std::to_string(i));
  t.add_link(1, 2, 1e9, 1e-3);
  t.add_link(0, 1, 1e9, 0.0);
  EXPECT_EQ(ecmp_paths(t, 0, 2, propagation_delay(), 2),
            (std::vector<Path>{{0, 1, 2}}));
}

}  // namespace
}  // namespace hermes::net
