// Differential test of FluidNetwork's flat max-min solver against a
// reference: the map-based progressive filling it replaced, kept here
// only as an oracle. Seeded streams of adds, removals, reroutes and
// advances run on both; after every op each rate, remaining volume, the
// next completion, every link's flow list and the utilization snapshot
// must agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <random>
#include <unordered_map>

#include "net/routing.h"
#include "sim/fluid_network.h"

namespace hermes::sim {
namespace {

// The map-based solver: flows in an unordered_map, every solve rebuilt
// from scratch, each bottleneck step scanning every flow.
class ReferenceFluid {
 public:
  explicit ReferenceFluid(const net::Topology& topo) {
    for (const net::Link& l : topo.links())
      capacity_.push_back(l.capacity_bps / 8.0);
  }

  FlowId add(double bytes, const std::vector<net::LinkId>& links) {
    FlowId id = next_id_++;
    flows_.emplace(id, Flow{bytes, 0, links});
    solve();
    return id;
  }
  void remove(FlowId id) {
    flows_.erase(id);
    solve();
  }
  void reroute(FlowId id, const std::vector<net::LinkId>& links) {
    auto it = flows_.find(id);
    if (it == flows_.end()) return;
    it->second.links = links;
    solve();
  }
  void advance_to(Time now) {
    double dt = to_seconds(now - last_);
    if (dt > 0) {
      for (auto& [id, f] : flows_)
        f.remaining = std::max(0.0, f.remaining - f.rate * dt);
    }
    last_ = now;
  }
  std::optional<FluidNetwork::NextCompletion> next_completion() const {
    std::optional<FluidNetwork::NextCompletion> best;
    for (const auto& [id, f] : flows_) {
      if (f.rate <= 0) continue;
      Time when = last_ + from_seconds(f.remaining / f.rate);
      if (f.remaining <= 0) when = last_;
      if (!best || when < best->time ||
          (when == best->time && id < best->flow))
        best = FluidNetwork::NextCompletion{id, when};
    }
    return best;
  }
  double rate(FlowId id) const {
    auto it = flows_.find(id);
    return it == flows_.end() ? 0 : it->second.rate;
  }
  double remaining(FlowId id) const {
    auto it = flows_.find(id);
    return it == flows_.end() ? 0 : it->second.remaining;
  }
  std::vector<FlowId> flows_on_link(net::LinkId link) const {
    std::vector<FlowId> out;
    for (const auto& [id, f] : flows_) {
      if (std::find(f.links.begin(), f.links.end(), link) != f.links.end())
        out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<double> all_link_utilization() const {
    std::vector<FlowId> ids;
    for (const auto& [id, f] : flows_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::vector<double> used(capacity_.size(), 0.0);
    for (FlowId id : ids) {
      for (net::LinkId l : flows_.at(id).links)
        used[static_cast<std::size_t>(l)] += flows_.at(id).rate;
    }
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (capacity_[i] > 0) used[i] /= capacity_[i];
    }
    return used;
  }
  std::size_t size() const { return flows_.size(); }

 private:
  struct Flow {
    double remaining = 0;
    double rate = 0;
    std::vector<net::LinkId> links;
  };

  void solve() {
    std::unordered_map<net::LinkId, double> residual;
    std::unordered_map<net::LinkId, int> active_count;
    for (auto& [id, f] : flows_) {
      f.rate = 0;
      for (net::LinkId l : f.links) {
        residual.emplace(l, capacity_[static_cast<std::size_t>(l)]);
        ++active_count[l];
      }
    }
    std::unordered_map<FlowId, char> frozen;
    std::size_t left = flows_.size();
    while (left > 0) {
      net::LinkId bottleneck = net::kInvalidLink;
      double best = std::numeric_limits<double>::infinity();
      for (const auto& [l, count] : active_count) {
        if (count <= 0) continue;
        double share = residual.at(l) / count;
        if (share < best || (share == best && l < bottleneck)) {
          best = share;
          bottleneck = l;
        }
      }
      if (bottleneck == net::kInvalidLink) break;
      for (auto& [id, f] : flows_) {
        if (frozen.count(id)) continue;
        if (std::find(f.links.begin(), f.links.end(), bottleneck) ==
            f.links.end())
          continue;
        f.rate = best;
        frozen.emplace(id, 1);
        --left;
        for (net::LinkId l : f.links) {
          residual[l] -= best;
          --active_count[l];
        }
      }
    }
  }

  std::vector<double> capacity_;
  std::unordered_map<FlowId, Flow> flows_;
  FlowId next_id_ = 0;
  Time last_ = 0;
};

// Ring plus chords with mixed capacities, so solves take several
// bottleneck steps.
net::Topology random_graph(std::mt19937_64& rng) {
  net::Topology t;
  int n = 6 + static_cast<int>(rng() % 7);
  for (int i = 0; i < n; ++i)
    t.add_node(net::NodeKind::kSwitch, "s" + std::to_string(i));
  for (int i = 0; i < n; ++i)
    t.add_link(i, (i + 1) % n, (1 + static_cast<double>(rng() % 10)) * 1e9,
               1e-3);
  int chords = 2 + static_cast<int>(rng() % 5);
  for (int c = 0; c < chords; ++c) {
    int a = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    int b = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (a == b || t.find_link(a, b) != net::kInvalidLink) continue;
    t.add_link(a, b, (1 + static_cast<double>(rng() % 10)) * 1e9, 1e-3);
  }
  return t;
}

void expect_same(const FluidNetwork& net, const ReferenceFluid& ref,
                 const net::Topology& topo, FlowId issued, int op) {
  ASSERT_EQ(static_cast<std::size_t>(net.active_flow_count()), ref.size())
      << "op " << op;
  for (FlowId id = 0; id < issued; ++id) {
    ASSERT_EQ(net.rate_bytes_per_s(id), ref.rate(id))
        << "op " << op << " flow " << id;
    ASSERT_EQ(net.remaining_bytes(id), ref.remaining(id))
        << "op " << op << " flow " << id;
  }
  auto got = net.next_completion();
  auto want = ref.next_completion();
  ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
  if (got) {
    EXPECT_EQ(got->flow, want->flow) << "op " << op;
    EXPECT_EQ(got->time, want->time) << "op " << op;
  }
  auto util = net.all_link_utilization();
  auto ref_util = ref.all_link_utilization();
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    ASSERT_EQ(net.flows_on_link(l), ref.flows_on_link(l))
        << "op " << op << " link " << l;
    ASSERT_EQ(util[static_cast<std::size_t>(l)],
              ref_util[static_cast<std::size_t>(l)])
        << "op " << op << " link " << l;
    ASSERT_EQ(net.link_utilization(l), ref_util[static_cast<std::size_t>(l)])
        << "op " << op << " link " << l;
  }
}

// Drives `ops` seeded operations over `endpoints` on both solvers.
void run_stream(const net::Topology& topo,
                const std::vector<net::NodeId>& endpoints, std::uint64_t seed,
                int ops) {
  std::mt19937_64 rng(seed);
  net::PathDatabase paths(topo, 4, net::hop_count());
  FluidNetwork net(topo);
  ReferenceFluid ref(topo);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto random_links = [&] {
    net::NodeId a = endpoints[pick(endpoints.size())];
    net::NodeId b = endpoints[pick(endpoints.size())];
    while (b == a) b = endpoints[pick(endpoints.size())];
    const auto& cands = paths.paths(a, b);
    return net::path_links(topo, cands[pick(cands.size())]);
  };
  std::vector<FlowId> live;
  FlowId issued = 0;
  Time now = 0;
  for (int op = 0; op < ops; ++op) {
    std::uint64_t kind = rng() % 10;
    if (live.empty() || kind < 4) {
      auto links = random_links();
      double bytes = 1e5 * static_cast<double>(1 + rng() % 1000);
      FlowId id = net.add_flow(bytes, links, now);
      ASSERT_EQ(id, ref.add(bytes, links));
      live.push_back(id);
      issued = id + 1;
    } else if (kind < 6) {
      FlowId id = live[pick(live.size())];
      if (rng() % 8 == 0)  // sometimes an unknown or finished id
        id = static_cast<FlowId>(pick(static_cast<std::size_t>(issued) + 3));
      net.remove_flow(id, now);
      ref.remove(id);
      live.erase(std::remove(live.begin(), live.end(), id), live.end());
    } else if (kind < 8) {
      FlowId id = live[pick(live.size())];
      auto links = random_links();
      net.reroute_flow(id, links, now);
      ref.reroute(id, links);
    } else if (kind == 8) {
      now += from_millis(static_cast<double>(1 + rng() % 50));
      net.advance_to(now);
      ref.advance_to(now);
    } else {
      // Run to the next completion and retire that flow.
      auto next = net.next_completion();
      if (!next) continue;
      now = std::max(now, next->time);
      net.advance_to(now);
      ref.advance_to(now);
      net.remove_flow(next->flow, now);
      ref.remove(next->flow);
      live.erase(std::remove(live.begin(), live.end(), next->flow),
                 live.end());
    }
    expect_same(net, ref, topo, issued, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class SolverDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverDifferential, RandomGraphStreamMatchesReference) {
  std::mt19937_64 rng(GetParam());
  net::Topology topo = random_graph(rng);
  std::vector<net::NodeId> nodes;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) nodes.push_back(n);
  run_stream(topo, nodes, GetParam() * 7919 + 1, 400);
}

TEST_P(SolverDifferential, FatTreeK4StreamMatchesReference) {
  net::Topology topo = net::fat_tree(4);
  run_stream(topo, topo.hosts(), GetParam(), 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferential,
                         ::testing::Values(1, 2, 3, 17, 4242));

}  // namespace
}  // namespace hermes::sim
