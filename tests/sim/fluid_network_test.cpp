#include "sim/fluid_network.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "net/routing.h"

namespace hermes::sim {
namespace {

// Two hosts joined by a single 8 Gbps (1 GB/s) link.
net::Topology dumbbell() {
  net::Topology t;
  net::NodeId a = t.add_node(net::NodeKind::kHost, "a");
  net::NodeId b = t.add_node(net::NodeKind::kHost, "b");
  t.add_link(a, b, 8e9, 1e-3);
  return t;
}

TEST(FluidNetwork, SingleFlowGetsFullCapacity) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  FlowId f = net.add_flow(1e9, {0}, 0);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f), 1e9);
  EXPECT_DOUBLE_EQ(net.link_utilization(0), 1.0);
  auto next = net.next_completion();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->flow, f);
  EXPECT_EQ(next->time, from_seconds(1.0));
}

TEST(FluidNetwork, TwoFlowsShareFairly) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  FlowId f1 = net.add_flow(1e9, {0}, 0);
  FlowId f2 = net.add_flow(2e9, {0}, 0);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f1), 5e8);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f2), 5e8);
}

TEST(FluidNetwork, AdvanceDrainsLinearly) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  FlowId f = net.add_flow(1e9, {0}, 0);
  net.advance_to(from_seconds(0.25));
  EXPECT_DOUBLE_EQ(net.remaining_bytes(f), 7.5e8);
}

TEST(FluidNetwork, CompletionFreesBandwidth) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  FlowId f1 = net.add_flow(1e9, {0}, 0);
  FlowId f2 = net.add_flow(4e9, {0}, 0);
  // Both at 0.5 GB/s; f1 finishes at t=2s.
  auto next = net.next_completion();
  ASSERT_TRUE(next);
  EXPECT_EQ(next->flow, f1);
  EXPECT_EQ(next->time, from_seconds(2.0));
  net.advance_to(next->time);
  net.remove_flow(f1, next->time);
  // f2 has 3 GB left at full 1 GB/s now.
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f2), 1e9);
  auto after = net.next_completion();
  ASSERT_TRUE(after);
  EXPECT_EQ(after->time, from_seconds(5.0));
}

TEST(FluidNetwork, MaxMinWithDistinctBottlenecks) {
  // h0 --L0(1GB/s)-- s --L1(0.25GB/s)-- h1 ; flow A uses L0+L1, flow B
  // uses only L0. Max-min: A gets 0.25 (bottleneck L1), B gets the
  // remaining 0.75.
  net::Topology t;
  net::NodeId h0 = t.add_node(net::NodeKind::kHost, "h0");
  net::NodeId s = t.add_node(net::NodeKind::kSwitch, "s");
  net::NodeId h1 = t.add_node(net::NodeKind::kHost, "h1");
  net::LinkId l0 = t.add_link(h0, s, 8e9, 1e-3);
  net::LinkId l1 = t.add_link(s, h1, 2e9, 1e-3);
  FluidNetwork net(t);
  FlowId a = net.add_flow(1e9, {l0, l1}, 0);
  FlowId b = net.add_flow(1e9, {l0}, 0);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(a), 0.25e9);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(b), 0.75e9);
  EXPECT_DOUBLE_EQ(net.link_utilization(l0), 1.0);
  EXPECT_DOUBLE_EQ(net.link_utilization(l1), 1.0);
}

TEST(FluidNetwork, RerouteChangesRates) {
  // Two parallel links between the same endpoints.
  net::Topology t;
  net::NodeId a = t.add_node(net::NodeKind::kHost, "a");
  net::NodeId b = t.add_node(net::NodeKind::kHost, "b");
  net::LinkId l0 = t.add_link(a, b, 8e9, 1e-3);
  net::LinkId l1 = t.add_link(a, b, 8e9, 1e-3);
  FluidNetwork net(t);
  FlowId f1 = net.add_flow(1e9, {l0}, 0);
  FlowId f2 = net.add_flow(1e9, {l0}, 0);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f1), 5e8);
  net.reroute_flow(f2, {l1}, 0);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f1), 1e9);
  EXPECT_DOUBLE_EQ(net.rate_bytes_per_s(f2), 1e9);
  EXPECT_EQ(net.flows_on_link(l1), std::vector<FlowId>{f2});
}

TEST(FluidNetwork, UtilizationSnapshotMatchesPerLink) {
  net::Topology t = net::fat_tree(4);
  FluidNetwork net(t);
  auto hosts = t.hosts();
  auto path = net::shortest_path(t, hosts[0], hosts[8], net::hop_count());
  ASSERT_TRUE(path);
  net.add_flow(1e9, net::path_links(t, *path), 0);
  auto all = net.all_link_utilization();
  for (int l = 0; l < t.link_count(); ++l)
    EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(l)],
                     net.link_utilization(l));
}

TEST(FluidNetwork, UtilizationIsAscendingIdSumAfterChurn) {
  // TE compares utilizations for ties, so the sum behind each one must
  // have one defined order: ascending flow id, whatever the history of
  // adds, removals and reroutes.
  net::Topology t = net::fat_tree(4);
  net::PathDatabase paths(t, 4, net::hop_count());
  auto hosts = t.hosts();
  FluidNetwork net(t);
  std::mt19937_64 rng(7);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto random_links = [&] {
    net::NodeId a = hosts[pick(hosts.size())];
    net::NodeId b = hosts[pick(hosts.size())];
    while (b == a) b = hosts[pick(hosts.size())];
    const auto& cands = paths.paths(a, b);
    return net::path_links(t, cands[pick(cands.size())]);
  };
  std::vector<FlowId> live;
  for (int op = 0; op < 400; ++op) {
    std::uint64_t kind = rng() % 4;
    if (live.empty() || kind <= 1) {
      live.push_back(net.add_flow(1e6, random_links(), 0));
    } else if (kind == 2) {
      std::size_t i = pick(live.size());
      net.remove_flow(live[i], 0);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      net.reroute_flow(live[pick(live.size())], random_links(), 0);
    }
  }
  ASSERT_GT(net.active_flow_count(), 20);
  auto all = net.all_link_utilization();
  for (net::LinkId l = 0; l < t.link_count(); ++l) {
    double used = 0;
    for (FlowId id : net.flows_on_link(l)) used += net.rate_bytes_per_s(id);
    double expected = used / (t.link(l).capacity_bps / 8.0);
    EXPECT_EQ(all[static_cast<std::size_t>(l)], expected) << "link " << l;
    EXPECT_EQ(net.link_utilization(l), expected) << "link " << l;
  }
}

TEST(FluidNetwork, RemoveUnknownFlowIsSafe) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  net.remove_flow(99, 0);
  EXPECT_EQ(net.active_flow_count(), 0);
  EXPECT_FALSE(net.next_completion().has_value());
}

TEST(FluidNetwork, RemovingUnknownOrFinishedFlowLeavesRatesUntouched) {
  net::Topology t = net::fat_tree(4);
  auto hosts = t.hosts();
  FluidNetwork net(t);
  std::vector<FlowId> ids;
  for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
    auto path = net::shortest_path(t, hosts[i], hosts[hosts.size() - 1 - i],
                                   net::hop_count());
    ASSERT_TRUE(path);
    ids.push_back(net.add_flow(1e9, net::path_links(t, *path), 0));
  }
  net.remove_flow(ids.back(), 0);
  ids.pop_back();
  std::vector<double> before;
  for (FlowId id : ids) before.push_back(net.rate_bytes_per_s(id));
  auto util_before = net.all_link_utilization();

  net.remove_flow(static_cast<FlowId>(ids.size()), 0);  // finished
  net.remove_flow(1000, 0);                             // never issued
  net.remove_flow(kInvalidFlow, 0);
  EXPECT_EQ(net.active_flow_count(), static_cast<int>(ids.size()));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(net.rate_bytes_per_s(ids[i]), before[i]) << "flow " << i;
  EXPECT_EQ(net.all_link_utilization(), util_before);
  EXPECT_EQ(net.rate_bytes_per_s(static_cast<FlowId>(ids.size())), 0);
  EXPECT_TRUE(net.links_of(static_cast<FlowId>(ids.size())).empty());
}

TEST(FluidNetwork, WorkConservationOnSharedLink) {
  net::Topology topo = dumbbell();
  FluidNetwork net(topo);
  for (int i = 0; i < 7; ++i) net.add_flow(1e9, {0}, 0);
  double total = 0;
  for (int i = 0; i < 7; ++i) total += net.rate_bytes_per_s(i);
  EXPECT_NEAR(total, 1e9, 1.0);  // fully utilized, no more, no less
}

}  // namespace
}  // namespace hermes::sim
