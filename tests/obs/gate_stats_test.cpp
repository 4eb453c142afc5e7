// Cross-layer invariants between the Gate Keeper's per-reason admission
// counts and the agent's AgentStats on replayed insertion traces. Each
// component keeps its per-instance counts in a plain stats struct; the
// gate.* names in the process-attached registry are the aggregate over
// every Gate Keeper built while it was attached.
#include <gtest/gtest.h>

#include "hermes/hermes_agent.h"
#include "tcam/switch_model.h"
#include "workloads/microbench.h"

namespace hermes::core {
namespace {

// Tight shadow + starved token bucket + no ticks (so no migration ever
// frees the shadow): a replay exercises the guaranteed path, the
// over-rate rejection and the shadow-full rejection.
HermesConfig starved_config() {
  HermesConfig config;
  config.guarantee = from_millis(5);
  config.shadow_capacity = 8;
  config.token_rate = 40;
  config.token_burst = 4;
  return config;
}

workloads::RuleTrace trace_for(int count, std::uint64_t seed) {
  workloads::MicroBenchConfig mb;
  mb.count = count;
  mb.rate = 1000;
  mb.overlap_rate = 0.0;  // single-piece partitions: exact equalities below
  mb.seed = seed;
  return workloads::microbench_trace(mb);
}

void replay(HermesAgent& agent, const workloads::RuleTrace& trace) {
  for (const auto& event : trace) agent.handle(event.time, event.mod);
}

TEST(ObsGateStats, RejectionReasonCountersMatchAgentStatsOnReplay) {
  HermesConfig config = starved_config();
  workloads::RuleTrace trace = trace_for(300, 11);

  obs::Registry reg;
  obs::attach(&reg);
  HermesAgent agent(tcam::pica8_p3290(), 4096, config);
  obs::attach(nullptr);
  replay(agent, trace);

  const AgentStats& stats = agent.stats();
  const GateKeeperStats& gate = agent.gate_keeper().stats();

  // The scenario must actually exercise the interesting routes.
  EXPECT_GT(gate.guaranteed, 0u);
  EXPECT_GT(gate.over_rate, 0u);
  EXPECT_GT(gate.shadow_full, 0u);

  // Every insert makes exactly one routing decision.
  EXPECT_EQ(gate.guaranteed + gate.unmatched + gate.over_rate +
                gate.lowest_priority + gate.shadow_full,
            stats.inserts);
  EXPECT_EQ(stats.inserts, trace.size());

  // With zero overlap every rule is a single piece, so a guaranteed route
  // never falls back on partition overflow and never dedups as redundant:
  // the route counters map 1:1 onto the agent's placement counters.
  EXPECT_EQ(stats.redundant_inserts, 0u);
  EXPECT_EQ(gate.guaranteed, stats.guaranteed_inserts);
  EXPECT_EQ(gate.unmatched + gate.over_rate + gate.lowest_priority +
                gate.shadow_full,
            stats.main_inserts);

  // With one agent attached, the attached gate.* aggregates equal its
  // per-instance counts name by name.
  EXPECT_EQ(reg.counter_value("gate.guaranteed"), gate.guaranteed);
  EXPECT_EQ(reg.counter_value("gate.unmatched"), gate.unmatched);
  EXPECT_EQ(reg.counter_value("gate.over_rate"), gate.over_rate);
  EXPECT_EQ(reg.counter_value("gate.lowest_priority"), gate.lowest_priority);
  EXPECT_EQ(reg.counter_value("gate.shadow_full"), gate.shadow_full);
  // The agent's own counters are per-instance only: no agent.* copies.
  EXPECT_EQ(reg.counter_value("agent.inserts"), 0u);
}

TEST(ObsGateStats, StandaloneGateKeeperCountsIntoAttachedRegistry) {
  obs::Registry reg;
  obs::attach(&reg);
  HermesConfig config;
  GateKeeper gate(config, /*token_rate=*/1.0, /*token_burst=*/2.0);
  obs::attach(nullptr);
  RouteContext ctx;
  ctx.shadow_free = 4;
  // A populated main table whose bottom sits below this rule's priority,
  // so the Section 4.2 lowest-priority append does not claim the insert.
  ctx.main_empty = false;
  ctx.main_min_priority = 1;
  net::Rule rule{1, 10, net::Prefix(net::Ipv4Address(0x0A000000u), 24),
                 net::forward_to(1)};
  EXPECT_EQ(gate.route_insert(0, rule, ctx), Route::kGuaranteed);
  EXPECT_EQ(reg.gauge_value("gate.tokens"), 1);  // one of two tokens left
  EXPECT_EQ(gate.route_insert(0, rule, ctx), Route::kGuaranteed);
  // Bucket of two tokens: the third insert at the same instant is over
  // the agreed rate.
  EXPECT_EQ(gate.route_insert(0, rule, ctx), Route::kMainOverRate);
  EXPECT_EQ(reg.gauge_value("gate.tokens"), 0);
  EXPECT_EQ(gate.stats().guaranteed, 2u);
  EXPECT_EQ(gate.stats().over_rate, 1u);
  EXPECT_EQ(reg.counter_value("gate.guaranteed"), 2u);
  EXPECT_EQ(reg.counter_value("gate.over_rate"), 1u);
}

TEST(ObsGateStats, TwoAgentsShareAttachedRegistry) {
  HermesConfig config = starved_config();
  workloads::RuleTrace trace_a = trace_for(300, 11);
  workloads::RuleTrace trace_b = trace_for(200, 12);

  obs::Registry reg;
  obs::attach(&reg);
  HermesAgent a(tcam::pica8_p3290(), 4096, config);
  HermesAgent b(tcam::pica8_p3290(), 4096, config);
  obs::attach(nullptr);
  replay(a, trace_a);
  replay(b, trace_b);

  // Each agent counts only its own ops.
  EXPECT_EQ(a.stats().inserts, trace_a.size());
  EXPECT_EQ(b.stats().inserts, trace_b.size());

  // The attached gate.* counters are the sum over both Gate Keepers.
  const GateKeeperStats& ga = a.gate_keeper().stats();
  const GateKeeperStats& gb = b.gate_keeper().stats();
  EXPECT_GT(ga.over_rate + gb.over_rate, 0u);
  EXPECT_GT(ga.shadow_full + gb.shadow_full, 0u);
  EXPECT_EQ(reg.counter_value("gate.guaranteed"),
            ga.guaranteed + gb.guaranteed);
  EXPECT_EQ(reg.counter_value("gate.over_rate"), ga.over_rate + gb.over_rate);
  EXPECT_EQ(reg.counter_value("gate.shadow_full"),
            ga.shadow_full + gb.shadow_full);

  // Nothing attached: the per-instance stats are identical.
  HermesAgent da(tcam::pica8_p3290(), 4096, config);
  HermesAgent db(tcam::pica8_p3290(), 4096, config);
  replay(da, trace_a);
  replay(db, trace_b);
  EXPECT_EQ(da.stats(), a.stats());
  EXPECT_EQ(db.stats(), b.stats());
  EXPECT_EQ(da.gate_keeper().stats(), ga);
  EXPECT_EQ(db.gate_keeper().stats(), gb);
}

}  // namespace
}  // namespace hermes::core
