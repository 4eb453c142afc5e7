#include "cache/cache_hierarchy.h"

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "tcam/switch_model.h"

namespace hermes::cache {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

CacheConfig cache_config(PolicyKind policy = PolicyKind::kFdrc) {
  CacheConfig c;
  c.mode = Mode::kCache;
  c.policy = policy;
  c.verify_lookups = true;
  return c;
}

net::Ipv4Address addr_of(std::string_view text) {
  return *net::Ipv4Address::parse(text);
}

/// Drives the FDRC admission filter past its threshold: two miss-path
/// classifications make a rule promotable under every policy.
void touch(CacheHierarchy& h, Time now, net::Ipv4Address addr,
           int times = 2) {
  for (int i = 0; i < times; ++i) h.classify(now, addr);
}

TEST(CacheHierarchy, SoftwareTierIsInclusiveAndUnbounded) {
  CacheHierarchy h(tcam::pica8_p3290(), 4, cache_config());
  for (net::RuleId id = 1; id <= 100; ++id)
    h.handle(0, {FlowModType::kInsert,
                 Rule{id, 5, Prefix(net::Ipv4Address(
                                        static_cast<std::uint32_t>(id) << 8),
                                    32),
                      net::forward_to(1)}});
  EXPECT_EQ(h.total_rules(), 100u);
  EXPECT_EQ(h.software_resident(), 100);  // nothing promoted yet
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, PopularFlowIsPromotedAndHitsTcam) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.1/32", 7)});

  auto first = h.classify(0, addr_of("10.0.0.1"));
  ASSERT_NE(first.rule, nullptr);
  EXPECT_FALSE(first.tcam_hit);
  EXPECT_EQ(first.latency, h.config().software_latency);

  touch(h, 0, addr_of("10.0.0.1"));
  h.tick(from_millis(1));

  auto hit = h.classify(from_millis(1), addr_of("10.0.0.1"));
  ASSERT_NE(hit.rule, nullptr);
  EXPECT_TRUE(hit.tcam_hit);
  EXPECT_EQ(hit.latency, 0);
  EXPECT_EQ(hit.rule->action.port, 7);
  EXPECT_GE(h.promotions(), 1u);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, PromotionDragsDependencyClosureAlong) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  // The /16 is popular; the /32 inside it has HIGHER priority but no
  // traffic. Promoting the /16 alone would let a TCAM hit mask the /32.
  h.handle(0, {FlowModType::kInsert, make_rule(1, 4, "10.1.0.0/16", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 9, "10.1.0.9/32", 2)});

  touch(h, 0, addr_of("10.1.5.5"));  // matches only the /16
  h.tick(from_millis(1));

  // Both must be TCAM-resident (or neither): the high-priority /32 wins
  // its own address, from the TCAM.
  auto res = h.classify(from_millis(1), addr_of("10.1.0.9"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 2u);
  EXPECT_EQ(h.tcam_occupancy(), 2);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, OversizedClosureAbortsPromotion) {
  CacheConfig config = cache_config();
  config.closure_limit = 4;
  CacheHierarchy h(tcam::pica8_p3290(), 64, config);
  // A wide low-priority rule overlapped by more higher-priority /32s
  // than the closure limit allows.
  h.handle(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8", 1)});
  for (net::RuleId id = 2; id <= 9; ++id) {
    std::string p = "10.0.0." + std::to_string(id) + "/32";
    h.handle(0, {FlowModType::kInsert,
                 make_rule(id, 9, p, static_cast<int>(id))});
  }
  touch(h, 0, addr_of("10.9.9.9"));  // matches only the /8
  h.tick(from_millis(1));
  EXPECT_GE(h.promotion_aborts(), 1u);
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, AbortedClosureVisitsAtMostLimitPlusOneRules) {
  // A low-priority /8 over 10k higher-priority /32s: deciding that its
  // closure is oversized must cost O(closure_limit), not O(10k).
  CacheConfig config = cache_config();
  ASSERT_EQ(config.closure_limit, 16);
  CacheHierarchy h(tcam::pica8_p3290(), 64, config);
  h.handle(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8", 1)});
  for (net::RuleId id = 2; id <= 10'001; ++id)
    h.handle(0, {FlowModType::kInsert,
                 Rule{id, 9,
                      Prefix(net::Ipv4Address(
                                 0x0A000000u |
                                 static_cast<std::uint32_t>(id) << 4),
                             32),
                      net::forward_to(2)}});
  touch(h, 0, addr_of("10.255.255.255"));  // matches only the /8
  ASSERT_EQ(h.closure_rules_visited(), 0u);
  h.tick(from_millis(1));
  EXPECT_EQ(h.promotion_aborts(), 1u);
  EXPECT_EQ(h.promotions(), 0u);
  EXPECT_LE(h.closure_rules_visited(),
            static_cast<std::uint64_t>(config.closure_limit) + 1);
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, InsertDemotesConflictingCachedRule) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.2.0.1/32", 1)});
  touch(h, 0, addr_of("10.2.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  // A new higher-priority overlapping software rule must evict the
  // cached /32 — otherwise TCAM hits on 10.2.0.1 would mask it.
  h.handle(from_millis(2),
           {FlowModType::kInsert, make_rule(2, 8, "10.2.0.0/16", 2)});
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_GE(h.demotions(), 1u);
  EXPECT_TRUE(h.check_invariant());

  auto res = h.classify(from_millis(3), addr_of("10.2.0.1"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 2u);
  EXPECT_EQ(h.dependency_violations(), 0u);
}

TEST(CacheHierarchy, EqualPriorityOverlapsAreCoResidentAndTieBreakByArrival) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.3.0.1/32", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 5, "10.3.0.1/32", 2)});
  // Software answer: earliest arrival wins the tie.
  auto sw = h.classify(0, addr_of("10.3.0.1"));
  ASSERT_NE(sw.rule, nullptr);
  EXPECT_EQ(sw.rule->id, 1u);

  touch(h, 0, addr_of("10.3.0.1"));
  h.tick(from_millis(1));
  // Both promoted (>= closure), and the TCAM reproduces the tie-break.
  EXPECT_EQ(h.tcam_occupancy(), 2);
  auto hw = h.classify(from_millis(1), addr_of("10.3.0.1"));
  ASSERT_NE(hw.rule, nullptr);
  EXPECT_TRUE(hw.tcam_hit);
  EXPECT_EQ(hw.rule->id, 1u);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, EvictionKeepsOccupancyBoundedForEveryPolicy) {
  for (PolicyKind policy :
       {PolicyKind::kLru, PolicyKind::kLfu, PolicyKind::kFdrc}) {
    CacheHierarchy h(tcam::pica8_p3290(), 4, cache_config(policy));
    for (net::RuleId id = 1; id <= 32; ++id)
      h.handle(0, {FlowModType::kInsert,
                   Rule{id, 5,
                        Prefix(net::Ipv4Address(
                                   static_cast<std::uint32_t>(id) << 8),
                               32),
                        net::forward_to(1)}});
    Time now = 0;
    for (int round = 0; round < 8; ++round) {
      for (net::RuleId id = 1; id <= 32; ++id) {
        auto addr =
            net::Ipv4Address(static_cast<std::uint32_t>(id) << 8);
        touch(h, now, addr);
      }
      now += from_millis(1);
      h.tick(now);
      ASSERT_LE(h.tcam_occupancy(), 4) << policy_name(policy);
      ASSERT_TRUE(h.check_invariant()) << policy_name(policy);
    }
    EXPECT_GE(h.promotions(), 4u) << policy_name(policy);
    EXPECT_GE(h.demotions(), 1u) << policy_name(policy);
    EXPECT_EQ(h.dependency_violations(), 0u) << policy_name(policy);
  }
}

TEST(CacheHierarchy, DeleteRemovesFromBothTiers) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.4.0.1/32", 1)});
  touch(h, 0, addr_of("10.4.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  h.handle(from_millis(2), {FlowModType::kDelete, Rule{1, 0, {}, {}}});
  EXPECT_EQ(h.tcam_occupancy(), 0);
  EXPECT_EQ(h.total_rules(), 0u);
  EXPECT_EQ(h.classify(from_millis(3), addr_of("10.4.0.1")).rule, nullptr);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, ModifyRekeysAndStaysConsistent) {
  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.5.0.1/32", 1)});
  touch(h, 0, addr_of("10.5.0.1"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 1);

  h.handle(from_millis(2),
           {FlowModType::kModify, make_rule(1, 6, "10.5.0.2/32", 3)});
  EXPECT_TRUE(h.check_invariant());
  EXPECT_EQ(h.classify(from_millis(3), addr_of("10.5.0.1")).rule, nullptr);
  auto res = h.classify(from_millis(3), addr_of("10.5.0.2"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->action.port, 3);
  EXPECT_EQ(h.dependency_violations(), 0u);
}

TEST(CacheHierarchy, AsicResetLosesNoRules) {
  fault::FaultPlanConfig fc;
  fc.resets = {from_millis(5)};
  fault::FaultPlan plan(fc);

  CacheHierarchy h(tcam::pica8_p3290(), 8, cache_config());
  h.set_fault_plan(&plan);
  h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.6.0.1/32", 1)});
  h.handle(0, {FlowModType::kInsert, make_rule(2, 5, "10.6.0.2/32", 2)});
  touch(h, 0, addr_of("10.6.0.1"));
  touch(h, 0, addr_of("10.6.0.2"));
  h.tick(from_millis(1));
  ASSERT_EQ(h.tcam_occupancy(), 2);

  // Past the reset: the wipe empties the TCAM tier but the inclusive
  // software tier still answers both flows; popularity refills the cache.
  auto res = h.classify(from_millis(6), addr_of("10.6.0.1"));
  ASSERT_NE(res.rule, nullptr);
  EXPECT_EQ(res.rule->id, 1u);
  EXPECT_EQ(h.total_rules(), 2u);
  EXPECT_TRUE(h.check_invariant());

  touch(h, from_millis(6), addr_of("10.6.0.2"));
  h.tick(from_millis(7));
  auto rehit = h.classify(from_millis(7), addr_of("10.6.0.2"));
  ASSERT_NE(rehit.rule, nullptr);
  EXPECT_TRUE(rehit.tcam_hit);
  EXPECT_EQ(h.dependency_violations(), 0u);
  EXPECT_TRUE(h.check_invariant());
}

TEST(CacheHierarchy, WriteBackModeMatchesShadowSwitchSemantics) {
  CacheConfig config;
  config.mode = Mode::kWriteBack;
  config.software_insert = from_micros(30);
  config.flush_period = from_millis(20);
  CacheHierarchy h(tcam::pica8_p3290(), 100, config);
  Time done =
      h.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 1)});
  EXPECT_EQ(done, from_micros(30));
  EXPECT_EQ(h.software_resident(), 1);
  h.tick(from_millis(20));
  EXPECT_EQ(h.software_resident(), 0);
  EXPECT_EQ(h.tcam_occupancy(), 1);
  EXPECT_EQ(h.flush_orphans(), 0u);
}

TEST(CacheHierarchy, WriteBackFlushKeepsArrivalTieBreak) {
  // Two equal-priority overlapping rules, the higher id first. Before the
  // flush the software tier answers by arrival; the flush must write them
  // in that order so the TCAM gives the same answer.
  CacheConfig config;
  config.mode = Mode::kWriteBack;
  CacheHierarchy h(tcam::pica8_p3290(), 100, config);
  h.handle(0, {FlowModType::kInsert, make_rule(5, 7, "10.0.0.0/24", 5)});
  h.handle(0, {FlowModType::kInsert, make_rule(3, 7, "10.0.0.0/16", 3)});
  const net::Ipv4Address addr = addr_of("10.0.0.7");
  const net::Rule* before = h.lookup_ptr(0, addr);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->id, 5u);
  h.flush(from_millis(1));
  ASSERT_EQ(h.software_resident(), 0);
  const net::Rule* after = h.lookup_ptr(from_millis(1), addr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->id, 5u);
}

}  // namespace
}  // namespace hermes::cache
