#include "tcam/asic.h"

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"

namespace hermes::tcam {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::forward_to;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), forward_to(port)};
}

TEST(Asic, CarvesSlices) {
  Asic asic(pica8_p3290(), {64, 1936});
  EXPECT_EQ(asic.slice_count(), 2);
  EXPECT_EQ(asic.slice(0).capacity(), 64);
  EXPECT_EQ(asic.slice(1).capacity(), 1936);
  EXPECT_EQ(asic.total_capacity(), 2000);
  EXPECT_EQ(asic.total_occupancy(), 0);
}

TEST(Asic, TransferCapacityAllocatesNothing) {
  Asic small(pica8_p3290(), {64, 1936});
  Asic huge(pica8_p3290(), {64, 1 << 20});
  const std::size_t empty = small.memory_bytes();
  EXPECT_EQ(huge.memory_bytes(), empty);
  ASSERT_TRUE(huge.transfer_capacity(1, 0, 1 << 19));
  EXPECT_EQ(huge.slice(0).capacity(), 64 + (1 << 19));
  EXPECT_EQ(huge.memory_bytes(), empty);
  ASSERT_TRUE(huge.transfer_capacity(0, 1, 1 << 19));
  EXPECT_EQ(huge.memory_bytes(), empty);
}

TEST(Asic, InsertChargesModelLatency) {
  Asic asic(pica8_p3290(), {2000});
  auto r = asic.apply(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8")});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 0);
  EXPECT_EQ(r.latency, pica8_p3290().base_latency());
}

TEST(Asic, DeepInsertCostsMore) {
  Asic asic(pica8_p3290(), {2000});
  // Fill 500 equal-priority rules, then insert one above them all.
  for (net::RuleId id = 1; id <= 500; ++id)
    ASSERT_TRUE(
        asic.apply(0, {FlowModType::kInsert,
                       make_rule(id, 1, "10.0.0.0/8")}).ok);
  auto r =
      asic.apply(0, {FlowModType::kInsert, make_rule(999, 9, "11.0.0.0/8")});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 500);
  EXPECT_GT(r.latency, from_millis(10));  // Pica8 @500 shifts is ~20+ ms
}

TEST(Asic, DeleteIsCheap) {
  Asic asic(dell_8132f(), {100});
  asic.apply(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8")});
  auto r = asic.apply(0, {FlowModType::kDelete, make_rule(1, 0, "0.0.0.0/0")});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.latency, dell_8132f().delete_latency());
}

TEST(Asic, ModifySamePriorityIsConstant) {
  Asic asic(dell_8132f(), {100});
  asic.apply(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 1)});
  auto r = asic.apply(
      0, {FlowModType::kModify, make_rule(1, 5, "10.0.0.0/8", 7)});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.latency, dell_8132f().modify_latency());
  EXPECT_EQ(asic.slice(0).find(1)->action.port, 7);
}

TEST(Asic, ModifyPriorityChangeBecomesDeleteInsert) {
  Asic asic(dell_8132f(), {100});
  for (net::RuleId id = 1; id <= 10; ++id)
    asic.apply(0, {FlowModType::kInsert,
                   make_rule(id, static_cast<int>(id), "10.0.0.0/8")});
  auto r = asic.apply(
      0, {FlowModType::kModify, make_rule(5, 20, "10.0.0.0/8", 3)});
  EXPECT_TRUE(r.ok);
  EXPECT_GE(r.latency,
            dell_8132f().delete_latency() + dell_8132f().base_latency());
  EXPECT_EQ(asic.slice(0).find(5)->priority, 20);
}

TEST(Asic, ModifyPriorityChangeKeepsIndexConsistent) {
  // The delete+insert rewrite inside apply() is the one mutation path
  // that moves an id to a new slot in a single control-plane op; the id
  // index must track it (and keep every other id resolvable).
  Asic asic(dell_8132f(), {100});
  for (net::RuleId id = 1; id <= 10; ++id)
    ASSERT_TRUE(asic.apply(0, {FlowModType::kInsert,
                               make_rule(id, static_cast<int>(id),
                                         "10.0.0.0/8")})
                    .ok);
  // Move id 5 to the top, then to the bottom, then back mid-table.
  for (int priority : {20, 0, 7}) {
    ASSERT_TRUE(
        asic.apply(0, {FlowModType::kModify,
                       make_rule(5, priority, "10.0.0.0/8", 3)})
            .ok);
    EXPECT_TRUE(asic.slice(0).check_invariant());
    ASSERT_TRUE(asic.slice(0).find(5).has_value());
    EXPECT_EQ(asic.slice(0).find(5)->priority, priority);
    for (net::RuleId id = 1; id <= 10; ++id)
      EXPECT_TRUE(asic.slice(0).contains(id)) << "id " << id;
  }
  EXPECT_EQ(asic.slice(0).occupancy(), 10);
}

TEST(Asic, ModifyMissingRuleFails) {
  Asic asic(dell_8132f(), {16});
  auto r = asic.apply(
      0, {FlowModType::kModify, make_rule(42, 1, "10.0.0.0/8")});
  EXPECT_FALSE(r.ok);
}

TEST(Asic, LookupPrecedenceAcrossSlices) {
  Asic asic(pica8_p3290(), {8, 8});
  // Slice 1 (main) holds a higher-priority rule, slice 0 (shadow) a lower
  // one: hardware precedence still prefers slice 0 — exactly the behavior
  // whose correctness implications Section 4 addresses.
  asic.apply(1, {FlowModType::kInsert, make_rule(1, 10, "192.168.1.0/26", 1)});
  asic.apply(0, {FlowModType::kInsert, make_rule(2, 5, "192.168.1.0/24", 2)});
  auto hit = asic.lookup(*net::Ipv4Address::parse("192.168.1.5"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action.port, 2);  // slice precedence, NOT priority
}

TEST(Asic, LookupFallsThroughToMain) {
  Asic asic(pica8_p3290(), {8, 8});
  asic.apply(1, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8", 4)});
  auto hit = asic.lookup(*net::Ipv4Address::parse("10.1.1.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action.port, 4);
  EXPECT_FALSE(asic.lookup(*net::Ipv4Address::parse("8.8.8.8")).has_value());
}

TEST(Asic, SubmitSerializesControlChannel) {
  Asic asic(pica8_p3290(), {100});
  Duration base = pica8_p3290().base_latency();
  Time t1 = asic.submit(0, 0, {FlowModType::kInsert,
                               make_rule(1, 1, "10.0.0.0/8")});
  EXPECT_EQ(t1, base);
  // Submitted "at time 0" again, but the channel is busy until t1.
  Time t2 = asic.submit(0, 0, {FlowModType::kInsert,
                               make_rule(2, 1, "11.0.0.0/8")});
  EXPECT_EQ(t2, 2 * base);
  // Submitting after the channel drained starts immediately.
  Time t3 = asic.submit(t2 + from_millis(1), 0,
                        {FlowModType::kInsert, make_rule(3, 1, "12.0.0.0/8")});
  EXPECT_EQ(t3, t2 + from_millis(1) + base);
  EXPECT_EQ(asic.busy_until(0), t3);
}

TEST(Asic, ResetChannelClearsBusyTime) {
  Asic asic(pica8_p3290(), {10});
  asic.submit(0, 0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8")});
  EXPECT_GT(asic.busy_until(0), 0);
  asic.reset_channel();
  EXPECT_EQ(asic.busy_until(0), 0);
}

TEST(Asic, ResetChannelStartsFreshMeasurementEpoch) {
  // reset_channel() starts a fresh measurement epoch: busy times AND the
  // per-slice channel-occupation stats go to zero, while slice contents
  // and the attached fault plan's draw/reset cursors are untouched (the
  // header documents these epoch semantics).
  fault::FaultPlanConfig fc;
  fc.seed = 11;
  fc.default_slice.write_failure_prob = 0.4;
  fc.default_slice.stall_min = from_micros(1);
  fc.default_slice.stall_max = from_micros(5);
  fault::FaultPlan plan(fc);
  Asic asic(pica8_p3290(), {32});
  asic.set_fault_plan(&plan);

  for (int i = 1; i <= 10; ++i) {
    asic.submit(0, 0, {FlowModType::kInsert,
                       make_rule(i, 1, std::to_string(i + 9) + ".0.0.0/8")});
  }
  const Asic::ChannelStats& before = asic.channel_stats(0);
  ASSERT_GT(before.ops, 0u);
  ASSERT_GT(before.busy_ns, 0);
  ASSERT_GT(before.stall_ns, 0);
  ASSERT_GT(before.injected_failures, 0u);
  int occupancy = asic.slice(0).occupancy();
  std::uint64_t draws = plan.draws(0);
  ASSERT_GT(occupancy, 0);

  asic.reset_channel();

  const Asic::ChannelStats& after = asic.channel_stats(0);
  EXPECT_EQ(after.ops, 0u);
  EXPECT_EQ(after.busy_ns, 0);
  EXPECT_EQ(after.stall_ns, 0);
  EXPECT_EQ(after.injected_failures, 0u);
  EXPECT_EQ(asic.busy_until(0), 0);
  // Deliberately NOT reset: slice contents and the plan's schedule.
  EXPECT_EQ(asic.slice(0).occupancy(), occupancy);
  EXPECT_EQ(plan.draws(0), draws);

  // The next epoch accumulates from zero.
  asic.submit(0, 0, {FlowModType::kInsert, make_rule(99, 1, "99.0.0.0/8")});
  EXPECT_EQ(asic.channel_stats(0).ops, 1u);
}

TEST(Asic, FailedInsertStillChargesChannelTime) {
  Asic asic(pica8_p3290(), {1});
  asic.apply(0, {FlowModType::kInsert, make_rule(1, 1, "10.0.0.0/8")});
  ApplyResult r;
  asic.submit(0, 0, {FlowModType::kInsert, make_rule(2, 1, "11.0.0.0/8")}, &r);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.latency, 0);
}

}  // namespace
}  // namespace hermes::tcam
