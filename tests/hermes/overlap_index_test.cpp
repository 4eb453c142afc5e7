#include "hermes/overlap_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <tuple>

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

constexpr int kAll = std::numeric_limits<int>::min();

Rule make_rule(net::RuleId id, int priority, std::string_view prefix) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(1)};
}

std::vector<net::RuleId> ids_of(const std::vector<Rule>& rules) {
  std::vector<net::RuleId> ids;
  for (const Rule& r : rules) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(OverlapIndex, EmptyHasNoOverlaps) {
  OverlapIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll).empty());
  EXPECT_FALSE(idx.has_overlap_above(Prefix::any(), kAll));
}

TEST(OverlapIndex, FindsAncestorOverlap) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "10.0.0.0/8"));
  auto hits = idx.overlapping(*Prefix::parse("10.1.0.0/16"), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{1});
}

TEST(OverlapIndex, FindsDescendantOverlap) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "10.1.0.0/16"));
  auto hits = idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{1});
}

TEST(OverlapIndex, IgnoresDisjoint) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "11.0.0.0/8"));
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll).empty());
}

TEST(OverlapIndex, PriorityBoundFilters) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 3, "10.0.0.0/8"));
  idx.insert(make_rule(2, 7, "10.0.0.0/8"));
  auto hits = idx.overlapping(*Prefix::parse("10.1.0.0/16"), 5);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{2});
  EXPECT_TRUE(idx.has_overlap_above(*Prefix::parse("10.1.0.0/16"), 5));
  EXPECT_FALSE(idx.has_overlap_above(*Prefix::parse("10.1.0.0/16"), 7));
}

TEST(OverlapIndex, SameNodeMultipleRules) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.insert(make_rule(2, 2, "10.0.0.0/8"));
  EXPECT_EQ(idx.size(), 2u);
  auto hits = idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll);
  EXPECT_EQ(ids_of(hits), (std::vector<net::RuleId>{1, 2}));
}

TEST(OverlapIndex, EraseRemovesOnlyTarget) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.insert(make_rule(2, 2, "10.0.0.0/8"));
  EXPECT_TRUE(idx.erase(1, *Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(idx.size(), 1u);
  auto hits = idx.overlapping(Prefix::any(), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{2});
}

TEST(OverlapIndex, EraseMissingReturnsFalse) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  EXPECT_FALSE(idx.erase(2, *Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(idx.erase(1, *Prefix::parse("11.0.0.0/8")));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(OverlapIndex, EraseMaintainsMaxPriorityPruning) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 10, "10.1.0.0/16"));
  idx.insert(make_rule(2, 3, "10.2.0.0/16"));
  EXPECT_TRUE(idx.has_overlap_above(*Prefix::parse("10.0.0.0/8"), 5));
  idx.erase(1, *Prefix::parse("10.1.0.0/16"));
  EXPECT_FALSE(idx.has_overlap_above(*Prefix::parse("10.0.0.0/8"), 5));
}

TEST(OverlapIndex, ClearResets) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.clear();
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.overlapping(Prefix::any(), kAll).empty());
}

TEST(OverlapIndex, DefaultRouteOverlapsEverything) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "0.0.0.0/0"));
  EXPECT_EQ(idx.overlapping(*Prefix::parse("203.0.113.0/24"), kAll).size(),
            1u);
  EXPECT_EQ(idx.overlapping(*Prefix::parse("255.255.255.255/32"), kAll)
                .size(),
            1u);
}

// Property: results agree with a brute-force scan over random rule sets
// under interleaved insert/erase.
class OverlapIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OverlapIndexProperty, MatchesBruteForce) {
  std::mt19937_64 rng(GetParam());
  OverlapIndex idx;
  std::vector<Rule> reference;
  net::RuleId next_id = 1;

  for (int step = 0; step < 400; ++step) {
    if (reference.empty() || rng() % 3 != 0) {
      Rule r{next_id++, static_cast<int>(rng() % 10),
             Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                    static_cast<int>(rng() % 17)),  // short => dense overlap
             net::forward_to(1)};
      idx.insert(r);
      reference.push_back(r);
    } else {
      std::size_t victim = rng() % reference.size();
      EXPECT_TRUE(
          idx.erase(reference[victim].id, reference[victim].match));
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(idx.size(), reference.size());

    Prefix probe(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                 static_cast<int>(rng() % 25));
    int bound = static_cast<int>(rng() % 10) - 1;
    std::vector<net::RuleId> expected;
    for (const Rule& r : reference)
      if (r.match.overlaps(probe) && r.priority > bound)
        expected.push_back(r.id);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids_of(idx.overlapping(probe, bound)), expected);
    EXPECT_EQ(idx.has_overlap_above(probe, bound), !expected.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapIndexProperty,
                         ::testing::Values(3, 14, 159, 2653));

// The documented visit order, from a brute-force scan over the rules in
// insertion order: ancestors of `probe` by length ascending, then the
// rules strictly below it by (address, length); a stable sort keeps
// insertion order within one prefix.
std::vector<net::RuleId> expected_visits(const std::vector<Rule>& reference,
                                         const Prefix& probe, int bound) {
  std::vector<Rule> hits;
  for (const Rule& r : reference)
    if (r.match.overlaps(probe) && r.priority > bound) hits.push_back(r);
  auto key = [&](const Rule& r) {
    const bool below = r.match.length() > probe.length();
    return std::tuple(below, below ? r.match.address().value() : 0u,
                      r.match.length());
  };
  std::stable_sort(hits.begin(), hits.end(),
                   [&](const Rule& a, const Rule& b) {
                     return key(a) < key(b);
                   });
  std::vector<net::RuleId> ids;
  for (const Rule& r : hits) ids.push_back(r.id);
  return ids;
}

// Differential property: the index against a brute-force scan over seeded
// insert/erase/query streams with every prefix length (/0 and /32
// included), few priority levels (equal priorities are common) and
// repeated matches, checking the exact visit order, early stop and
// has_overlap_above.
class OverlapIndexDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapIndexDifferential, VisitOrderAndEarlyStopMatchBruteForce) {
  std::mt19937_64 rng(GetParam());
  OverlapIndex idx;
  std::vector<Rule> reference;  // insertion order
  net::RuleId next_id = 1;
  // A few address bases keep prefixes nested, so most queries overlap.
  std::vector<std::uint32_t> bases;
  for (int i = 0; i < 4; ++i)
    bases.push_back(static_cast<std::uint32_t>(rng()));
  auto random_prefix = [&] {
    const std::uint32_t base = bases[rng() % bases.size()];
    const auto noise = static_cast<std::uint32_t>(
        (rng() & 0xFFFFFFFFu) >> (rng() % 33));
    return Prefix(net::Ipv4Address(base ^ noise),
                  static_cast<int>(rng() % 33));
  };

  for (int step = 0; step < 1500; ++step) {
    const int op = static_cast<int>(rng() % 10);
    if (reference.empty() || op < 5) {
      // Reuse an installed match now and then: duplicate prefixes.
      Prefix match = !reference.empty() && rng() % 4 == 0
                         ? reference[rng() % reference.size()].match
                         : random_prefix();
      Rule r{next_id++, static_cast<int>(rng() % 4), match,
             net::forward_to(1)};
      idx.insert(r);
      reference.push_back(r);
    } else if (op < 8) {
      const std::size_t victim = rng() % reference.size();
      ASSERT_TRUE(idx.erase(reference[victim].id, reference[victim].match));
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      // Misses: an unknown id, or a known id under the wrong prefix.
      const Rule& r = reference[rng() % reference.size()];
      EXPECT_FALSE(idx.erase(next_id + 1000, r.match));
      const Prefix other = random_prefix();
      if (other != r.match) {
        EXPECT_FALSE(idx.erase(r.id, other));
      }
    }
    ASSERT_EQ(idx.size(), reference.size());

    // Probe an installed match now and then (exact-prefix hits).
    const Prefix probe = !reference.empty() && rng() % 8 == 0
                             ? reference[rng() % reference.size()].match
                             : random_prefix();
    const int bound =
        rng() % 5 == 0 ? kAll : static_cast<int>(rng() % 5) - 1;
    const std::vector<net::RuleId> want =
        expected_visits(reference, probe, bound);

    std::vector<net::RuleId> got;
    EXPECT_TRUE(idx.for_each_overlapping(probe, bound, [&](const Rule& r) {
      got.push_back(r.id);
      return true;
    }));
    ASSERT_EQ(got, want) << "step " << step << " probe "
                         << probe.to_string() << " bound " << bound;
    std::vector<net::RuleId> copied;
    for (const Rule& r : idx.overlapping(probe, bound)) copied.push_back(r.id);
    EXPECT_EQ(copied, want);
    EXPECT_EQ(idx.has_overlap_above(probe, bound), !want.empty());

    // Early stop after k visits: exactly the first k, and a false return.
    if (!want.empty()) {
      const std::size_t k = 1 + rng() % want.size();
      std::vector<net::RuleId> prefix;
      const bool finished =
          idx.for_each_overlapping(probe, bound, [&](const Rule& r) {
            prefix.push_back(r.id);
            return prefix.size() < k;
          });
      EXPECT_FALSE(finished);
      EXPECT_EQ(prefix, std::vector<net::RuleId>(
                            want.begin(),
                            want.begin() + static_cast<std::ptrdiff_t>(k)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapIndexDifferential,
                         ::testing::Values(1, 7, 42, 1234, 99991));

TEST(OverlapIndex, EraseReclaimsNodesAcrossDistinctPrefixes) {
  // 100k insert/erase cycles, each over a prefix never used before, next
  // to a few long-lived rules: the pools must reuse what erase frees
  // instead of growing with every prefix ever installed. One cycle needs
  // at most two nodes and one slot beyond the long-lived rules, so the
  // pools never grow past what the first cycle allocated.
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "0.0.0.0/0"));
  idx.insert(make_rule(2, 5, "10.0.0.0/8"));
  idx.insert(make_rule(3, 7, "10.1.0.0/16"));
  std::size_t warm = 0;
  for (std::uint32_t i = 0; i < 100'000; ++i) {
    const Rule r{100 + i, static_cast<int>(i % 9),
                 Prefix(net::Ipv4Address(0x0A000000u | (i * 2654435761u >> 8)),
                        20 + static_cast<int>(i % 13)),
                 net::forward_to(1)};
    idx.insert(r);
    ASSERT_TRUE(idx.erase(r.id, r.match));
    if (i == 0) warm = idx.memory_bytes();
  }
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(idx.memory_bytes(), warm);
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(ids_of(idx.overlapping(*Prefix::parse("10.1.2.0/24"), kAll)),
            (std::vector<net::RuleId>{1, 2, 3}));
  EXPECT_FALSE(idx.has_overlap_above(*Prefix::parse("10.1.2.0/24"), 7));
  idx.clear();
  EXPECT_EQ(idx.memory_bytes(), 0u);
}

}  // namespace
}  // namespace hermes::core
