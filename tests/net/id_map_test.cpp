#include "net/id_map.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

namespace hermes::net {
namespace {

TEST(IdMap, EmptyMapAllocatesNothing) {
  IdMap<int> m;
  EXPECT_EQ(m.memory_bytes(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  EXPECT_TRUE(m.empty());
}

TEST(IdMap, InsertFindErase) {
  IdMap<int> m;
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_FALSE(m.insert(1, 11));  // present: unchanged
  ASSERT_NE(m.find(1), nullptr);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 0u);
  EXPECT_GT(m.memory_bytes(), 0u);
  m.insert(2, 20);
  m.clear();
  EXPECT_FALSE(m.contains(2));
  EXPECT_TRUE(m.empty());
}

// Random inserts and erases against std::unordered_map. Ids come from a
// small range plus piece-style ids above 2^32, so probe runs collide,
// wrap around the array end and are repaired by backward-shift deletes.
TEST(IdMap, MatchesUnorderedMapUnderRandomOps) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    std::mt19937_64 rng(seed);
    IdMap<std::uint64_t> m;
    std::unordered_map<RuleId, std::uint64_t> ref;
    for (int step = 0; step < 20000; ++step) {
      RuleId id = rng() % 300 + 1;
      if (rng() % 2) id += RuleId{1} << 32;
      switch (rng() % 3) {
        case 0:
        case 1: {
          const std::uint64_t value = rng();
          EXPECT_EQ(m.insert(id, value), ref.emplace(id, value).second);
          break;
        }
        default:
          EXPECT_EQ(m.erase(id), ref.erase(id) == 1);
      }
      ASSERT_EQ(m.size(), ref.size());
      if (step % 97 == 0) {
        for (RuleId probe = 1; probe <= 300; ++probe) {
          for (RuleId key : {probe, probe + (RuleId{1} << 32)}) {
            auto it = ref.find(key);
            const std::uint64_t* got = m.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << key;
            if (got != nullptr) ASSERT_EQ(*got, it->second) << key;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hermes::net
