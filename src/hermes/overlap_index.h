// Efficient overlap detection between prefix rules (Section 3,
// "Correctness": Hermes "uses an efficient data structure to detect
// overlapping rules").
//
// Prefix overlap is containment, so a binary trie keyed by prefix bits
// answers "which installed rules overlap prefix P?" by combining the
// rules on the root->P path (ancestors of P) with the rules in the
// subtree under P (descendants). Each node caches the maximum priority in
// its subtree so queries that only care about higher-priority overlaps can
// prune aggressively.
//
// Layout: the trie is path-compressed (a node exists only where a rule
// ends or two branches fork) and lives in two flat, index-linked pools —
// a vector of small POD nodes and a vector of rule slots, each node
// owning a singly linked list of slots in insertion order. No node is
// heap-allocated on its own: destruction and clear() free each pool at
// once, and erase() returns emptied nodes and slots to free lists that
// later inserts reuse, so the pools stay bounded by the live rule count
// rather than by every prefix ever installed.
//
// Queries go through one bounded visitor, for_each_overlapping(): it
// copies nothing and stops as soon as the callback says so, so a caller
// that only needs the first k overlaps pays O(k + depth), not O(overlaps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/rule.h"

namespace hermes::core {

class OverlapIndex {
 public:
  void insert(const net::Rule& rule);

  /// Removes the rule with this id stored under `match`; returns whether
  /// anything was removed.
  bool erase(net::RuleId id, const net::Prefix& match);

  /// Calls `visit(const net::Rule&)` for every rule whose match overlaps
  /// `p` and whose priority is strictly greater than
  /// `min_priority_exclusive` (pass INT_MIN for "all"), in a
  /// deterministic order: ancestors of `p` root-down (shortest prefix
  /// first, `p` itself last), then the rules strictly below `p` by
  /// (address, length); rules on one prefix in insertion order. `visit`
  /// returns false to stop the walk; the call then returns false (true
  /// when every overlap was visited). The index must not be mutated
  /// during the walk.
  template <typename Visit>
  bool for_each_overlapping(const net::Prefix& p, int min_priority_exclusive,
                            Visit&& visit) const;

  /// All overlapping rules above the bound, in for_each_overlapping()
  /// order, as a copy (for callers that must sort or keep them).
  std::vector<net::Rule> overlapping(const net::Prefix& p,
                                     int min_priority_exclusive) const;

  /// True iff some rule overlapping `p` has priority > the bound.
  bool has_overlap_above(const net::Prefix& p,
                         int min_priority_exclusive) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Drops every rule and releases both pools.
  void clear();

  /// Heap bytes held by the two pools (allocated capacity, free-listed
  /// entries included).
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr int kNoPriority = std::numeric_limits<int>::min();

  struct Node {
    std::uint32_t child[2] = {kNil, kNil};  ///< child[0]: free-list link too
    std::uint32_t address = 0;              ///< prefix bits, host bits 0
    int max_priority = kNoPriority;  ///< max over own rules + subtree
    std::uint32_t head = kNil;       ///< first rule slot on this prefix
    std::uint8_t length = 0;         ///< prefix length, 0..32
  };
  struct Slot {
    net::Rule rule;
    std::uint32_t next = kNil;  ///< next slot on the prefix (or free link)
  };

  /// Bit `i` (0 = MSB) of an address.
  static int bit_at(std::uint32_t address, int i) {
    return static_cast<int>((address >> (31 - i)) & 1u);
  }
  /// True iff node `n`'s prefix contains (or equals) the prefix
  /// `address`/`length`.
  bool contains(std::uint32_t n, std::uint32_t address, int length) const {
    const Node& node = nodes_[n];
    return node.length <= length &&
           ((node.address ^ address) &
            net::Prefix::mask_for(node.length)) == 0;
  }

  std::uint32_t new_node(std::uint32_t address, int length);
  void free_node(std::uint32_t n);
  std::uint32_t new_slot(const net::Rule& rule);
  /// Recomputes node `n`'s cached max; returns whether it changed.
  bool refresh_max(std::uint32_t n);

  template <typename Visit>
  bool visit_rules(std::uint32_t n, int bound, Visit& visit) const;
  template <typename Visit>
  bool visit_subtree(std::uint32_t n, int bound, Visit& visit) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the /0 root once non-empty
  std::vector<Slot> slots_;
  std::uint32_t free_nodes_ = kNil;
  std::uint32_t free_slots_ = kNil;
  std::size_t size_ = 0;
};

// --- Visitor ------------------------------------------------------------------

template <typename Visit>
bool OverlapIndex::visit_rules(std::uint32_t n, int bound,
                               Visit& visit) const {
  for (std::uint32_t s = nodes_[n].head; s != kNil; s = slots_[s].next) {
    const net::Rule& rule = slots_[s].rule;
    if (rule.priority > bound && !visit(rule)) return false;
  }
  return true;
}

template <typename Visit>
bool OverlapIndex::visit_subtree(std::uint32_t n, int bound,
                                 Visit& visit) const {
  // Pre-order, 0-branch first: the (address, length) order. Depth is at
  // most 33 (one node per prefix length), so recursion is bounded.
  if (n == kNil || nodes_[n].max_priority <= bound) return true;
  return visit_rules(n, bound, visit) &&
         visit_subtree(nodes_[n].child[0], bound, visit) &&
         visit_subtree(nodes_[n].child[1], bound, visit);
}

template <typename Visit>
bool OverlapIndex::for_each_overlapping(const net::Prefix& p,
                                        int min_priority_exclusive,
                                        Visit&& visit) const {
  if (nodes_.empty()) return true;
  const std::uint32_t address = p.address().value();
  const int length = p.length();
  const int bound = min_priority_exclusive;
  // Ancestors: the nodes on the root path whose prefix contains p. A
  // node's cached max covers everything still to visit, so a node at or
  // under the bound ends the walk.
  std::uint32_t n = 0;
  for (;;) {
    const Node& node = nodes_[n];
    if (node.max_priority <= bound) return true;
    if (!visit_rules(n, bound, visit)) return false;
    if (node.length == length) break;
    const std::uint32_t c = node.child[bit_at(address, node.length)];
    if (c == kNil) return true;
    if (contains(c, address, length)) {
      n = c;
      continue;
    }
    // The child either lies wholly under p (every rule below it overlaps
    // p) or diverges from p (nothing below overlaps).
    const bool under = ((nodes_[c].address ^ address) & p.mask()) == 0;
    return !under || visit_subtree(c, bound, visit);
  }
  // p's own node: everything below it.
  return visit_subtree(nodes_[n].child[0], bound, visit) &&
         visit_subtree(nodes_[n].child[1], bound, visit);
}

}  // namespace hermes::core
