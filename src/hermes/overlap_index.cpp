#include "hermes/overlap_index.h"

#include <algorithm>
#include <bit>

namespace hermes::core {

// --- Pools --------------------------------------------------------------------

std::uint32_t OverlapIndex::new_node(std::uint32_t address, int length) {
  Node node;
  node.address = address & net::Prefix::mask_for(length);
  node.length = static_cast<std::uint8_t>(length);
  if (free_nodes_ == kNil) {
    nodes_.push_back(node);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }
  const std::uint32_t n = free_nodes_;
  free_nodes_ = nodes_[n].child[0];
  nodes_[n] = node;
  return n;
}

void OverlapIndex::free_node(std::uint32_t n) {
  nodes_[n].child[0] = free_nodes_;
  free_nodes_ = n;
}

std::uint32_t OverlapIndex::new_slot(const net::Rule& rule) {
  if (free_slots_ == kNil) {
    slots_.push_back(Slot{rule, kNil});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t s = free_slots_;
  free_slots_ = slots_[s].next;
  slots_[s] = Slot{rule, kNil};
  return s;
}

bool OverlapIndex::refresh_max(std::uint32_t n) {
  Node& node = nodes_[n];
  int max = kNoPriority;
  for (std::uint32_t s = node.head; s != kNil; s = slots_[s].next)
    max = std::max(max, slots_[s].rule.priority);
  for (std::uint32_t c : node.child)
    if (c != kNil) max = std::max(max, nodes_[c].max_priority);
  const bool changed = max != node.max_priority;
  node.max_priority = max;
  return changed;
}

std::size_t OverlapIndex::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) + slots_.capacity() * sizeof(Slot);
}

void OverlapIndex::clear() {
  std::vector<Node>().swap(nodes_);
  std::vector<Slot>().swap(slots_);
  free_nodes_ = kNil;
  free_slots_ = kNil;
  size_ = 0;
}

// --- Mutation -----------------------------------------------------------------

void OverlapIndex::insert(const net::Rule& rule) {
  if (nodes_.empty()) new_node(0, 0);  // the /0 root
  const std::uint32_t address = rule.match.address().value();
  const int length = rule.match.length();
  // Walk down, raising cached maxima on the way, to the rule's node.
  std::uint32_t n = 0;
  for (;;) {
    nodes_[n].max_priority = std::max(nodes_[n].max_priority, rule.priority);
    const int depth = nodes_[n].length;
    if (depth == length) break;
    const int b = bit_at(address, depth);
    const std::uint32_t c = nodes_[n].child[b];
    if (c == kNil) {  // fresh leaf
      const std::uint32_t leaf = new_node(address, length);
      nodes_[n].child[b] = leaf;
      n = leaf;
      nodes_[n].max_priority = rule.priority;
      break;
    }
    if (contains(c, address, length)) {
      n = c;
      continue;
    }
    // The child's prefix and the rule's part ways (or the rule's sits
    // above the child): splice a node in at their longest common prefix.
    const std::uint32_t child_address = nodes_[c].address;
    const int common =
        std::min({std::countl_zero(child_address ^ address),
                  static_cast<int>(nodes_[c].length), length});
    const std::uint32_t mid = new_node(address, common);
    nodes_[mid].child[bit_at(child_address, common)] = c;
    nodes_[mid].max_priority =
        std::max(nodes_[c].max_priority, rule.priority);
    nodes_[n].child[b] = mid;
    n = mid;
    if (common == length) break;  // mid is the rule's own prefix
    const std::uint32_t leaf = new_node(address, length);
    nodes_[mid].child[bit_at(address, common)] = leaf;
    nodes_[leaf].max_priority = rule.priority;
    n = leaf;
    break;
  }
  // Append, keeping insertion order on the prefix.
  const std::uint32_t s = new_slot(rule);
  std::uint32_t* link = &nodes_[n].head;
  while (*link != kNil) link = &slots_[*link].next;
  *link = s;
  ++size_;
}

bool OverlapIndex::erase(net::RuleId id, const net::Prefix& match) {
  if (nodes_.empty()) return false;
  const std::uint32_t address = match.address().value();
  const int length = match.length();
  // Root path to the prefix's node: at most one node per length.
  std::uint32_t path[33];
  int depth = 0;
  std::uint32_t n = 0;
  path[depth++] = n;
  while (nodes_[n].length != length) {
    n = nodes_[n].child[bit_at(address, nodes_[n].length)];
    if (n == kNil || !contains(n, address, length)) return false;
    path[depth++] = n;
  }
  std::uint32_t* link = &nodes_[n].head;
  while (*link != kNil && slots_[*link].rule.id != id)
    link = &slots_[*link].next;
  if (*link == kNil) return false;
  const std::uint32_t s = *link;
  *link = slots_[s].next;
  slots_[s].next = free_slots_;
  free_slots_ = s;
  --size_;

  // Path compression: a non-root node without rules forks. An emptied
  // leaf goes to the free list, and its parent, if rule-less, now has a
  // single child and is bypassed too; an emptied single-child node is
  // bypassed.
  auto children = [&](std::uint32_t m) {
    return (nodes_[m].child[0] != kNil ? 1 : 0) +
           (nodes_[m].child[1] != kNil ? 1 : 0);
  };
  auto unlink = [&](int i) {  // replace path[i] by its only child, if any
    const std::uint32_t m = path[i];
    const std::uint32_t only =
        nodes_[m].child[0] != kNil ? nodes_[m].child[0] : nodes_[m].child[1];
    Node& parent = nodes_[path[i - 1]];
    parent.child[bit_at(address, parent.length)] = only;
    free_node(m);
  };
  int deepest = depth - 1;
  if (deepest > 0 && nodes_[n].head == kNil && children(n) < 2) {
    const bool leaf = children(n) == 0;
    unlink(deepest--);
    if (leaf && deepest > 0 && nodes_[path[deepest]].head == kNil)
      unlink(deepest--);
  }
  // Refresh cached maxima bottom-up until one stays put.
  for (int i = deepest; i >= 0 && refresh_max(path[i]); --i) {
  }
  return true;
}

// --- Queries ------------------------------------------------------------------

std::vector<net::Rule> OverlapIndex::overlapping(
    const net::Prefix& p, int min_priority_exclusive) const {
  std::vector<net::Rule> out;
  for_each_overlapping(p, min_priority_exclusive, [&](const net::Rule& r) {
    out.push_back(r);
    return true;
  });
  return out;
}

bool OverlapIndex::has_overlap_above(const net::Prefix& p,
                                     int min_priority_exclusive) const {
  return !for_each_overlapping(p, min_priority_exclusive,
                               [](const net::Rule&) { return false; });
}

}  // namespace hermes::core
