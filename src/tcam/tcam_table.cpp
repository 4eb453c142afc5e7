#include "tcam/tcam_table.h"

#include <algorithm>

#include "obs/memory.h"

namespace hermes::tcam {

namespace {
// Comparator matching the physical order: non-increasing priority.
constexpr auto kByPriorityDesc = [](const net::Rule& r, int priority) {
  return r.priority > priority;
};
constexpr auto kPriorityDescUpper = [](int priority, const net::Rule& r) {
  return priority > r.priority;
};
}  // namespace

TcamTable::TcamTable(int capacity) : capacity_(capacity > 0 ? capacity : 0) {}

std::size_t TcamTable::locate(net::RuleId id) const {
  const int* found = priority_of_.find(id);
  if (found == nullptr) return kNoSlot;
  const int priority = *found;
  auto lo = std::lower_bound(entries_.begin(), entries_.end(), priority,
                             kByPriorityDesc);
  auto hi = std::upper_bound(lo, entries_.end(), priority, kPriorityDescUpper);
  for (auto e = lo; e != hi; ++e) {
    if (e->id == id) return static_cast<std::size_t>(e - entries_.begin());
  }
  return kNoSlot;  // unreachable while the index invariant holds
}

OpResult TcamTable::insert(const net::Rule& rule) {
  if (full() || priority_of_.contains(rule.id)) {
    ++stats_.failed_inserts;
    obs_failed_inserts_.inc();
    return {false, 0};
  }
  // Insertion point: after every entry with priority >= rule.priority.
  // (Equal-priority entries keep arrival order; a new lowest-priority
  // rule appends at the bottom with zero shifts.)
  auto pos = std::upper_bound(entries_.begin(), entries_.end(), rule.priority,
                              kPriorityDescUpper);
  int shifts = static_cast<int>(entries_.end() - pos);
  entries_.insert(pos, rule);
  priority_of_.insert(rule.id, rule.priority);
  engine_.insert(rule, seq_++);
  ++stats_.inserts;
  stats_.total_shifts += static_cast<std::uint64_t>(shifts);
  obs_inserts_.inc();
  obs_shifts_.inc(static_cast<std::uint64_t>(shifts));
  return {true, shifts};
}

TcamTable::BatchInsertResult TcamTable::insert_batch(
    std::span<const net::Rule> rules, std::vector<OpResult>* per_op,
    bool stop_at_first_failure) {
  BatchInsertResult out;
  if (per_op) {
    per_op->clear();
    per_op->resize(rules.size());  // unattempted slots read {false, 0}
  }
  if (rules.empty()) return out;
  obs_batch_size_.record(rules.size());

  // Acceptance pass: replay the sequential accept/fail decisions without
  // touching the array. A rule fails exactly when the per-op insert would
  // have: its id is resident or appeared earlier in the batch, or no slot
  // is free at its turn.
  std::vector<std::size_t> accepted;
  accepted.reserve(rules.size());
  net::IdMap<bool> batch_ids;
  int free_slots = capacity_ - occupancy();
  // Sorted (ascending) priorities of already-accepted batch rules, for the
  // sequential shift count: entries a later batch rule would have shifted
  // include earlier batch rules of strictly lower priority.
  std::vector<int> accepted_priorities;
  std::vector<int> shifts_of(rules.size(), 0);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const net::Rule& r = rules[i];
    bool dup = priority_of_.contains(r.id) || batch_ids.contains(r.id);
    if (dup || free_slots == 0) {
      ++stats_.failed_inserts;
      obs_failed_inserts_.inc();
      ++out.failed;
      if (stop_at_first_failure) break;
      continue;
    }
    --free_slots;
    batch_ids.insert(r.id, true);
    auto pos = std::upper_bound(entries_.begin(), entries_.end(), r.priority,
                                kPriorityDescUpper);
    int below_resident = static_cast<int>(entries_.end() - pos);
    auto lower = std::lower_bound(accepted_priorities.begin(),
                                  accepted_priorities.end(), r.priority);
    int below_batch = static_cast<int>(lower - accepted_priorities.begin());
    shifts_of[i] = below_resident + below_batch;
    accepted_priorities.insert(lower, r.priority);
    accepted.push_back(i);
    if (per_op) (*per_op)[i] = {true, shifts_of[i]};
  }

  // Placement pass: ONE backward merge. Stable-sort the accepted rules by
  // descending priority (stability keeps batch arrival order within a
  // priority level), then merge from the bottom of the array upward so
  // every resident entry moves at most once. Residents of a priority equal
  // to an incoming rule stay above it, matching the per-op upper_bound
  // placement.
  std::vector<std::size_t> order = accepted;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rules[a].priority > rules[b].priority;
                   });
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(entries_.size());
  const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(order.size());
  entries_.resize(static_cast<std::size_t>(n + k));
  std::ptrdiff_t src = n - 1;
  std::ptrdiff_t write = n + k - 1;
  std::ptrdiff_t next = k - 1;
  while (next >= 0) {
    const net::Rule& incoming = rules[order[static_cast<std::size_t>(next)]];
    if (src >= 0 && entries_[static_cast<std::size_t>(src)].priority <
                        incoming.priority) {
      entries_[static_cast<std::size_t>(write--)] =
          entries_[static_cast<std::size_t>(src--)];
    } else {
      entries_[static_cast<std::size_t>(write--)] = incoming;
      --next;
    }
  }

  // Engine stamps follow batch order: equal-priority batch rules land in
  // batch arrival order below equal-priority residents, exactly like the
  // sequential insert loop.
  for (std::size_t i : accepted) {
    priority_of_.insert(rules[i].id, rules[i].priority);
    engine_.insert(rules[i], seq_++);
    out.total_shifts += static_cast<std::uint64_t>(shifts_of[i]);
  }
  out.inserted = static_cast<int>(k);
  stats_.inserts += static_cast<std::uint64_t>(k);
  stats_.total_shifts += out.total_shifts;
  obs_inserts_.inc(static_cast<std::uint64_t>(k));
  obs_shifts_.inc(out.total_shifts);
  return out;
}

OpResult TcamTable::erase(net::RuleId id) {
  std::size_t slot = locate(id);
  if (slot == kNoSlot) return {false, 0};
  engine_.erase(entries_[slot]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(slot));
  priority_of_.erase(id);
  ++stats_.deletes;
  obs_deletes_.inc();
  return {true, 0};
}

OpResult TcamTable::modify_action(net::RuleId id, const net::Action& action) {
  std::size_t slot = locate(id);
  if (slot == kNoSlot) return {false, 0};
  engine_.modify_action(entries_[slot], action);
  entries_[slot].action = action;
  ++stats_.modifies;
  obs_modifies_.inc();
  return {true, 0};
}

OpResult TcamTable::modify_match(net::RuleId id, const net::Prefix& match) {
  std::size_t slot = locate(id);
  if (slot == kNoSlot) return {false, 0};
  // Re-keys the engine node in place, preserving its arrival stamp (the
  // entry keeps its slot, so its tie-break position must not move).
  engine_.modify_match(entries_[slot], match);
  entries_[slot].match = match;
  ++stats_.modifies;
  obs_modifies_.inc();
  return {true, 0};
}

std::optional<net::Rule> TcamTable::lookup(net::Ipv4Address addr) {
  const net::Rule* r = lookup_ptr(addr);
  if (r == nullptr) return std::nullopt;
  return *r;
}

const net::Rule* TcamTable::lookup_ptr(net::Ipv4Address addr) {
  ++stats_.lookups;
  obs_lookups_.inc();
  int probed = 0;
  const net::Rule* r = engine_.lookup(addr, &probed);
  obs_lookup_probes_.record(static_cast<std::uint64_t>(probed));
  if (r != nullptr) {
    obs_lookup_hits_.inc();
  } else {
    obs_lookup_misses_.inc();
  }
  return r;
}

std::optional<net::Rule> TcamTable::peek(net::Ipv4Address addr) const {
  for (const net::Rule& r : entries_) {
    if (r.match.contains(addr)) return r;
  }
  return std::nullopt;
}

bool TcamTable::contains(net::RuleId id) const {
  return priority_of_.contains(id);
}

std::optional<net::Rule> TcamTable::find(net::RuleId id) const {
  const net::Rule* r = find_ptr(id);
  if (!r) return std::nullopt;
  return *r;
}

const net::Rule* TcamTable::find_ptr(net::RuleId id) const {
  std::size_t slot = locate(id);
  return slot == kNoSlot ? nullptr : &entries_[slot];
}

std::vector<net::Rule> TcamTable::rules() const { return entries_; }

std::size_t TcamTable::memory_bytes() const {
  return obs::heap_bytes(entries_) + priority_of_.memory_bytes() +
         engine_.memory_bytes();
}

void TcamTable::clear() {
  entries_.clear();
  priority_of_.clear();
  engine_.clear();
}

bool TcamTable::check_invariant() const {
  if (static_cast<int>(entries_.size()) > capacity_) return false;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].priority > entries_[i - 1].priority) return false;
  }
  // Index <-> array agreement: exactly one index entry per rule, carrying
  // the priority the rule is filed under (what locate() relies on).
  if (priority_of_.size() != entries_.size()) return false;
  for (const net::Rule& r : entries_) {
    const int* priority = priority_of_.find(r.id);
    if (priority == nullptr || *priority != r.priority) return false;
  }
  // Engine <-> array agreement: same population, structurally sound.
  if (engine_.size() != entries_.size()) return false;
  if (!engine_.check_invariant()) return false;
  return true;
}

}  // namespace hermes::tcam
