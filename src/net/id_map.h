// Flat map from rule id to a small value, for the per-switch id indices
// (TcamTable's id -> priority, RuleStore's physical -> logical id).
//
// One slot array instead of one heap node per rule: open addressing with
// linear probing over a power-of-two array kept at most half full, and
// backward-shift deletion, so there are no tombstones and a probe run
// ends at the first empty slot. The array is allocated on the first
// insert and doubles as the map grows. Slots hash by the high word of a
// Fibonacci product, so sequential ids (controller ids, piece ids) spread
// across the array. Iteration order is not exposed: callers only look
// ids up.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "net/rule.h"

namespace hermes::net {

template <class V>
class IdMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const V* find(RuleId id) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = next(i)) {
      if (slots_[i].id == id) return &slots_[i].value;
      if (slots_[i].id == kEmpty) return nullptr;
    }
  }
  bool contains(RuleId id) const { return find(id) != nullptr; }

  /// Maps `id` to `value`; returns false (and changes nothing) when `id`
  /// is already present.
  bool insert(RuleId id, V value) {
    assert(id != kEmpty);
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(id);
    for (; slots_[i].id != kEmpty; i = next(i))
      if (slots_[i].id == id) return false;
    slots_[i] = {id, value};
    ++size_;
    return true;
  }

  /// Removes `id`; returns false when it was absent.
  bool erase(RuleId id) {
    if (slots_.empty()) return false;
    std::size_t hole = home(id);
    for (; slots_[hole].id != id; hole = next(hole))
      if (slots_[hole].id == kEmpty) return false;
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home lies cyclically in (hole, j].
    for (std::size_t j = next(hole); slots_[j].id != kEmpty; j = next(j)) {
      const std::size_t h = home(slots_[j].id);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kEmpty;
    --size_;
    return true;
  }

  /// Drops every entry and keeps the slot array.
  void clear() {
    for (Slot& s : slots_) s.id = kEmpty;
    size_ = 0;
  }

  /// Heap bytes of the slot array (capacity x slot size).
  std::size_t memory_bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr RuleId kEmpty = ~RuleId{0};

  struct Slot {
    RuleId id = kEmpty;
    V value{};
  };

  std::size_t home(RuleId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  void grow() {
    const std::size_t cap = std::max<std::size_t>(8, slots_.size() * 2);
    std::vector<Slot> old(cap);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = home(s.id);
      while (slots_[i].id != kEmpty) i = next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace hermes::net
