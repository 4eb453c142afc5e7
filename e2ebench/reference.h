// The benchmark's own monolithic reference table: every accepted rule in
// one place, answered by brute force over the 33 prefix lengths. Highest
// priority wins; equal priorities go to the earlier install. It shares
// no code with the tables under test.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/rule.h"

namespace e2e {

class ReferenceTable {
 public:
  void insert(const hermes::net::Rule& rule) {
    erase(rule.id);
    by_id_[rule.id] = {rule, seq_++};
    bucket(rule).push_back(rule.id);
  }

  void erase(hermes::net::RuleId id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return;
    std::vector<hermes::net::RuleId>& ids = bucket(it->second.rule);
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == id) {
        ids[i] = ids.back();
        ids.pop_back();
        break;
      }
    by_id_.erase(it);
  }

  const hermes::net::Rule* lookup(hermes::net::Ipv4Address addr) const {
    const Entry* best = nullptr;
    for (int len = 0; len <= 32; ++len) {
      const auto& table = by_len_[static_cast<std::size_t>(len)];
      if (table.empty()) continue;
      auto it = table.find(addr.value() &
                           hermes::net::Prefix::mask_for(len));
      if (it == table.end()) continue;
      for (hermes::net::RuleId id : it->second) {
        const Entry& e = by_id_.at(id);
        if (best == nullptr || e.rule.priority > best->rule.priority ||
            (e.rule.priority == best->rule.priority && e.seq < best->seq))
          best = &e;
      }
    }
    return best ? &best->rule : nullptr;
  }

  std::size_t size() const { return by_id_.size(); }

 private:
  struct Entry {
    hermes::net::Rule rule;
    std::uint64_t seq = 0;
  };

  std::vector<hermes::net::RuleId>& bucket(const hermes::net::Rule& r) {
    return by_len_[static_cast<std::size_t>(r.match.length())]
                  [r.match.address().value()];
  }

  std::unordered_map<hermes::net::RuleId, Entry> by_id_;
  std::array<std::unordered_map<std::uint32_t,
                                std::vector<hermes::net::RuleId>>,
             33>
      by_len_;
  std::uint64_t seq_ = 0;
};

}  // namespace e2e
