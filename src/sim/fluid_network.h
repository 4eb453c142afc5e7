// Flow-level (fluid) network model with max-min fair bandwidth sharing —
// the data-plane half of the Varys simulator (Section 8.1.1).
//
// Flows are fluid: each active flow drains at the max-min fair rate its
// path permits. Whenever the flow set or any path changes, rates are
// recomputed by progressive filling; between changes every flow's
// remaining volume shrinks linearly, so the next completion time is
// exact, not approximated.
//
// Storage is flat and index-linked: flows sit in a vector indexed by
// FlowId (dense, never reused), the active ids in an ascending list, and
// each link keeps the ascending ids of the flows crossing it. A solve
// costs O(sum of active path lengths + bottleneck steps x busy links)
// and allocates nothing once the scratch vectors have grown.
#pragma once

#include <optional>
#include <vector>

#include "net/time.h"
#include "net/topology.h"

namespace hermes::sim {

using FlowId = int;
inline constexpr FlowId kInvalidFlow = -1;

class FluidNetwork {
 public:
  explicit FluidNetwork(const net::Topology& topology);

  /// Registers a flow of `bytes` over `links` (distinct links, as on a
  /// loopless path). The caller must have advanced the network to `now`
  /// (all mutators require it).
  FlowId add_flow(double bytes, const std::vector<net::LinkId>& links,
                  Time now);

  /// Removes a flow (completion or cancellation). No-op for an unknown or
  /// already removed id.
  void remove_flow(FlowId id, Time now);

  /// Moves a flow onto a different set of links (TE reroute). No-op for
  /// an unknown or already removed id.
  void reroute_flow(FlowId id, const std::vector<net::LinkId>& links,
                    Time now);

  /// Drains all flows up to `now` at their current rates. Monotone.
  void advance_to(Time now);

  /// The earliest upcoming completion under current rates.
  struct NextCompletion {
    FlowId flow = kInvalidFlow;
    Time time = 0;
  };
  std::optional<NextCompletion> next_completion() const;

  double remaining_bytes(FlowId id) const;
  double rate_bytes_per_s(FlowId id) const;
  /// Valid until the next add_flow.
  const std::vector<net::LinkId>& links_of(FlowId id) const;

  /// Fraction of link capacity currently in use, in [0, 1]. Rates are
  /// summed in ascending flow id, so equal inputs give equal bits.
  double link_utilization(net::LinkId link) const;
  /// Utilization of every link in one pass (for the TE scan).
  std::vector<double> all_link_utilization() const;
  /// Active flows traversing `link`, ascending.
  std::vector<FlowId> flows_on_link(net::LinkId link) const;

  int active_flow_count() const { return static_cast<int>(active_.size()); }

 private:
  struct FlowState {
    double remaining = 0;
    double rate = 0;  // bytes/s
    bool active = false;
    std::vector<net::LinkId> links;
  };

  bool is_active(FlowId id) const;
  void attach(FlowId id);  // adds `id` to its links' incidence lists
  void detach(FlowId id);  // removes it from them
  void recompute_rates();

  std::vector<double> link_capacity_;  // bytes/s per link
  std::vector<FlowState> flows_;       // by FlowId
  std::vector<FlowId> active_;         // ascending
  std::vector<std::vector<FlowId>> link_flows_;  // per link, ascending
  Time last_advance_ = 0;

  // Progressive-filling scratch, reused across solves. count_ is all
  // zero between solves.
  std::vector<double> residual_;        // per link
  std::vector<int> count_;              // unfrozen flows per link
  std::vector<char> frozen_;            // by FlowId
  std::vector<net::LinkId> busy_links_; // links with unfrozen flows
};

}  // namespace hermes::sim
