#include "sim/fluid_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace hermes::sim {

FluidNetwork::FluidNetwork(const net::Topology& topology) {
  auto links = static_cast<std::size_t>(topology.link_count());
  link_capacity_.reserve(links);
  for (const net::Link& l : topology.links())
    link_capacity_.push_back(l.capacity_bps / 8.0);
  link_flows_.resize(links);
  residual_.resize(links);
  count_.resize(links, 0);
}

bool FluidNetwork::is_active(FlowId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < flows_.size() &&
         flows_[static_cast<std::size_t>(id)].active;
}

void FluidNetwork::attach(FlowId id) {
  for (net::LinkId l : flows_[static_cast<std::size_t>(id)].links) {
    auto& on_link = link_flows_[static_cast<std::size_t>(l)];
    on_link.insert(std::lower_bound(on_link.begin(), on_link.end(), id), id);
  }
}

void FluidNetwork::detach(FlowId id) {
  for (net::LinkId l : flows_[static_cast<std::size_t>(id)].links) {
    auto& on_link = link_flows_[static_cast<std::size_t>(l)];
    on_link.erase(std::lower_bound(on_link.begin(), on_link.end(), id));
  }
}

FlowId FluidNetwork::add_flow(double bytes,
                              const std::vector<net::LinkId>& links,
                              Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  assert(bytes > 0 && !links.empty());
  (void)now;
  auto id = static_cast<FlowId>(flows_.size());
  flows_.push_back(FlowState{bytes, 0, true, links});
  frozen_.push_back(0);
  active_.push_back(id);  // ids only grow: the list stays ascending
  attach(id);
  recompute_rates();
  return id;
}

void FluidNetwork::remove_flow(FlowId id, Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  (void)now;
  if (!is_active(id)) return;
  detach(id);
  FlowState& flow = flows_[static_cast<std::size_t>(id)];
  flow.active = false;
  std::vector<net::LinkId>().swap(flow.links);
  active_.erase(std::lower_bound(active_.begin(), active_.end(), id));
  recompute_rates();
}

void FluidNetwork::reroute_flow(FlowId id,
                                const std::vector<net::LinkId>& links,
                                Time now) {
  assert(now == last_advance_ && "advance_to(now) before mutating");
  (void)now;
  if (!is_active(id)) return;  // completed before the move finished
  detach(id);
  flows_[static_cast<std::size_t>(id)].links = links;
  attach(id);
  recompute_rates();
}

void FluidNetwork::advance_to(Time now) {
  assert(now >= last_advance_);
  double dt = to_seconds(now - last_advance_);
  if (dt > 0) {
    for (FlowId id : active_) {
      FlowState& flow = flows_[static_cast<std::size_t>(id)];
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    }
  }
  last_advance_ = now;
}

std::optional<FluidNetwork::NextCompletion>
FluidNetwork::next_completion() const {
  std::optional<NextCompletion> best;
  for (FlowId id : active_) {
    const FlowState& flow = flows_[static_cast<std::size_t>(id)];
    if (flow.rate <= 0) continue;
    double seconds = flow.remaining / flow.rate;
    Time when = last_advance_ + from_seconds(seconds);
    // Guard against zero-duration rounding: completions are strictly in
    // the future unless the flow is already drained.
    if (flow.remaining <= 0) when = last_advance_;
    // Ascending ids: on a tie the lowest id is already in `best`.
    if (!best || when < best->time) best = NextCompletion{id, when};
  }
  return best;
}

double FluidNetwork::remaining_bytes(FlowId id) const {
  return is_active(id) ? flows_[static_cast<std::size_t>(id)].remaining : 0;
}

double FluidNetwork::rate_bytes_per_s(FlowId id) const {
  return is_active(id) ? flows_[static_cast<std::size_t>(id)].rate : 0;
}

const std::vector<net::LinkId>& FluidNetwork::links_of(FlowId id) const {
  static const std::vector<net::LinkId> empty;
  return is_active(id) ? flows_[static_cast<std::size_t>(id)].links : empty;
}

double FluidNetwork::link_utilization(net::LinkId link) const {
  double used = 0;
  for (FlowId id : link_flows_[static_cast<std::size_t>(link)])
    used += flows_[static_cast<std::size_t>(id)].rate;
  double cap = link_capacity_[static_cast<std::size_t>(link)];
  return cap > 0 ? used / cap : 0;
}

std::vector<double> FluidNetwork::all_link_utilization() const {
  std::vector<double> used(link_capacity_.size(), 0.0);
  for (std::size_t l = 0; l < used.size(); ++l) {
    for (FlowId id : link_flows_[l])
      used[l] += flows_[static_cast<std::size_t>(id)].rate;
    if (link_capacity_[l] > 0) used[l] /= link_capacity_[l];
  }
  return used;
}

std::vector<FlowId> FluidNetwork::flows_on_link(net::LinkId link) const {
  return link_flows_[static_cast<std::size_t>(link)];
}

void FluidNetwork::recompute_rates() {
  // Progressive filling. Only links carrying unfrozen flows participate.
  // Every flow frozen in one step subtracts the same share, so residuals,
  // shares and rates do not depend on the order flows are visited in.
  busy_links_.clear();
  for (FlowId id : active_) {
    FlowState& flow = flows_[static_cast<std::size_t>(id)];
    flow.rate = 0;
    frozen_[static_cast<std::size_t>(id)] = 0;
    for (net::LinkId l : flow.links) {
      auto li = static_cast<std::size_t>(l);
      if (count_[li] != 0) continue;
      count_[li] = static_cast<int>(link_flows_[li].size());
      residual_[li] = link_capacity_[li];
      busy_links_.push_back(l);
    }
  }

  std::size_t remaining_flows = active_.size();
  while (remaining_flows > 0) {
    // Bottleneck link: minimal fair share among links with unfrozen
    // flows, ties to the lowest link id. Drained links leave the list.
    net::LinkId bottleneck = net::kInvalidLink;
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (net::LinkId l : busy_links_) {
      auto li = static_cast<std::size_t>(l);
      if (count_[li] <= 0) continue;
      busy_links_[kept++] = l;
      double share = residual_[li] / count_[li];
      if (share < best_share || (share == best_share && l < bottleneck)) {
        best_share = share;
        bottleneck = l;
      }
    }
    busy_links_.resize(kept);
    if (bottleneck == net::kInvalidLink) break;  // defensive

    // Freeze every unfrozen flow crossing the bottleneck at the share.
    for (FlowId id : link_flows_[static_cast<std::size_t>(bottleneck)]) {
      auto fi = static_cast<std::size_t>(id);
      if (frozen_[fi]) continue;
      FlowState& flow = flows_[fi];
      flow.rate = best_share;
      frozen_[fi] = 1;
      --remaining_flows;
      for (net::LinkId l : flow.links) {
        residual_[static_cast<std::size_t>(l)] -= best_share;
        --count_[static_cast<std::size_t>(l)];
      }
    }
  }
  // Leave count_ all zero for the next solve (non-zero only after the
  // defensive break).
  for (net::LinkId l : busy_links_) count_[static_cast<std::size_t>(l)] = 0;
}

}  // namespace hermes::sim
