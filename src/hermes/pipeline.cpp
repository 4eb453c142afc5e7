#include "hermes/pipeline.h"

#include <cassert>

namespace hermes::core {

MultiTablePipeline::MultiTablePipeline(const tcam::SwitchModel& model,
                                       std::vector<int> table_capacities,
                                       std::vector<TableConfig> configs)
    : configs_(std::move(configs)) {
  assert(table_capacities.size() == configs_.size() &&
         !table_capacities.empty());
  agents_.reserve(table_capacities.size());
  for (std::size_t i = 0; i < table_capacities.size(); ++i) {
    agents_.push_back(std::make_unique<HermesAgent>(
        model, table_capacities[i], configs_[i].hermes));
  }
}

Time MultiTablePipeline::handle(Time now, int table_idx,
                                const net::FlowMod& mod) {
  assert(table_idx >= 0 && table_idx < table_count());
  return agents_[static_cast<std::size_t>(table_idx)]->handle(now, mod);
}

void MultiTablePipeline::tick(Time now) {
  for (auto& agent : agents_) agent->tick(now);
}

MultiTablePipeline::PipelineResult MultiTablePipeline::process(
    net::Ipv4Address addr) {
  PipelineResult result;
  for (int idx = 0; idx < table_count(); ++idx) {
    result.table = idx;
    const net::Rule* hit =
        agents_[static_cast<std::size_t>(idx)]->lookup_ptr(addr);
    if (hit) {
      result.rule = hit->id;
      switch (hit->action.type) {
        case net::ActionType::kForward:
          result.kind = PipelineResult::Kind::kForward;
          result.port = hit->action.port;
          return result;
        case net::ActionType::kDrop:
          result.kind = PipelineResult::Kind::kDrop;
          return result;
        case net::ActionType::kToController:
          result.kind = PipelineResult::Kind::kToController;
          return result;
        case net::ActionType::kGotoNextTable:
          continue;  // fall through to the next pipeline table
      }
    }
    // Table miss: the ORIGINAL table's miss behavior applies (the shadow
    // slice's fall-through to its main slice already happened inside
    // HermesAgent::lookup_ptr).
    switch (configs_[static_cast<std::size_t>(idx)].miss) {
      case MissBehavior::kGotoNextTable:
        continue;
      case MissBehavior::kToController:
        result.kind = PipelineResult::Kind::kToController;
        result.rule = net::kInvalidRuleId;
        return result;
      case MissBehavior::kDrop:
        result.kind = PipelineResult::Kind::kDrop;
        result.rule = net::kInvalidRuleId;
        return result;
    }
  }
  // Fell off the end of the pipeline: drop (the OpenFlow default).
  result.kind = PipelineResult::Kind::kDrop;
  result.rule = net::kInvalidRuleId;
  return result;
}

}  // namespace hermes::core
