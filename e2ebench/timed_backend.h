// A SwitchBackend that forwards every call to an inner backend and times
// the control-plane ones. Installed only on traced passes (through
// SimConfig::backend_factory or in place of the fleet's backends).
//
// Every virtual function is forwarded, handle_batch, set_fault_plan and
// lookup_ptr included: falling back to the base class's per-op
// handle_batch loop would silently replace Hermes's native batch path.
#pragma once

#include <memory>

#include "baselines/switch_backend.h"
#include "tracer.h"

namespace e2e {

// Interned during static initialization, before any worker thread runs.
inline const tracer::NameId kBackendHandle =
    tracer::intern("backend.handle", true);
inline const tracer::NameId kBackendTick = tracer::intern("backend.tick", true);
inline const tracer::NameId kBackendLookup = tracer::intern("backend.lookup");

class TimedBackend final : public hermes::baselines::SwitchBackend {
 public:
  explicit TimedBackend(std::unique_ptr<SwitchBackend> inner)
      : inner_(std::move(inner)) {}

  hermes::Time handle(hermes::Time now,
                      const hermes::net::FlowMod& mod) override {
    tracer::Span span(kBackendHandle);
    return inner_->handle(now, mod);
  }

  hermes::Time handle_batch(hermes::Time now,
                            hermes::net::FlowModBatch& batch) override {
    tracer::Span span(kBackendHandle);
    return inner_->handle_batch(now, batch);
  }

  void tick(hermes::Time now) override {
    tracer::Span span(kBackendTick);
    inner_->tick(now);
  }

  using SwitchBackend::lookup;
  std::optional<hermes::net::Rule> lookup(
      hermes::net::Ipv4Address addr) override {
    tracer::Span span(kBackendLookup);
    return inner_->lookup(addr);
  }
  const hermes::net::Rule* lookup_ptr(hermes::Time now,
                                      hermes::net::Ipv4Address addr) override {
    tracer::Span span(kBackendLookup);
    return inner_->lookup_ptr(now, addr);
  }

  std::string_view name() const override { return inner_->name(); }
  const std::vector<hermes::Duration>& rit_samples() const override {
    return inner_->rit_samples();
  }
  void clear_rit_samples() override { inner_->clear_rit_samples(); }
  void set_fault_plan(hermes::fault::FaultPlan* plan) override {
    inner_->set_fault_plan(plan);
  }

 private:
  std::unique_ptr<SwitchBackend> inner_;
};

}  // namespace e2e
