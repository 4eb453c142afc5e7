// te_sim: the paper's end-to-end experiment (Fig. 9, FCT under traffic
// engineering). Facebook MapReduce jobs on a k=16 fat-tree (320
// switches) through sim::Simulation::run; every switch is a
// HermesBackend pre-loaded with an 800-rule baseline, and the TE app's
// path moves go through update::UpdateCoordinator.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/hermes_backend.h"
#include "bench.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "tcam/switch_model.h"
#include "timed_backend.h"
#include "workloads/facebook.h"

namespace e2e {
namespace {

using namespace hermes;

constexpr int kFatTreeK = 16;
constexpr int kJobs = 200;
constexpr double kArrivalWindowS = 6.0;
// Flow sizes and job widths are capped so that the run's length follows
// the arrival window rather than the single largest elephant of the
// heavy-tailed draw: without the caps one seed's run is several times
// another's and its throughput is set by one lone transfer.
constexpr int kMaxJobWidth = 64;
constexpr double kMaxFlowBytes = 300e6;
constexpr int kTcamCapacity = 4000;
constexpr int kBaselineRules = 800;

const tracer::NameId kSimRun = tracer::intern("sim.run");

/// The switch's resident FIB below the TE app's priority band, settled
/// at t=0 so the run starts against a quiet, populated switch.
std::unique_ptr<baselines::HermesBackend> baseline_switch() {
  auto sw = std::make_unique<baselines::HermesBackend>(tcam::pica8_p3290(),
                                                       kTcamCapacity);
  for (int i = 0; i < kBaselineRules; ++i) {
    net::Rule rule{static_cast<net::RuleId>(3'000'000 + i), 1 + (i % 90),
                   net::Prefix(net::Ipv4Address(
                                   0xC0000000u +
                                   (static_cast<std::uint32_t>(i) << 8)),
                               24),
                   net::forward_to(i % 48)};
    sw->handle(0, {net::FlowModType::kInsert, rule});
  }
  sw->agent().migrate_now(0);
  sw->agent().asic().reset_channel();
  sw->clear_rit_samples();
  return sw;
}

std::uint64_t agent_mods(const core::AgentStats& s) {
  return s.inserts + s.deletes + s.modifies;
}

}  // namespace

Pass run_te_sim(std::uint64_t seed, bool traced) {
  Pass pass;
  auto t0 = Clock::now();
  net::Topology topology = net::fat_tree(kFatTreeK, /*link_bps=*/1e9);
  workloads::FacebookConfig fb;
  fb.job_count = kJobs;
  fb.duration_s = kArrivalWindowS;
  fb.mean_flow_mb = 6.0;
  fb.max_width = kMaxJobWidth;
  fb.seed = mix_seed(seed, 1);
  std::vector<workloads::Job> jobs =
      workloads::facebook_jobs(fb, topology.hosts());
  for (workloads::Job& job : jobs)
    for (workloads::FlowSpec& flow : job.flows)
      flow.bytes = std::min(flow.bytes, kMaxFlowBytes);
  auto t_gen = Clock::now();

  obs::Registry registry;
  obs::attach(&registry);
  // Agent counters before the timed phase (the baseline load), per switch.
  std::vector<baselines::HermesBackend*> switches;
  std::uint64_t base_mods = 0, base_failed = 0;
  sim::SimConfig config;
  config.congestion_threshold = 0.40;
  config.max_moves_per_cycle = 256;
  config.te_period = from_millis(100);
  config.seed = mix_seed(seed, 2);
  config.backend_factory = [&](net::NodeId, const std::string&)
      -> std::unique_ptr<baselines::SwitchBackend> {
    auto sw = baseline_switch();
    switches.push_back(sw.get());
    base_mods += agent_mods(sw->agent().stats());
    base_failed += sw->agent().stats().failed_ops;
    if (traced) return std::make_unique<TimedBackend>(std::move(sw));
    return sw;
  };
  {
    sim::Simulation simulation(topology, config);
    simulation.add_jobs(jobs);
    auto t_built = Clock::now();

    tracer::collect();  // drop spans from set-up
    {
      tracer::Span span(kSimRun);
      simulation.run();
    }
    auto t_done = Clock::now();
    SpanStats spans = tracer::collect();

    pass.gen_s = seconds_between(t0, t_gen);
    pass.setup_s = seconds_between(t0, t_built);
    pass.timed_s = seconds_between(t_built, t_done);

    // Output checks: every generated flow completes, after it arrived.
    std::size_t expected_flows = 0;
    for (const workloads::Job& job : jobs) expected_flows += job.flows.size();
    const std::vector<sim::FlowResult>& flows = simulation.flow_results();
    pass.check(flows.size() == expected_flows,
               "te_sim: " + std::to_string(flows.size()) + " of " +
                   std::to_string(expected_flows) + " flows completed");
    Digest digest;
    std::vector<double> fct;
    Time end = 0;
    for (const sim::FlowResult& f : flows) {
      pass.check(f.completion >= f.arrival, "te_sim: flow ends before start");
      digest.mix_signed(f.job_id);
      digest.mix_signed(f.arrival);
      digest.mix_signed(f.completion);
      digest.mix_signed(f.moves);
      fct.push_back(f.fct_s());
      end = std::max(end, f.completion);
    }
    std::vector<Duration> rit = simulation.all_rit_samples();
    std::sort(rit.begin(), rit.end());
    for (Duration d : rit) digest.mix_signed(d);
    digest.mix_signed(simulation.total_moves());
    pass.digest = digest.h;

    std::uint64_t mods = 0, failed = 0;
    for (baselines::HermesBackend* sw : switches) {
      mods += agent_mods(sw->agent().stats());
      failed += sw->agent().stats().failed_ops;
    }
    mods -= base_mods;
    failed -= base_failed;
    pass.ops = static_cast<double>(mods);
    pass.attempted = mods + expected_flows;
    pass.failed = failed + static_cast<std::uint64_t>(
                               simulation.moves_aborted());

    auto& v = pass.values;
    registry_layers(registry, v);
    v["hermes.rit_p50_ms"] = quantile(rit, 0.50) / 1e6;
    v["hermes.rit_p99_ms"] = quantile(rit, 0.99) / 1e6;
    v["sim.fct_p50_s"] = quantile(fct, 0.50);
    v["sim.fct_p99_s"] = quantile(fct, 0.99);
    v["sim.sim_rate"] = to_seconds(end) / pass.timed_s;
    v["sim.events"] = static_cast<double>(registry.counter_value("sim.events"));
    v["update.commit_ratio"] =
        ratio(static_cast<double>(registry.counter_value("update.committed")),
              static_cast<double>(registry.counter_value("update.txns")));
    v["te_moves"] = simulation.total_moves();
    if (traced) {
      backend_layers(spans, v);
      v["sim.self_s"] = span_self_s(spans, "sim.run");
    }
  }
  obs::attach(nullptr);
  return pass;
}

}  // namespace e2e
