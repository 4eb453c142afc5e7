// fleet_drive: 4096 HermesBackends behind sim::FleetController. One
// round: a 32-rule install batch per switch, a teardown of half of
// them, and a fleet-wide tick. The same round is driven once inline
// (1 worker) and once sharded over min(4, nproc) workers; the batch
// result slots must come out identical.
#include <algorithm>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "baselines/hermes_backend.h"
#include "bench.h"
#include "net/flow_mod_batch.h"
#include "obs/metrics.h"
#include "sim/fleet.h"
#include "tcam/switch_model.h"
#include "timed_backend.h"

namespace e2e {
namespace {

using namespace hermes;

constexpr int kSwitches = 4096;
constexpr int kBatch = 32;
constexpr int kTcamCapacity = 4000;

const tracer::NameId kPost = tracer::intern("fleet.post");
const tracer::NameId kJoin = tracer::intern("fleet.join");

struct Batches {
  std::vector<net::FlowModBatch> installs;   ///< one per switch
  std::vector<net::FlowModBatch> teardowns;  ///< one per switch
};

Batches generate(std::uint64_t seed) {
  Batches b;
  b.installs.resize(kSwitches);
  b.teardowns.resize(kSwitches);
  for (int sw = 0; sw < kSwitches; ++sw) {
    std::mt19937_64 rng(
        mix_seed(seed, static_cast<std::uint64_t>(sw) * 1024 + 1));
    net::FlowModBatch& batch = b.installs[static_cast<std::size_t>(sw)];
    batch.reserve(kBatch);
    for (int k = 0; k < kBatch; ++k) {
      int length = 8 + static_cast<int>(rng() % 17);  // /8 .. /24
      batch.insert(net::Rule{
          static_cast<net::RuleId>(k + 1), static_cast<int>(rng() % 1024),
          net::Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                      length),
          net::forward_to(static_cast<int>(rng() % 16))});
    }
    net::FlowModBatch& del = b.teardowns[static_cast<std::size_t>(sw)];
    del.reserve(kBatch / 2);
    for (int k = 0; k < kBatch / 2; ++k)
      del.erase(static_cast<net::RuleId>(2 * k + 1));
  }
  return b;
}

struct Drive {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t mods = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  Time makespan = 0;
  double bytes_per_switch = 0;
  std::vector<Duration> rit;
};

void digest_batch(Digest& d, Drive& out, const net::FlowModBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::ModResult& r = batch.result(i);
    d.mix(static_cast<std::uint64_t>(r.status));
    d.mix_signed(r.completion);
    out.makespan = std::max(out.makespan, r.completion);
    if (r.status != net::ModStatus::kApplied) ++out.failed;
  }
  out.mods += batch.size();
}

/// Builds a fresh fleet and drives the round through it.
Drive drive(Batches& batches, int threads, bool traced) {
  Drive out;
  auto t0 = Clock::now();
  double heap0 = heap_bytes();
  std::vector<std::unique_ptr<baselines::SwitchBackend>> backends;
  backends.reserve(kSwitches);
  for (int sw = 0; sw < kSwitches; ++sw) {
    std::unique_ptr<baselines::SwitchBackend> b =
        std::make_unique<baselines::HermesBackend>(tcam::pica8_p3290(),
                                                   kTcamCapacity);
    if (traced) b = std::make_unique<TimedBackend>(std::move(b));
    backends.push_back(std::move(b));
  }
  out.bytes_per_switch = (heap_bytes() - heap0) / kSwitches;
  sim::FleetController fleet(threads);
  for (int sw = 0; sw < kSwitches; ++sw)
    fleet.add_switch(sw, backends[static_cast<std::size_t>(sw)].get());
  fleet.start();
  for (auto* set : {&batches.installs, &batches.teardowns})
    for (net::FlowModBatch& b : *set) b.reset_results();
  auto t_built = Clock::now();

  Digest digest;
  const Time now = from_millis(1);
  {
    tracer::Span span(kPost);
    for (int sw = 0; sw < kSwitches; ++sw)
      fleet.post_batch(now, sw, &batches.installs[static_cast<std::size_t>(sw)]);
  }
  {
    tracer::Span span(kJoin);
    fleet.join();
  }
  for (const net::FlowModBatch& b : batches.installs)
    digest_batch(digest, out, b);
  {
    tracer::Span span(kPost);
    for (int sw = 0; sw < kSwitches; ++sw)
      fleet.post_batch(now + from_micros(500), sw,
                       &batches.teardowns[static_cast<std::size_t>(sw)]);
    fleet.post_tick(now + from_micros(900));
  }
  {
    tracer::Span span(kJoin);
    fleet.join();
  }
  for (const net::FlowModBatch& b : batches.teardowns)
    digest_batch(digest, out, b);
  auto t_done = Clock::now();
  fleet.stop();
  out.setup_s = seconds_between(t0, t_built);
  out.wall_s = seconds_between(t_built, t_done);
  out.digest = digest.h;
  for (const auto& b : backends)
    out.rit.insert(out.rit.end(), b->rit_samples().begin(),
                   b->rit_samples().end());
  return out;
}

}  // namespace

Pass run_fleet_drive(std::uint64_t seed, bool traced) {
  Pass pass;
  auto t0 = Clock::now();
  Batches batches = generate(seed);
  pass.gen_s = seconds_between(t0, Clock::now());

  const int workers = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  obs::Registry registry;
  obs::attach(&registry);
  tracer::collect();
  Drive inline_drive = drive(batches, 1, traced);
  SpanStats spans_1t = tracer::collect();
  Drive sharded = drive(batches, workers, traced);
  SpanStats spans_nt = tracer::collect();

  pass.setup_s = pass.gen_s + inline_drive.setup_s + sharded.setup_s;
  pass.timed_s = inline_drive.wall_s + sharded.wall_s;
  pass.ops = static_cast<double>(inline_drive.mods + sharded.mods);
  pass.attempted = inline_drive.mods + sharded.mods;
  pass.failed = inline_drive.failed + sharded.failed;

  // Output check: sharding must not change any batch result slot.
  pass.check(inline_drive.digest == sharded.digest &&
                 inline_drive.makespan == sharded.makespan,
             "fleet_drive: batch results differ between 1 and " +
                 std::to_string(workers) + " workers");
  Digest digest;
  digest.mix(inline_drive.digest);
  digest.mix_signed(inline_drive.makespan);
  pass.digest = digest.h;

  const double mods = static_cast<double>(inline_drive.mods);
  const double parallel = static_cast<double>(sharded.mods) / sharded.wall_s;
  auto& v = pass.values;
  registry_layers(registry, v);
  v["hermes.rit_p50_ms"] = quantile(inline_drive.rit, 0.50) / 1e6;
  v["hermes.rit_p99_ms"] = quantile(inline_drive.rit, 0.99) / 1e6;
  v["fleet.mods_per_s_1t"] = mods / inline_drive.wall_s;
  v["fleet.mods_per_s_parallel"] = parallel;
  v["fleet.parallel_efficiency"] =
      ratio(parallel, mods / inline_drive.wall_s) / workers;
  v["fleet.bytes_per_switch"] = inline_drive.bytes_per_switch;
  v["workers"] = workers;
  if (traced) {
    backend_layers(spans_1t, v);
    v["fleet.post_s"] = span_total_s(spans_nt, "fleet.post");
    v["fleet.join_wait_s"] = span_total_s(spans_nt, "fleet.join");
    // Worker time inside the wrapped backends, summed over all workers.
    auto backend_ns = [](const SpanStats& spans) {
      return 1e9 * (span_total_s(spans, "backend.handle") +
                    span_total_s(spans, "backend.tick"));
    };
    v["fleet.backend_ns_per_mod_1t"] = backend_ns(spans_1t) / mods;
    v["fleet.backend_ns_per_mod_nt"] = backend_ns(spans_nt) / mods;
  }
  obs::attach(nullptr);
  return pass;
}

}  // namespace e2e
