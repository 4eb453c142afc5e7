// cache_zipf: FDRC rule caching at scale. A 4-tenant Zipf rule set (/32
// flows plus /12 aggregates and /8 defaults) is installed into a
// cache::CacheHierarchy in cache mode whose TCAM holds a small fraction
// of it; then a drifting-popularity classify stream runs with flow
// restarts (erase + re-insert of popular flows) and a periodic tick().
#include <random>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "cache/cache_hierarchy.h"
#include "obs/metrics.h"
#include "reference.h"
#include "tcam/switch_model.h"
#include "workloads/zipf.h"

namespace e2e {
namespace {

using namespace hermes;

constexpr int kFlows = 150'000;
constexpr int kTcamCapacity = 2048;
constexpr int kPackets = 60'000;
constexpr int kTickEvery = 256;     // packets per tick()
constexpr int kRestartEvery = 64;   // packets per flow restart

const tracer::NameId kInstallPhase = tracer::intern("phase.install");
const tracer::NameId kClassifyPhase = tracer::intern("phase.classify");
const tracer::NameId kHandle = tracer::intern("cache.handle");
const tracer::NameId kClassify = tracer::intern("cache.classify", true);
const tracer::NameId kTick = tracer::intern("cache.tick");

/// A popular flow's rule erased and re-installed under a fresh id while
/// packets keep arriving (flow teardown and restart).
struct Restart {
  net::RuleId old_id;
  net::Rule rule;
};

struct Inputs {
  std::vector<net::Rule> rules;
  std::vector<net::Ipv4Address> packets;
  std::vector<Restart> restarts;  ///< one per kRestartEvery packets
};

Inputs generate(std::uint64_t seed) {
  workloads::ZipfConfig wc;
  wc.flows = kFlows;
  wc.seed = mix_seed(seed, 1);
  // The hot head moves a few times per pass (popularity drift).
  wc.rotate_period = kPackets / 4;
  wc.rotate_step = 4 * kTcamCapacity;
  Inputs in;
  in.rules = workloads::make_zipf_rules(wc);
  workloads::ZipfTraffic traffic(wc);
  in.packets.reserve(kPackets);
  for (int i = 0; i < kPackets; ++i) in.packets.push_back(traffic.next());

  std::unordered_map<std::uint32_t, std::size_t> flow_of;  // addr -> rule
  for (std::size_t i = 0; i < in.rules.size(); ++i)
    if (in.rules[i].match.length() == 32)
      flow_of[in.rules[i].match.address().value()] = i;
  std::vector<net::RuleId> current(in.rules.size());
  for (std::size_t i = 0; i < in.rules.size(); ++i)
    current[i] = in.rules[i].id;
  const int per_tenant = wc.flows / wc.tenants;
  workloads::ZipfGenerator ranks(static_cast<std::uint64_t>(per_tenant),
                                 wc.skew, mix_seed(seed, 2));
  std::mt19937_64 rng(mix_seed(seed, 3));
  net::RuleId next_id = 2'000'000'000;
  for (int i = 0; i < kPackets / kRestartEvery; ++i) {
    // Restart flows that are popular at that point of the stream.
    const std::uint64_t packet =
        static_cast<std::uint64_t>(i + 1) * kRestartEvery - 1;
    const std::uint64_t shift = packet / wc.rotate_period * wc.rotate_step;
    int tenant = static_cast<int>(rng() % static_cast<std::uint64_t>(wc.tenants));
    net::Ipv4Address addr = workloads::zipf_flow_address(
        wc, tenant, (ranks.next() + shift) % static_cast<std::uint64_t>(per_tenant));
    std::size_t idx = flow_of.at(addr.value());
    net::Rule rule = in.rules[idx];
    rule.id = next_id++;
    in.restarts.push_back({current[idx], rule});
    current[idx] = rule.id;
  }
  return in;
}

}  // namespace

Pass run_cache_zipf(std::uint64_t seed, bool traced) {
  Pass pass;
  auto t0 = Clock::now();
  const Inputs in = generate(seed);
  auto t_gen = Clock::now();

  obs::Registry registry;
  obs::attach(&registry);
  {
    double heap0 = heap_bytes();
    cache::CacheConfig config;
    config.mode = cache::Mode::kCache;
    config.policy = cache::PolicyKind::kFdrc;
    cache::CacheHierarchy cache(tcam::pica8_p3290(), kTcamCapacity, config);
    auto t_built = Clock::now();

    // Timed phase 1: install the whole rule set, 1 us apart.
    tracer::collect();
    Time now = 0;
    {
      tracer::Span phase(kInstallPhase);
      for (const net::Rule& r : in.rules) {
        now += from_micros(1);
        tracer::Span span(kHandle);
        cache.handle(now, {net::FlowModType::kInsert, r});
      }
    }
    auto t_installed = Clock::now();
    double heap_installed = heap_bytes();
    SpanStats install_spans = tracer::collect();

    // Timed phase 2: classify stream with restarts and ticks. Every
    // answer is kept for the reference check.
    const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
    std::vector<net::RuleId> answers;
    answers.reserve(kPackets);
    std::uint64_t restart_mods = 0;
    {
      tracer::Span phase(kClassifyPhase);
      for (int i = 0; i < kPackets; ++i) {
        now += from_micros(1);
        const net::Rule* hit;
        {
          tracer::Span span(kClassify);
          hit = cache.classify(now, in.packets[static_cast<std::size_t>(i)]).rule;
        }
        answers.push_back(hit ? hit->id : net::kInvalidRuleId);
        if (i % kRestartEvery == kRestartEvery - 1) {
          const Restart& r =
              in.restarts[static_cast<std::size_t>(i / kRestartEvery)];
          tracer::Span span(kHandle);
          net::Rule gone;
          gone.id = r.old_id;
          cache.handle(now, {net::FlowModType::kDelete, gone});
          cache.handle(now, {net::FlowModType::kInsert, r.rule});
          restart_mods += 2;
        }
        if (i % kTickEvery == 0) {
          tracer::Span span(kTick);
          cache.tick(now);
        }
      }
    }
    auto t_done = Clock::now();
    SpanStats spans = tracer::collect();

    pass.gen_s = seconds_between(t0, t_gen);
    pass.setup_s = seconds_between(t0, t_built);
    pass.timed_s = seconds_between(t_built, t_done);
    const double classify_s = seconds_between(t_installed, t_done);

    // Output checks: the cache invariant holds, and every answer matches
    // the benchmark's own monolithic table replaying the same ops. (The
    // hierarchy's own dependency-violation counter stays 0 here: it counts
    // only with verify_lookups on, which the production path leaves off.)
    pass.check(cache.check_invariant(), "cache_zipf: cache invariant broken");
    ReferenceTable ref;
    for (const net::Rule& r : in.rules) ref.insert(r);
    std::size_t mismatches = 0;
    Digest digest;
    for (int i = 0; i < kPackets; ++i) {
      const net::Rule* want = ref.lookup(in.packets[static_cast<std::size_t>(i)]);
      const net::RuleId got = answers[static_cast<std::size_t>(i)];
      if ((want ? want->id : net::kInvalidRuleId) != got) ++mismatches;
      digest.mix(got);
      if (i % kRestartEvery == kRestartEvery - 1) {
        const Restart& r = in.restarts[static_cast<std::size_t>(i / kRestartEvery)];
        ref.erase(r.old_id);
        ref.insert(r.rule);
      }
    }
    pass.check(mismatches == 0, "cache_zipf: " + std::to_string(mismatches) +
                                    " classify results differ from the "
                                    "reference table");
    pass.check(ref.size() == cache.total_rules(),
               "cache_zipf: rule count differs from the reference table");

    const std::uint64_t hits = cache.hits() - hits0;
    const std::uint64_t misses = cache.misses() - misses0;
    digest.mix(hits);
    digest.mix(misses);
    digest.mix(cache.promotions());
    digest.mix(cache.demotions());
    pass.digest = digest.h;
    pass.attempted = in.rules.size() + restart_mods + kPackets;
    pass.ops = static_cast<double>(pass.attempted);
    pass.failed = 0;

    auto& v = pass.values;
    registry_layers(registry, v);
    const double promotions = static_cast<double>(cache.promotions());
    const double aborts = static_cast<double>(cache.promotion_aborts());
    v["cache.hit_ratio"] = ratio(static_cast<double>(hits),
                                 static_cast<double>(hits + misses));
    v["cache.pkts_per_s"] = kPackets / classify_s;
    v["cache.promotion_yield"] = ratio(promotions, promotions + aborts);
    v["cache.closure_size_p99"] =
        registry.histogram_summary("cache.closure_size").p99;
    v["cache.bytes_per_rule"] =
        (heap_installed - heap0) / static_cast<double>(in.rules.size());
    if (traced) {
      v["cache.install_s"] = span_total_s(install_spans, "cache.handle");
      v["cache.classify_s"] = span_total_s(spans, "cache.classify");
      v["cache.classify_ns_p50"] = span_quantile_ns(spans, "cache.classify", 0.50);
      v["cache.classify_ns_p99"] = span_quantile_ns(spans, "cache.classify", 0.99);
      v["cache.tick_s"] = span_total_s(spans, "cache.tick");
    }
  }
  obs::attach(nullptr);
  return pass;
}

}  // namespace e2e
