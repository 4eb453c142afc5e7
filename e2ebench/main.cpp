// End-to-end benchmark: command line, pass loop and reporting.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//   e2ebench --list
//
// One run repeats whole passes of the workload (generate inputs, build
// the system, run the timed phase, check outputs) until the timed phases
// add up to --seconds, and reports medians over the passes. Passes cycle
// through kDraws inputs derived from the seed, so a run's medians average
// over several draws of the workload instead of hanging on one. The last
// line of stdout is the JSON result: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.
//
// The traced run alternates untraced and traced passes: the per-layer
// metrics come from the traced ones, trace.overhead_frac compares the
// two, and every pass of one input must produce bit-identical
// virtual-time outputs (the digest), traced or not.
#include <sys/resource.h>

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "tracer.h"

namespace e2e {

const std::vector<MetricSpec>& metric_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      // End to end: reported by every workload on untraced runs.
      {"setup_s", "s", "lower", Kind::kEndToEnd},
      {"ops_per_s", "1/s", "higher", Kind::kEndToEnd},
      {"peak_rss_mb", "MB", "lower", Kind::kEndToEnd},
      // Per layer: reported by every workload on traced runs; 0 where
      // the workload does not reach the layer.
      {"workloads.gen_s", "s", "lower", Kind::kLayer},
      {"trace.overhead_frac", "ratio", "lower", Kind::kLayer},
      {"sim.sim_rate", "s/s", "higher", Kind::kLayer},
      {"sim.self_s", "s", "lower", Kind::kLayer},
      {"sim.events", "count", "lower", Kind::kLayer},
      {"update.commit_ratio", "ratio", "higher", Kind::kLayer},
      {"sim.fct_p50_s", "s", "lower", Kind::kLayer},
      {"sim.fct_p99_s", "s", "lower", Kind::kLayer},
      {"backend.handle_s", "s", "lower", Kind::kLayer},
      {"backend.handle_calls", "count", "lower", Kind::kLayer},
      {"backend.handle_ns_p50", "ns", "lower", Kind::kLayer},
      {"backend.handle_ns_p99", "ns", "lower", Kind::kLayer},
      {"backend.tick_s", "s", "lower", Kind::kLayer},
      {"backend.tick_calls", "count", "lower", Kind::kLayer},
      {"backend.tick_ns_p99", "ns", "lower", Kind::kLayer},
      {"hermes.rit_p50_ms", "ms", "lower", Kind::kLayer},
      {"hermes.rit_p99_ms", "ms", "lower", Kind::kLayer},
      {"tcam.shifts_per_insert", "ratio", "lower", Kind::kLayer},
      {"tcam.buckets_per_lookup", "ratio", "lower", Kind::kLayer},
      {"fleet.mods_per_s_1t", "1/s", "higher", Kind::kLayer},
      {"fleet.mods_per_s_parallel", "1/s", "higher", Kind::kLayer},
      {"fleet.post_s", "s", "lower", Kind::kLayer},
      {"fleet.join_wait_s", "s", "lower", Kind::kLayer},
      {"fleet.backend_ns_per_mod_1t", "ns", "lower", Kind::kLayer},
      {"fleet.backend_ns_per_mod_nt", "ns", "lower", Kind::kLayer},
      {"fleet.parallel_efficiency", "ratio", "higher", Kind::kLayer},
      {"fleet.bytes_per_switch", "B", "lower", Kind::kLayer},
      {"cache.install_s", "s", "lower", Kind::kLayer},
      {"cache.classify_s", "s", "lower", Kind::kLayer},
      {"cache.classify_ns_p50", "ns", "lower", Kind::kLayer},
      {"cache.classify_ns_p99", "ns", "lower", Kind::kLayer},
      {"cache.tick_s", "s", "lower", Kind::kLayer},
      {"cache.pkts_per_s", "1/s", "higher", Kind::kLayer},
      {"cache.hit_ratio", "ratio", "higher", Kind::kLayer},
      {"cache.promotion_yield", "ratio", "higher", Kind::kLayer},
      {"cache.closure_size_p99", "count", "lower", Kind::kLayer},
      {"cache.bytes_per_rule", "B", "lower", Kind::kLayer},
  };
  return kCatalog;
}

const std::vector<WorkloadSpec>& workload_catalog() {
  static const std::vector<WorkloadSpec> kCatalog = {
      {"te_sim",
       "the paper's Fig. 9 TE experiment: sim solver, event queue and "
       "consistent updates over 320 Hermes switches"},
      {"cache_zipf",
       "FDRC rule caching: read-heavy Zipf classify stream with churn, "
       "dominated by the cache's dependency closure"},
      {"fleet_drive",
       "write-only batched installs over 4096 Hermes agents, inline and "
       "sharded: per-agent obs and fleet dispatch"},
  };
  return kCatalog;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double heap_bytes() {
  // Chunks glibc serves with mmap (large arrays) count too.
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

void registry_layers(const hermes::obs::Registry& registry,
                     std::map<std::string, double>& layer) {
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter_value(name));
  };
  layer["tcam.shifts_per_insert"] =
      ratio(counter("tcam.shifts"), counter("tcam.inserts"));
  layer["tcam.buckets_per_lookup"] =
      registry.histogram_summary("tcam.lookup.buckets_probed").mean;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool list = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       e2ebench --list\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* rest = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &rest, 10);
      if (*rest != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &rest);
      if (*rest != '\0' || !(a.seconds > 0) || a.seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.list && !have_workload) usage("--workload is required");
  return a;
}

PassFn find_workload(const std::string& name) {
  if (name == "te_sim") return run_te_sim;
  if (name == "cache_zipf") return run_cache_zipf;
  if (name == "fleet_drive") return run_fleet_drive;
  return nullptr;
}

void print_list() {
  for (const WorkloadSpec& w : workload_catalog())
    std::printf("workload %s %s\n", w.name, w.why);
  for (const MetricSpec& m : metric_catalog())
    std::printf("metric %s %s %s %s\n",
                m.kind == Kind::kEndToEnd ? "end_to_end" : "per_layer",
                m.name, m.unit, m.better);
}

void json_metric(std::string& out, const char* name, double value,
                 const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Args args = parse(argc, argv);
  if (args.list) {
    print_list();
    return 0;
  }
  PassFn run = find_workload(args.workload);
  if (run == nullptr) usage(("unknown workload " + args.workload).c_str());

  // Odd, so that alternating untraced and traced passes run every input
  // both ways.
  constexpr std::size_t kDraws = 5;
  struct Seen {
    std::uint64_t digest;
    bool traced;
  };
  std::map<std::size_t, Seen> seen;  // draw -> first pass's digest
  std::vector<Pass> plain, traced;
  double timed_total = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::set<std::string> errors;  // failed output checks, deduplicated
  auto run_pass = [&](std::size_t index, bool trace_this) {
    const std::size_t draw = index % kDraws;
    tracer::enable(trace_this);
    Pass p = run(mix_seed(args.seed, 100 + draw), trace_this);
    tracer::enable(false);
    attempted += p.attempted;
    failed += p.failed;
    errors.insert(p.errors.begin(), p.errors.end());
    // Self-test: virtual-time outputs are a function of the input alone.
    auto [it, first] = seen.try_emplace(draw, Seen{p.digest, trace_this});
    if (!first && it->second.digest != p.digest)
      errors.insert(it->second.traced == trace_this
                        ? "virtual-time outputs differ between passes"
                        : "virtual-time outputs differ with tracing on");
    std::fprintf(stderr,
                 "pass %zu%s: input %zu, setup %.3f s, timed %.3f s, "
                 "digest %016llx\n",
                 index, trace_this ? " (traced)" : "", draw, p.setup_s,
                 p.timed_s, static_cast<unsigned long long>(p.digest));
    return p;
  };
  // Pass 0 is a warm-up, checked but left out of every median: the first
  // pass in a process also pays for page faults and cold caches. Then at
  // least three passes of each kind, so every median has company.
  run_pass(0, false);
  const std::size_t min_passes = 3;
  while (timed_total < args.seconds || plain.size() < min_passes ||
         (args.trace && traced.size() < min_passes)) {
    const bool trace_this = args.trace && traced.size() < plain.size();
    Pass p = run_pass(1 + plain.size() + traced.size(), trace_this);
    timed_total += p.timed_s;
    (trace_this ? traced : plain).push_back(std::move(p));
  }

  auto med = [](const std::vector<Pass>& ps, auto field) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(field(p));
    return median(v);
  };
  auto med_value = [&](const std::vector<Pass>& ps, const std::string& name) {
    return med(ps, [&](const Pass& p) {
      auto it = p.values.find(name);
      return it == p.values.end() ? 0.0 : it->second;
    });
  };
  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size());
  for (const auto& [draw, first] : seen)
    std::printf("  input %zu digest %016llx\n", draw,
                static_cast<unsigned long long>(first.digest));
  std::printf("  timed %.4f s median per pass\n",
              med(plain, [](const Pass& p) { return p.timed_s; }));
  // Everything measured without tracing, medians over the untraced passes.
  for (const auto& entry : plain.front().values)
    std::printf("  %-32s %.10g\n", entry.first.c_str(),
                med_value(plain, entry.first));

  std::string metrics;
  if (!args.trace) {
    auto end_to_end = [&](const std::string& name) {
      if (name == "setup_s")
        return med(plain, [](const Pass& p) { return p.setup_s; });
      if (name == "ops_per_s")
        return med(plain, [](const Pass& p) { return ratio(p.ops, p.timed_s); });
      return peak_rss_mb();
    };
    for (const MetricSpec& m : metric_catalog())
      if (m.kind == Kind::kEndToEnd)
        json_metric(metrics, m.name, end_to_end(m.name), m.unit);
  } else {
    const double plain_s = med(plain, [](const Pass& p) { return p.timed_s; });
    const double traced_s = med(traced, [](const Pass& p) { return p.timed_s; });
    for (const MetricSpec& m : metric_catalog()) {
      if (m.kind != Kind::kLayer) continue;
      double value = 0;
      if (std::strcmp(m.name, "trace.overhead_frac") == 0)
        value = ratio(traced_s, plain_s) - 1.0;
      else if (std::strcmp(m.name, "workloads.gen_s") == 0)
        value = med(traced, [](const Pass& p) { return p.gen_s; });
      else
        value = med_value(traced, m.name);
      json_metric(metrics, m.name, value, m.unit);
      std::printf("  layer %-32s %.6g %s\n", m.name, value, m.unit);
    }
    if (!args.trace_out.empty() && !tracer::write_chrome_trace(args.trace_out))
      errors.insert("cannot write " + args.trace_out);
  }

  for (const std::string& e : errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return errors.empty() ? 0 : 1;
}
