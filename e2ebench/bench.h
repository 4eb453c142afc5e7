// Shared pieces of the end-to-end benchmark: clocks, order statistics,
// the output digest, the metric catalog and the per-pass result record.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"

namespace hermes::obs {
class Registry;
}

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a over 64-bit words: the fingerprint of a pass's virtual-time
/// outputs (must not depend on wall time, tracing or worker count).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

enum class Kind { kEndToEnd, kLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  Kind kind;
};

struct WorkloadSpec {
  const char* name;
  const char* why;
};

/// Every metric the benchmark reports, in output order. run.py checks
/// BENCHMARK.json and README.md against this list (--list).
const std::vector<MetricSpec>& metric_catalog();
const std::vector<WorkloadSpec>& workload_catalog();

/// One whole-program pass of a workload: generate inputs, build the
/// system, run the timed phase, check the outputs.
struct Pass {
  double gen_s = 0;      ///< input generation
  double setup_s = 0;    ///< gen_s + building the system under test
  double timed_s = 0;    ///< wall time of the timed phase(s)
  /// Operations issued in the timed phase(s): flow-mods plus data-plane
  /// lookups (the numerator of ops_per_s).
  double ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< virtual-time outputs
  std::vector<std::string> errors;  ///< failed output checks
  /// Per-layer metrics by catalog name, plus workload outputs under
  /// other names. Span-derived metrics are filled on traced passes only.
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

using PassFn = Pass (*)(std::uint64_t seed, bool traced);

Pass run_te_sim(std::uint64_t seed, bool traced);
Pass run_cache_zipf(std::uint64_t seed, bool traced);
Pass run_fleet_drive(std::uint64_t seed, bool traced);

/// Peak resident set of the process so far, in MiB.
double peak_rss_mb();
/// Heap bytes currently allocated (malloc accounting).
double heap_bytes();

/// Per-layer metrics every workload reads from the process registry:
/// TCAM work per operation.
void registry_layers(const hermes::obs::Registry& registry,
                     std::map<std::string, double>& layer);

inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

using SpanStats = std::map<std::string, tracer::Stat>;

inline const tracer::Stat& span_stat(const SpanStats& stats,
                                     const std::string& name) {
  static const tracer::Stat kNone;
  auto it = stats.find(name);
  return it == stats.end() ? kNone : it->second;
}
inline double span_total_s(const SpanStats& stats, const std::string& name) {
  return static_cast<double>(span_stat(stats, name).total_ns) / 1e9;
}
inline double span_self_s(const SpanStats& stats, const std::string& name) {
  return static_cast<double>(span_stat(stats, name).self_ns) / 1e9;
}
inline double span_calls(const SpanStats& stats, const std::string& name) {
  return static_cast<double>(span_stat(stats, name).calls);
}
inline double span_quantile_ns(const SpanStats& stats,
                               const std::string& name, double q) {
  return quantile(span_stat(stats, name).durations_ns, q);
}

/// The SwitchBackend boundary's per-layer metrics, from TimedBackend
/// spans.
inline void backend_layers(const SpanStats& spans,
                           std::map<std::string, double>& layer) {
  layer["backend.handle_s"] = span_total_s(spans, "backend.handle");
  layer["backend.handle_calls"] = span_calls(spans, "backend.handle");
  layer["backend.handle_ns_p50"] =
      span_quantile_ns(spans, "backend.handle", 0.50);
  layer["backend.handle_ns_p99"] =
      span_quantile_ns(spans, "backend.handle", 0.99);
  layer["backend.tick_s"] = span_total_s(spans, "backend.tick");
  layer["backend.tick_calls"] = span_calls(spans, "backend.tick");
  layer["backend.tick_ns_p99"] = span_quantile_ns(spans, "backend.tick", 0.99);
}

/// splitmix64: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace e2e
