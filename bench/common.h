// Shared helpers for the per-figure benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it
// builds the workload, runs the systems under comparison, and prints the
// same rows/series the paper plots. Absolute numbers depend on the
// latency models; the *shape* (who wins, by what factor, where crossovers
// fall) is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "baselines/switch_backend.h"
#include "report.h"
#include "sim/stats.h"
#include "workloads/trace.h"

namespace hermes::bench {

/// Process CPU time in ns, not wall clock: on a contended CI core,
/// preemption inflates wall-clock windows by milliseconds, which swamps
/// the tens-of-ns operations the microbenches measure. Falls back to the
/// steady clock where no process CPU clock exists.
inline std::int64_t cpu_now_ns() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// CPU ns per op since `start` (a cpu_now_ns() reading); 0 for no ops.
inline double ns_since(std::int64_t start, std::uint64_t ops) {
  std::int64_t elapsed = cpu_now_ns() - start;
  return ops == 0 ? 0.0
                  : static_cast<double>(elapsed) / static_cast<double>(ops);
}

/// Best-of-N repeated measurement: the min discards warmup and scheduler
/// noise, which otherwise swings single-shot runs enough to flake the CI
/// regression gate (the derived speedups divide two of these numbers).
template <typename F>
double best_of(int reps, F&& measure) {
  double best = measure();
  for (int i = 1; i < reps; ++i) best = std::min(best, measure());
  return best;
}

/// Replays a timestamped control-plane trace through a backend, invoking
/// tick() at `tick_every` so batches flush and Hermes epochs close.
/// Returns the backend's RIT samples in milliseconds.
inline std::vector<double> replay(baselines::SwitchBackend& sw,
                                  const workloads::RuleTrace& trace,
                                  Duration tick_every = from_millis(1)) {
  sw.clear_rit_samples();
  Time next_tick = tick_every;
  for (const workloads::RuleEvent& event : trace) {
    while (next_tick <= event.time) {
      sw.tick(next_tick);
      next_tick += tick_every;
    }
    sw.handle(event.time, event.mod);
  }
  Time end = trace.empty() ? tick_every : trace.back().time + tick_every;
  for (; next_tick <= end + tick_every; next_tick += tick_every)
    sw.tick(next_tick);
  std::vector<double> ms;
  ms.reserve(sw.rit_samples().size());
  for (Duration d : sw.rit_samples()) ms.push_back(to_millis(d));
  return ms;
}

inline std::vector<double> to_ms(const std::vector<Duration>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (Duration d : samples) ms.push_back(to_millis(d));
  return ms;
}

/// Prints a paper-style CDF block: one "value probability" row per line.
inline void print_cdf(const std::string& label,
                      const std::vector<double>& samples, int points = 10) {
  std::printf("  %s (n=%zu)\n", label.c_str(), samples.size());
  for (auto [value, prob] : sim::cdf(samples, points))
    std::printf("    %10.3f  %5.2f\n", value, prob);
}

inline void print_summary_line(const std::string& label,
                               const std::vector<double>& samples,
                               const std::string& unit) {
  sim::Summary s = sim::summarize(samples);
  std::printf("  %s\n", sim::format_summary(label, s, unit).c_str());
  // Mirror every printed summary into the machine-readable report so the
  // per-figure benches get BENCH_<name>.json rows without per-site code.
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("label", label)
        .label("unit", unit)
        .value("n", static_cast<double>(s.count))
        .value("min", s.min)
        .value("median", s.median)
        .value("mean", s.mean)
        .value("p95", s.p95)
        .value("p99", s.p99)
        .value("max", s.max);
  }
}

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace hermes::bench
