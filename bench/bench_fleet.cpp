// Fleet-scale sharded controller throughput: drives the FleetController
// directly with a TE-shaped flow-mod stream (per-switch install batches
// followed by partial teardown deletes and a maintenance tick) across
// fleet sizes and thread counts, measuring wall-clock flow-mods/sec and
// the parallel speedup over the sequential (1-thread, inline) mode.
//
// Two kinds of output, deliberately separated:
//
//   * rows — wall-clock mods/sec and speedup_vs_1t per (switches,
//     threads) cell. Machine-dependent; never regression-gated.
//   * derived — gated in CI against bench/baselines/BENCH_fleet.json:
//       fleet_determinism_rate   fraction of parallel cells whose result
//                                hash matches the 1-thread oracle (1.0)
//       fleet_virtual_mods_per_s mods per simulated second at the
//                                largest fleet size
//       bytes_per_switch_empty   HermesBackend::memory_bytes() summed over
//       bytes_per_switch_loaded  the largest fleet before the first round
//                                and after the last, per switch
//       fleet_1t_scale_flatness  1-thread mods/s at the largest fleet over
//                                1-thread mods/s at 512 switches
//     The first four are virtual time or counted bytes: exact on any
//     machine for a given standard library (DESIGN.md "Sharded controller
//     core", "Per-switch memory accounting"). The flatness is a ratio of
//     two wall-clock cells on the same machine; its baseline is the
//     minimum over 5 smoke runs, like the other wall-clock baselines.
//
// Usage: bench_fleet [--smoke] [output.json]
//   (default output: BENCH_fleet.json; --smoke shrinks the sweep to CI
//    scale: 512 switches on 1/2/4/8 threads plus 4096 switches on one
//    thread, 2 rounds each)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "baselines/hermes_backend.h"
#include "net/flow_mod_batch.h"
#include "report.h"
#include "sim/fleet.h"
#include "tcam/switch_model.h"

namespace hermes::bench {
namespace {

struct DriveResult {
  std::uint64_t hash = 0;   ///< FNV-1a over every batch result slot
  Time makespan = 0;        ///< latest virtual completion across the fleet
  std::uint64_t mods = 0;   ///< total flow-mods issued (inserts + deletes)
  double wall_ms = 0.0;     ///< wall clock of the timed drive
  std::size_t bytes_empty = 0;   ///< fleet memory_bytes() before round 1
  std::size_t bytes_loaded = 0;  ///< fleet memory_bytes() after the last
};

std::size_t fleet_bytes(
    const std::vector<std::unique_ptr<baselines::HermesBackend>>& backends) {
  std::size_t total = 0;
  for (const auto& b : backends) total += b->memory_bytes();
  return total;
}

net::Rule synth_rule(net::RuleId id, std::mt19937_64& rng) {
  int priority = static_cast<int>(rng() % 1024);
  auto addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  int length = 8 + static_cast<int>(rng() % 17);  // /8 .. /24
  return net::Rule{id, priority, net::Prefix(addr, length),
                   net::forward_to(static_cast<int>(rng() % 16))};
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ULL;
}

/// One full drive: `rounds` rounds of per-switch install batches of
/// `batch_size` fresh rules, each followed by deletes of half the round's
/// rules and one fleet-wide tick. The per-(switch, round) rule streams
/// are generated up front (outside the timer) so the timed region is
/// post + execute + join — the controller core, not the workload
/// generator.
DriveResult drive(int switches, int threads, int rounds, int batch_size) {
  std::vector<std::unique_ptr<baselines::HermesBackend>> backends;
  backends.reserve(static_cast<std::size_t>(switches));
  sim::FleetController fleet(threads);
  for (int sw = 0; sw < switches; ++sw) {
    backends.push_back(std::make_unique<baselines::HermesBackend>(
        tcam::pica8_p3290(), 4000));
    fleet.add_switch(sw, backends.back().get());
  }
  DriveResult out;
  out.bytes_empty = fleet_bytes(backends);
  fleet.start();

  // Pre-generate every round's install and teardown batches. Rule streams
  // depend only on (switch, round), so every thread count sees the
  // identical workload; the timed region below is pure controller work.
  std::vector<std::vector<net::FlowModBatch>> round_batches(
      static_cast<std::size_t>(rounds));
  std::vector<std::vector<net::FlowModBatch>> round_deletes(
      static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    auto& batches = round_batches[static_cast<std::size_t>(r)];
    auto& deletes = round_deletes[static_cast<std::size_t>(r)];
    batches.resize(static_cast<std::size_t>(switches));
    deletes.resize(static_cast<std::size_t>(switches));
    for (int sw = 0; sw < switches; ++sw) {
      std::mt19937_64 rng(0xF1EE7 ^ (static_cast<std::uint64_t>(sw) << 20) ^
                          static_cast<std::uint64_t>(r));
      auto& batch = batches[static_cast<std::size_t>(sw)];
      batch.reserve(static_cast<std::size_t>(batch_size));
      for (int k = 0; k < batch_size; ++k)
        batch.insert(synth_rule(
            static_cast<net::RuleId>(r * batch_size + k + 1), rng));
      // Tear down half the round's rules in one transaction (the batched
      // control plane is the paper-style fast path; singleton kMod posts
      // are covered by the fleet determinism tests).
      auto& del = deletes[static_cast<std::size_t>(sw)];
      del.reserve(static_cast<std::size_t>(batch_size / 2));
      for (int k = 0; k < batch_size / 2; ++k)
        del.erase(static_cast<net::RuleId>(r * batch_size + 2 * k + 1));
    }
  }

  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    Time now = from_millis(r + 1);
    auto& batches = round_batches[static_cast<std::size_t>(r)];
    for (int sw = 0; sw < switches; ++sw)
      fleet.post_batch(now, sw, &batches[static_cast<std::size_t>(sw)]);
    fleet.join();

    // Results are readable after the barrier; hash them in control-plane
    // program order so the digest is part of the determinism contract.
    for (int sw = 0; sw < switches; ++sw) {
      const auto& batch = batches[static_cast<std::size_t>(sw)];
      for (std::size_t slot = 0; slot < batch.size(); ++slot) {
        const net::ModResult& result = batch.result(slot);
        fnv_mix(out.hash, static_cast<std::uint64_t>(result.status));
        fnv_mix(out.hash, static_cast<std::uint64_t>(result.completion));
        if (result.completion > out.makespan) out.makespan = result.completion;
      }
      out.mods += batch.size();
    }

    // Tear down half the round's rules, then run one maintenance tick
    // across the fleet before the next round.
    Time teardown = now + from_micros(500);
    auto& deletes = round_deletes[static_cast<std::size_t>(r)];
    for (int sw = 0; sw < switches; ++sw) {
      fleet.post_batch(teardown, sw, &deletes[static_cast<std::size_t>(sw)]);
      out.mods += deletes[static_cast<std::size_t>(sw)].size();
    }
    fleet.post_tick(now + from_micros(900));
    fleet.join();
    for (int sw = 0; sw < switches; ++sw) {
      const auto& del = deletes[static_cast<std::size_t>(sw)];
      for (std::size_t slot = 0; slot < del.size(); ++slot) {
        const net::ModResult& result = del.result(slot);
        fnv_mix(out.hash, static_cast<std::uint64_t>(result.status));
        fnv_mix(out.hash, static_cast<std::uint64_t>(result.completion));
        if (result.completion > out.makespan) out.makespan = result.completion;
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  fleet.stop();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.bytes_loaded = fleet_bytes(backends);
  return out;
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  using namespace hermes::bench;
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  auto& rep = report::open("fleet", "mods_per_sec");
  unsigned cores = std::thread::hardware_concurrency();
  std::printf("fleet-scale sharded controller%s (%u hardware threads)\n",
              smoke ? " [smoke]" : "", cores);
  std::printf("wall-clock rows are machine-dependent; only the derived "
              "metrics gate in CI\n");
  if (cores < 8)
    std::printf("note: fewer than 8 cores — speedup_vs_1t cannot reach its "
                "multi-core values on this machine\n");
  std::printf("\n");

  const std::vector<int> sizes =
      smoke ? std::vector<int>{512, 4096}
            : std::vector<int>{512, 1024, 2048, 4096};
  const std::vector<int> all_threads{1, 2, 4, 8};
  const int rounds = smoke ? 2 : 8;
  const int batch_size = 32;

  int cells = 0;
  int identical = 0;
  double virtual_rate = 0.0;
  double rate_512_1t = 0.0;
  double rate_largest_1t = 0.0;
  double bytes_empty = 0.0;
  double bytes_loaded = 0.0;
  for (int switches : sizes) {
    DriveResult oracle{};
    double base_rate = 0.0;
    // The smoke run's largest fleet is one 1-thread cell: it feeds the
    // memory and flatness metrics, and the 512-switch sweep already
    // covers the parallel determinism check.
    const bool one_thread = smoke && switches == sizes.back();
    for (int threads : one_thread ? std::vector<int>{1} : all_threads) {
      DriveResult r = drive(switches, threads, rounds, batch_size);
      double rate = r.wall_ms > 0.0
                        ? static_cast<double>(r.mods) / (r.wall_ms / 1e3)
                        : 0.0;
      if (threads == 1) {
        oracle = r;
        base_rate = rate;
      } else {
        ++cells;
        if (r.hash == oracle.hash && r.makespan == oracle.makespan)
          ++identical;
      }
      double speedup = base_rate > 0.0 ? rate / base_rate : 0.0;
      std::printf("  switches=%5d threads=%d  mods=%8llu  wall=%9.1f ms  "
                  "%12.0f mods/s  speedup=%.2fx\n",
                  switches, threads,
                  static_cast<unsigned long long>(r.mods), r.wall_ms, rate,
                  speedup);
      rep.row()
          .label("cell", std::to_string(switches) + "sw_x_" +
                             std::to_string(threads) + "t")
          .value("switches", switches)
          .value("threads", threads)
          .value("mods", static_cast<double>(r.mods))
          .value("wall_ms", r.wall_ms)
          .value("mods_per_sec", rate)
          .value("speedup_vs_1t", speedup);
      if (threads == 1 && switches == 512) rate_512_1t = rate;
      // Virtual-time throughput and per-switch bytes at the largest size,
      // from the 1-thread oracle: virtual arithmetic and counted bytes,
      // reproducible everywhere.
      if (threads == 1 && switches == sizes.back()) {
        virtual_rate =
            static_cast<double>(r.mods) / hermes::to_seconds(oracle.makespan);
        rate_largest_1t = rate;
        bytes_empty = static_cast<double>(r.bytes_empty) / switches;
        bytes_loaded = static_cast<double>(r.bytes_loaded) / switches;
      }
    }
  }

  rep.derived("fleet_determinism_rate",
              cells > 0 ? static_cast<double>(identical) / cells : 0.0);
  rep.derived("fleet_virtual_mods_per_s", virtual_rate);
  const double flatness =
      rate_512_1t > 0.0 ? rate_largest_1t / rate_512_1t : 0.0;
  rep.derived("bytes_per_switch_empty", bytes_empty);
  rep.derived("bytes_per_switch_loaded", bytes_loaded);
  rep.derived("fleet_1t_scale_flatness", flatness);
  std::printf("\ndeterminism: %d/%d parallel cells bit-identical to the "
              "1-thread oracle; virtual rate %.0f mods/s\n",
              identical, cells, virtual_rate);
  std::printf("memory at %d switches: %.0f B/switch empty, %.0f B/switch "
              "loaded; 1-thread scale flatness %.2f\n",
              sizes.back(), bytes_empty, bytes_loaded, flatness);
  rep.write(out_path);
  return identical == cells ? 0 : 1;
}
