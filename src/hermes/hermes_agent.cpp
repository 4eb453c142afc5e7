#include "hermes/hermes_agent.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_set>

#include "obs/memory.h"

namespace hermes::core {

namespace {

// Physical piece ids live in their own namespace so they can never
// collide with controller-chosen logical ids (which we require < 2^32).
constexpr net::RuleId kPieceIdBase = net::RuleId{1} << 32;

}  // namespace

HermesAgent::HermesAgent(const tcam::SwitchModel& model,
                         int total_tcam_capacity, HermesConfig config)
    : config_(std::move(config)),
      asic_(model,
            [&] {
              int shadow = config_.shadow_capacity > 0
                               ? config_.shadow_capacity
                               : derive_shadow_capacity(model,
                                                        config_.guarantee);
              shadow = std::clamp(shadow, 1, total_tcam_capacity / 2);
              return std::vector<int>{shadow, total_tcam_capacity - shadow};
            }()),
      piece_id_counter_(kPieceIdBase) {
  int shadow = asic_.slice(kShadow).capacity();
  double rate = config_.token_rate > 0
                    ? config_.token_rate
                    : derive_admitted_rate(model, shadow,
                                           config_.expected_partitions,
                                           asic_.slice(kMain).capacity() / 2);
  double burst =
      config_.token_burst > 0 ? config_.token_burst : static_cast<double>(shadow);
  admitted_rate_ = rate;
  gate_keeper_ = std::make_unique<GateKeeper>(config_, rate, burst);

  auto predictor = make_predictor(config_.predictor);
  auto corrector = make_corrector(config_.corrector, config_.corrector_param);
  assert(predictor && corrector && "unknown predictor/corrector name");
  estimator_ = std::make_unique<GrowthEstimator>(std::move(predictor),
                                                 std::move(corrector));

  policy_ = make_migration_policy(config_);
  assert(policy_ && "unknown migration policy name");
  initial_shadow_capacity_ = shadow;
  expand_step_ = std::max(1, shadow / 8);
}

std::size_t HermesAgent::memory_bytes() const {
  return sizeof(*this) + asic_.memory_bytes() + store_.memory_bytes() +
         main_index_.memory_bytes() + shadow_index_.memory_bytes() +
         obs::heap_bytes(rit_samples_) + obs::heap_bytes(op_latency_samples_) +
         sizeof(GateKeeper) + sizeof(GrowthEstimator) +
         estimator_->memory_bytes();
}

int HermesAgent::derive_shadow_capacity(const tcam::SwitchModel& model,
                                        Duration guarantee) {
  // Inserting into a shadow table holding at most S-1 entries shifts at
  // most S-1 of them, so pick the largest S with insert_latency(S-1) <=
  // guarantee.
  return model.max_shifts_within(guarantee) + 1;
}

double HermesAgent::derive_admitted_rate(const tcam::SwitchModel& model,
                                         int shadow_capacity,
                                         double expected_partitions,
                                         int typical_main_occupancy) {
  // Equation 2: lambda = S_ST / (r_p * t_m), with t_m the time to drain a
  // full shadow table into the main table. Draining uses the optimized
  // batch write (Section 5.2, step 2), so t_m is one batch latency.
  double t_m = to_seconds(model.batch_insert_latency(typical_main_occupancy,
                                                     shadow_capacity));
  if (t_m <= 0) return 0;
  return static_cast<double>(shadow_capacity) /
         (expected_partitions * t_m);
}

int HermesAgent::shadow_capacity() const {
  return asic_.slice(kShadow).capacity();
}
int HermesAgent::main_capacity() const {
  return asic_.slice(kMain).capacity();
}
int HermesAgent::shadow_occupancy() const {
  return asic_.slice(kShadow).occupancy();
}
int HermesAgent::main_occupancy() const {
  return asic_.slice(kMain).occupancy();
}

double HermesAgent::tcam_overhead() const {
  return static_cast<double>(shadow_capacity()) /
         static_cast<double>(asic_.total_capacity());
}

int HermesAgent::main_min_priority() const {
  // The main table keeps its entries priority-sorted, so the bound is an
  // O(1) read off the bottom slot (0 when empty, as before).
  return asic_.slice(kMain).min_priority();
}

void HermesAgent::note_guaranteed_latency(Duration latency) {
  stats_.worst_guaranteed_latency =
      std::max(stats_.worst_guaranteed_latency, latency);
  if (latency > config_.guarantee) ++stats_.violations;
}

// --- Fault recovery -----------------------------------------------------------

void HermesAgent::note_retry(Time at, int slice, int attempt) {
  ++stats_.retries;
  obs_retries_.inc();
  ++retries_this_epoch_;
  obs::trace_event(obs::retry_event(at, slice, attempt));
}

HermesAgent::RetriedInsert HermesAgent::submit_insert_with_retry(
    Time now, int slice, const net::Rule& rule) {
  RetriedInsert r;
  r.completion = submit_insert(now, slice, rule, &r.last);
  r.total_latency = r.last.latency;
  if (r.last.ok || asic_.fault_plan() == nullptr) return r;
  Duration backoff = config_.insert_retry_backoff;
  for (int attempt = 1;
       attempt <= config_.insert_retry_limit && !r.last.ok; ++attempt) {
    Time at = r.completion + backoff;
    note_retry(at, slice, attempt);
    r.completion = submit_insert(at, slice, rule, &r.last);
    r.total_latency += r.last.latency;
    backoff = std::min(backoff * 2, config_.insert_retry_backoff_cap);
  }
  return r;
}

HermesAgent::RetriedInsert HermesAgent::place_whole_in_main(Time now,
                                                            net::RuleId lid) {
  const net::Rule original = store_.find(lid)->original;
  RetriedInsert r = submit_insert_with_retry(now, kMain, original);
  if (r.last.ok) store_.rebind(lid, Placement::kMain, {original.id}, false, {});
  return r;
}

HermesAgent::BatchWrite HermesAgent::write_batch(
    Time now, int slice, const std::vector<net::Rule>& rules,
    bool guaranteed) {
  BatchWrite w{0, now, 0};
  if (rules.empty()) return w;
  tcam::Asic::BatchResult result;
  w.done = asic_.submit_batch_insert(now, slice, rules, &result);
  w.first_latency = result.latency;
  w.landed = static_cast<std::size_t>(result.inserted);
  if (guaranteed) note_guaranteed_latency(result.latency);
  if (asic_.fault_plan() == nullptr) return w;
  Duration backoff = config_.insert_retry_backoff;
  for (int attempt = 1;
       attempt <= config_.insert_retry_limit && w.landed < rules.size();
       ++attempt) {
    Time at = w.done + backoff;
    note_retry(at, slice, attempt);
    std::vector<net::Rule> rest(
        rules.begin() + static_cast<std::ptrdiff_t>(w.landed), rules.end());
    w.done = asic_.submit_batch_insert(at, slice, rest, &result);
    if (guaranteed) note_guaranteed_latency(result.latency);
    w.landed += static_cast<std::size_t>(result.inserted);
    backoff = std::min(backoff * 2, config_.insert_retry_backoff_cap);
  }
  return w;
}

// --- Algorithm 1 cover -------------------------------------------------------

HermesAgent::Cover HermesAgent::cover(const net::Rule& rule) const {
  Cover c;
  c.cut = partition_new_rule(rule, main_index_, config_.merge_partitions);
  c.partitioned =
      !(c.cut.pieces.size() == 1 && c.cut.pieces[0] == rule.match);
  for (net::RuleId pid : c.cut.cut_against)
    if (auto lid = store_.logical_of(pid)) c.blockers.push_back(*lid);
  return c;
}

void HermesAgent::lay_pieces(const net::Rule& rule, const Cover& cover,
                             bool keep_id, std::vector<net::Rule>& out) {
  if (keep_id && !cover.partitioned) {
    out.push_back(rule);
    return;
  }
  std::vector<net::Rule> pieces =
      materialize_partitions(rule, cover.cut, piece_id_counter_);
  piece_id_counter_ += pieces.size();
  out.insert(out.end(), pieces.begin(), pieces.end());
}

// --- Control plane entry points ---------------------------------------------

Time HermesAgent::handle(Time now, const net::FlowMod& mod) {
  switch (mod.type) {
    case net::FlowModType::kInsert:
      return insert(now, mod.rule);
    case net::FlowModType::kDelete:
      return erase(now, mod.rule.id);
    case net::FlowModType::kModify:
      return modify(now, mod.rule);
  }
  return now;
}

Time HermesAgent::handle_batch(Time now, net::FlowModBatch& batch) {
  Time barrier = now;
  std::vector<std::size_t> run;
  std::unordered_set<net::RuleId> run_ids;
  auto flush = [&] {
    if (run.empty()) return;
    barrier = std::max(barrier, flush_insert_run(now, batch, run));
    run.clear();
    run_ids.clear();
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::FlowMod& mod = batch.mod(i);
    if (mod.type == net::FlowModType::kInsert &&
        !store_.contains(mod.rule.id) && run_ids.count(mod.rule.id) == 0) {
      run.push_back(i);
      run_ids.insert(mod.rule.id);
      continue;
    }
    // A delete/modify — or an insert with modify semantics — breaks the
    // run: flush buffered inserts first so batch order is preserved, then
    // apply this mod per-op.
    flush();
    bool existed = store_.contains(mod.rule.id);
    Time done = handle(now, mod);
    bool ok = mod.type == net::FlowModType::kInsert
                  ? store_.contains(mod.rule.id)
                  : existed;
    batch.complete(i, done, ok);
    barrier = std::max(barrier, done);
  }
  flush();
  return barrier;
}

Time HermesAgent::flush_insert_run(Time now, net::FlowModBatch& batch,
                                   const std::vector<std::size_t>& run) {
  if (run.size() == 1) {
    // Common case (and the fig01/fig09 workloads): identical to the
    // per-op entry point.
    std::size_t i = run.front();
    Time done = insert(now, batch.mod(i).rule);
    batch.complete(i, done, store_.contains(batch.mod(i).rule.id));
    return done;
  }

  std::vector<net::Rule> rules;
  rules.reserve(run.size());
  for (std::size_t i : run) {
    const net::Rule& rule = batch.mod(i).rule;
    assert(rule.id < kPieceIdBase && "logical rule ids must be < 2^32");
    rules.push_back(rule);
    ++stats_.inserts;
  }
  RouteContext ctx = route_context();
  std::vector<Route> routes =
      gate_keeper_->route_insert_batch(now, rules, ctx);

  // Cut every admitted rule against ONE main-table snapshot and lay its
  // pieces into ONE shadow batch: fallback main inserts are deferred until
  // after the batch, so main_index_ does not move under the planner.
  struct Admitted {
    std::size_t pos;  ///< index into run/rules
    bool partitioned;
    std::vector<net::RuleId> blockers;
  };
  std::vector<Admitted> admitted;
  SpanLedger ledger;
  std::vector<std::pair<std::size_t, bool>> fallback;  // (pos, violation)
  int shadow_free = ctx.shadow_free;
  for (std::size_t pos = 0; pos < run.size(); ++pos) {
    const net::Rule& rule = rules[pos];
    if (routes[pos] != Route::kGuaranteed) {
      fallback.emplace_back(pos, routes[pos] == Route::kMainShadowFull);
      continue;
    }
    Cover c = cover(rule);
    if (c.redundant()) {
      record_redundant(rule, std::move(c.blockers));
      batch.complete(run[pos], now, true);
      continue;
    }
    if (c.size() > shadow_free) {
      // Shadow cannot absorb the pieces: guarantee missed, fall back.
      ++stats_.violations;
      fallback.emplace_back(pos, false);
      continue;
    }
    shadow_free -= c.size();
    lay_pieces(rule, c, /*keep_id=*/true, ledger.batch);
    ledger.close_span();
    admitted.push_back({pos, c.partitioned, std::move(c.blockers)});
  }

  Time barrier = now;
  if (!ledger.batch.empty()) {
    // The batch write is one control-plane action on the TCAM: the
    // guarantee is judged on its channel occupation, like a migration
    // batch (and once more per suffix retry under faults).
    BatchWrite w = write_batch(now, kShadow, ledger.batch, /*guaranteed=*/true);
    obs_shadow_batch_pieces_.record(ledger.batch.size());
    stats_.worst_guaranteed_latency =
        std::max(stats_.worst_guaranteed_latency, w.done - now);
    std::vector<net::RuleId> rollback;
    for (std::size_t s = 0; s < admitted.size(); ++s) {
      Admitted& a = admitted[s];
      if (ledger.settle(s, [&](std::size_t i) { return i < w.landed; },
                        rollback) > 0) {
        // Only faults get here (capacity and duplicate ids are
        // pre-checked): a piece was still un-landed when the suffix
        // retries ran dry. Its landed siblings are rolled back below and
        // the rule falls back to the main table.
        ++stats_.violations;
        fallback.emplace_back(a.pos, false);
        continue;
      }
      std::span<const net::Rule> pieces = ledger.pieces(s);
      for (const net::Rule& piece : pieces) shadow_index_.insert(piece);
      commit_guaranteed(now, rules[a.pos], ledger.ids(s), a.partitioned,
                        std::move(a.blockers));
      // Amortize the batch channel occupation over its pieces so the
      // per-insert op-latency samples still sum to the channel time.
      record_rit(w.done - now,
                 static_cast<Duration>(
                     static_cast<std::uint64_t>(w.first_latency) *
                     pieces.size() / ledger.batch.size()));
      batch.complete(run[a.pos], w.done, true);
    }
    if (!rollback.empty()) asic_.submit_batch_delete(now, kShadow, rollback);
    barrier = std::max(barrier, w.done);
  }

  // Deferred main-table fallbacks, in batch order. Each one runs
  // repartition_shadow_overlaps, which restores joint-table equivalence
  // for any shadow rule the new main rule masks.
  for (const auto& [pos, violation] : fallback) {
    Time done = insert_to_main(now, rules[pos], violation);
    batch.complete(run[pos], done, store_.contains(rules[pos].id));
    barrier = std::max(barrier, done);
  }
  return barrier;
}

RouteContext HermesAgent::route_context() const {
  const tcam::TcamTable& shadow = asic_.slice(kShadow);
  const tcam::TcamTable& main = asic_.slice(kMain);
  RouteContext ctx;
  ctx.shadow_free = shadow.capacity() - shadow.occupancy();
  ctx.pieces_needed = 1;  // provisional; refined after partitioning
  ctx.main_min_priority = main_min_priority();
  ctx.main_empty = main.empty();
  ctx.main_full = main.full();
  return ctx;
}

void HermesAgent::record_redundant(const net::Rule& rule,
                                   std::vector<net::RuleId> blockers) {
  ++stats_.redundant_inserts;
  store_.add(
      LogicalRule{rule, Placement::kMain, {}, true, std::move(blockers)});
  record_rit(0, 0);
}

void HermesAgent::commit_guaranteed(Time now, const net::Rule& rule,
                                    std::vector<net::RuleId> piece_ids,
                                    bool partitioned,
                                    std::vector<net::RuleId> blockers) {
  const std::size_t pieces = piece_ids.size();
  const int blocker_count = static_cast<int>(blockers.size());
  store_.add(LogicalRule{rule, Placement::kShadow, std::move(piece_ids),
                         partitioned, std::move(blockers)});
  ++stats_.guaranteed_inserts;
  stats_.partition_pieces += pieces;
  arrivals_this_epoch_ += static_cast<double>(pieces);
  if (partitioned) {
    obs::trace_event(obs::partition_expand_event(
        now, static_cast<int>(pieces), blocker_count));
  }
}

Time HermesAgent::insert(Time now, const net::Rule& rule) {
  assert(rule.id < kPieceIdBase && "logical rule ids must be < 2^32");
  if (store_.contains(rule.id)) return modify(now, rule);
  ++stats_.inserts;

  RouteContext ctx = route_context();
  Route route = gate_keeper_->route_insert(now, rule, ctx);
  if (route != Route::kGuaranteed) {
    return insert_to_main(now, rule,
                          /*count_violation=*/route == Route::kMainShadowFull);
  }
  Cover c = cover(rule);
  if (c.redundant()) {
    record_redundant(rule, std::move(c.blockers));
    return now;
  }
  if (c.size() > ctx.shadow_free) {
    // Shadow cannot absorb the pieces: guarantee missed, fall back.
    ++stats_.violations;
    return insert_to_main(now, rule, /*count_violation=*/false);
  }
  std::vector<net::Rule> pieces;
  lay_pieces(rule, c, /*keep_id=*/true, pieces);

  // Per-piece writes: each piece is its own guaranteed TCAM action.
  Time completion = now;
  Duration op_latency = 0;
  Duration worst_piece = 0;
  std::vector<net::RuleId> piece_ids;
  piece_ids.reserve(pieces.size());
  bool exhausted = false;
  for (const net::Rule& piece : pieces) {
    RetriedInsert r = submit_insert_with_retry(now, kShadow, piece);
    completion = r.completion;
    op_latency += r.total_latency;
    worst_piece = std::max(worst_piece, r.total_latency);
    // Only a fault plan can fail a piece here (capacity is pre-checked and
    // piece ids are unique); fault-free, every piece lands as before.
    if (!r.last.ok && asic_.fault_plan() != nullptr) {
      exhausted = true;
      break;
    }
    piece_ids.push_back(piece.id);
  }

  if (exhausted) {
    // Retries ran dry on the shadow slice: undo the landed siblings and
    // fall through per policy. The guarantee is missed either way.
    for (net::RuleId pid : piece_ids) {
      if (const net::Rule* p = asic_.slice(kShadow).find_ptr(pid))
        shadow_index_.erase(pid, p->match);
    }
    completion =
        std::max(completion,
                 asic_.submit_batch_delete(completion, kShadow, piece_ids));
    ++stats_.violations;
    if (config_.reject_on_retry_exhaustion) {
      ++stats_.failed_ops;
      record_rit(completion - now, op_latency);
      return completion;
    }
    return insert_to_main(completion, rule, /*count_violation=*/false,
                          /*arrival=*/now);
  }
  commit_guaranteed(now, rule, std::move(piece_ids), c.partitioned,
                    std::move(c.blockers));

  // The guarantee is per control-plane ACTION on the TCAM: a partitioned
  // insert is several actions, each individually bounded by the shadow
  // size. Violations are judged per action (overflow fallbacks are
  // counted separately at the routing layer).
  Duration latency = completion - now;
  note_guaranteed_latency(worst_piece);
  stats_.worst_guaranteed_latency =
      std::max(stats_.worst_guaranteed_latency, latency);
  record_rit(latency, op_latency);
  return completion;
}

Time HermesAgent::insert_to_main(Time now, const net::Rule& rule,
                                 bool count_violation, Time arrival) {
  RetriedInsert r = submit_insert_with_retry(now, kMain, rule);
  Time completion = r.completion;
  if (!r.last.ok) {
    ++stats_.failed_ops;
    return completion;
  }
  store_.add(LogicalRule{rule, Placement::kMain, {rule.id}, false, {}});
  ++stats_.main_inserts;
  if (count_violation) ++stats_.violations;
  record_rit(completion - (arrival >= 0 ? arrival : now), r.total_latency);
  // A rule landing in main can shadow-mask lower-priority shadow rules
  // (the mirror of Figure 4): cut them now.
  repartition_shadow_overlaps(now, rule);
  return completion;
}

Time HermesAgent::erase(Time now, net::RuleId logical_id) {
  ++stats_.deletes;
  const LogicalRule* lr = store_.find(logical_id);
  if (!lr) {
    ++stats_.failed_ops;
    return now;
  }
  Time completion = now;
  if (lr->placement == Placement::kMain) {
    // Un-index the blocker first so dependents re-partition against the
    // post-delete main table, then restore them (insert-before-delete
    // inside repartition_logical keeps per-packet consistency), and only
    // then remove the physical entries.
    std::vector<net::RuleId> pieces = lr->physical_ids;
    for (net::RuleId pid : pieces) {
      if (const net::Rule* rule = asic_.slice(kMain).find_ptr(pid))
        main_index_.erase(pid, rule->match);
    }
    unpartition_dependents(now, logical_id);
    for (net::RuleId pid : pieces) {
      net::FlowMod del{net::FlowModType::kDelete, net::Rule{pid, 0, {}, {}}};
      completion = asic_.submit(now, kMain, del);
    }
  } else {
    for (net::RuleId pid : lr->physical_ids)
      completion = std::max(completion, drop_piece(now, kShadow, pid));
  }
  store_.remove(logical_id);
  return completion;
}

Time HermesAgent::modify(Time now, const net::Rule& rule) {
  ++stats_.modifies;
  LogicalRule* lr = store_.find_mutable(rule.id);
  if (!lr) {
    ++stats_.failed_ops;
    return now;
  }
  if (rule.priority == lr->original.priority &&
      rule.match == lr->original.match) {
    // Action-only change: constant-time in-place rewrite of every piece
    // (Section 2.1.1 / 4.1).
    Time completion = now;
    int slice_idx = lr->placement == Placement::kShadow ? kShadow : kMain;
    OverlapIndex& index = index_of(slice_idx);
    for (net::RuleId pid : lr->physical_ids) {
      auto piece = asic_.slice(slice_idx).find(pid);
      if (!piece) continue;
      net::Rule updated = *piece;
      updated.action = rule.action;
      net::FlowMod mod{net::FlowModType::kModify, updated};
      completion = asic_.submit(now, slice_idx, mod);
      index.erase(pid, piece->match);
      index.insert(updated);
    }
    lr->original.action = rule.action;
    return completion;
  }
  // Match or priority change: delete + insert (Section 4.1).
  Time deleted = erase(now, rule.id);
  Time inserted = insert(now, rule);
  return std::max(deleted, inserted);
}

// --- Correctness maintenance --------------------------------------------------

void HermesAgent::repartition_shadow_overlaps(Time now,
                                              const net::Rule& main_rule) {
  std::vector<net::RuleId> logicals;
  shadow_index_.for_each_overlapping(
      main_rule.match, std::numeric_limits<int>::min(),
      [&](const net::Rule& piece) {
        if (piece.priority >= main_rule.priority) return true;
        if (auto lid = store_.logical_of(piece.id)) {
          if (std::find(logicals.begin(), logicals.end(), *lid) ==
              logicals.end())
            logicals.push_back(*lid);
        }
        return true;
      });
  for (net::RuleId lid : logicals) {
    repartition_logical(now, lid);
    ++stats_.repartitions;
  }
}

void HermesAgent::repartition_logical(Time now, net::RuleId logical_id) {
  LogicalRule* lr = store_.find_mutable(logical_id);
  if (!lr) return;
  const Placement placement = lr->placement;
  const int slice = placement == Placement::kShadow ? kShadow : kMain;
  const net::Rule original = lr->original;
  const std::vector<net::RuleId> old_pieces = lr->physical_ids;
  Cover c = cover(original);

  // No-op fast path: if the recomputed cover equals the installed one,
  // only refresh the dependency edges — no TCAM churn. (Without this,
  // repeated triggers — e.g. a rule repeatedly skipped by migration —
  // would delete and reinsert identical pieces forever.)
  {
    std::vector<net::Prefix> current;
    current.reserve(old_pieces.size());
    for (net::RuleId pid : old_pieces)
      if (const net::Rule* rule = asic_.slice(slice).find_ptr(pid))
        current.push_back(rule->match);
    std::vector<net::Prefix> target = c.cut.pieces;
    std::sort(current.begin(), current.end());
    std::sort(target.begin(), target.end());
    if (current == target && current.size() == old_pieces.size()) {
      store_.rebind(logical_id, placement, old_pieces, lr->partitioned,
                    std::move(c.blockers));
      return;
    }
  }

  std::vector<net::Rule> new_pieces;
  lay_pieces(original, c, /*keep_id=*/false, new_pieces);

  // Insert the replacement pieces first, then delete the old ones: at
  // every instant each packet matches either the old or the new cover.
  // Fault-free every write lands (an organic failure cannot happen here).
  std::vector<net::RuleId> new_ids;
  new_ids.reserve(new_pieces.size());
  for (const net::Rule& piece : new_pieces) {
    if (!submit_insert_with_retry(now, slice, piece).last.ok &&
        asic_.fault_plan() != nullptr) {
      // Retries ran dry: a short cover would leave holes, so roll the new
      // pieces back and place the rule whole in main instead — the
      // insert_to_main fallback, re-cutting the shadow rules it masks.
      for (net::RuleId pid : new_ids) drop_piece(now, slice, pid);
      bool placed = place_whole_in_main(now, logical_id).last.ok;
      for (net::RuleId pid : old_pieces) drop_piece(now, slice, pid);
      if (!placed) {
        // Gone from the data plane: stop pretending otherwise.
        unpartition_dependents(now, logical_id);
        store_.remove(logical_id);
        ++stats_.failed_ops;
        return;
      }
      ++stats_.main_inserts;
      repartition_shadow_overlaps(now, original);
      return;
    }
    new_ids.push_back(piece.id);
  }
  for (net::RuleId pid : old_pieces) drop_piece(now, slice, pid);
  store_.rebind(logical_id, placement, std::move(new_ids), c.partitioned,
                std::move(c.blockers));
}

// --- Physical mutation helpers -------------------------------------------------

Time HermesAgent::submit_insert(Time now, int slice, const net::Rule& rule,
                                tcam::ApplyResult* result) {
  Time done =
      asic_.submit(now, slice, {net::FlowModType::kInsert, rule}, result);
  if (result->ok) index_of(slice).insert(rule);
  return done;
}

Time HermesAgent::drop_piece(Time now, int slice, net::RuleId id) {
  const net::Rule* piece = asic_.slice(slice).find_ptr(id);
  if (!piece) return now;
  index_of(slice).erase(id, piece->match);
  net::FlowMod del{net::FlowModType::kDelete, net::Rule{id, 0, {}, {}}};
  return asic_.submit(now, slice, del);
}

}  // namespace hermes::core
