#include "qfix/qfix.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string_view>

#include "common/strings.h"
#include "common/timer.h"
#include "ingest/encoding_cache.h"
#include "obs/trace.h"
#include "relational/executor.h"

namespace qfix {
namespace qfixcore {

using relational::Database;
using relational::Query;
using relational::QueryLog;
using relational::QueryType;

namespace {

/// Rounds repaired parameters that are within `tol` of an integer when
/// the instance is integral (epsilon == 0.5 signals integral data). MILP
/// solutions sit at constraint boundaries, so a repaired threshold of
/// 86499.999999974 must not flip a >= comparison during exact replay.
void SnapIntegralParams(QueryLog& log, const EncodedProblem& problem,
                        double tol = 1e-5) {
  if (problem.epsilon != 0.5) return;
  for (const ParamVarInfo& info : problem.params) {
    Query& q = log[info.query_index];
    double v = q.GetParam(info.ref);
    double r = std::round(v);
    if (v != r && std::fabs(v - r) < tol) q.SetParam(info.ref, r);
  }
}

/// The solver time limit for a solve capped at `cap` seconds (<= 0: no
/// cap) under `deadline`, or nullopt once the deadline has passed: the
/// solver reads a limit of 0 as "none", so an expired deadline must stop
/// the caller instead of starting a solve.
std::optional<double> SolveBudget(const Deadline& deadline, double cap) {
  const double remaining = deadline.RemainingSeconds();
  if (remaining <= 0.0) return std::nullopt;
  return cap > 0.0 ? std::min(remaining, cap) : remaining;
}

/// Solves `model` under a `phase` trace span (nested under the options'
/// trace parent), charging its wall time and search effort — nodes, LP
/// iterations, incumbent updates — to `stats`.
milp::MilpSolution TimedSolve(const milp::Model& model,
                              milp::MilpOptions options,
                              std::string_view phase, RepairStats* stats) {
  obs::TraceContext* trace = options.trace;
  size_t span = obs::TraceContext::kDroppedSpan;
  if (trace != nullptr) {
    span = trace->BeginSpan(phase, options.trace_parent_span);
    // Solver-internal spans (presolve/root_lp/node_batch/...) nest
    // under this solve's span.
    options.trace_parent_span = span;
  }
  WallTimer timer;
  milp::MilpSolution sol = milp::MilpSolver(options).Solve(model);
  stats->solve_seconds += timer.ElapsedSeconds();
  if (trace != nullptr) trace->EndSpan(span);
  stats->solver_nodes += sol.stats.nodes;
  stats->lp_iterations += sol.stats.lp_iterations;
  stats->incumbent_updates += sol.stats.incumbent_updates;
  return sol;
}

/// Indices of the queries of `log` whose parameters `repaired` changed.
std::vector<size_t> ChangedQueries(const QueryLog& log,
                                   const QueryLog& repaired) {
  std::vector<size_t> out;
  for (size_t i = 0; i < log.size(); ++i) {
    for (const auto& ref : log[i].Params()) {
      if (std::fabs(log[i].GetParam(ref) - repaired[i].GetParam(ref)) >
          1e-7) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

/// True if the two states agree slot-for-slot (liveness and, for live
/// tuples, values within `tol`).
bool SameFinalState(const Database& a, const Database& b, double tol) {
  if (a.NumSlots() != b.NumSlots()) return false;
  size_t num_attrs = a.schema().num_attrs();
  for (size_t i = 0; i < a.NumSlots(); ++i) {
    if (a.slot(i).alive != b.slot(i).alive) return false;
    if (!a.slot(i).alive) continue;
    for (size_t attr = 0; attr < num_attrs; ++attr) {
      if (std::fabs(a.slot(i).values[attr] - b.slot(i).values[attr]) > tol) {
        return false;
      }
    }
  }
  return true;
}

/// Beautifies repaired constants. MILP optima sit on epsilon boundaries,
/// so a repaired threshold comes back as 86500.000001 (or 86500.5 on
/// integral data) — correct, but not what an administrator should have
/// to read or retype. For every repaired parameter, try progressively
/// finer roundings (integer, then 1..6 decimals; at integer granularity
/// also ceil/floor, which can step off the boundary entirely) and keep
/// the coarsest candidate whose replay reproduces the exact same final
/// state as the unpolished repair. `fixed` holds that state, the replay
/// of `repaired`, on entry; on return it holds the replay of the
/// polished log (the replay of the last candidate kept, if any).
void PolishRepairedParams(const QueryLog& original, QueryLog& repaired,
                          const Database& d0, Database* fixed) {
  const Database& want = *fixed;
  std::optional<Database> polished;
  for (size_t i = 0; i < repaired.size(); ++i) {
    for (const relational::ParamRef& ref : repaired[i].Params()) {
      double v = repaired[i].GetParam(ref);
      if (v == original[i].GetParam(ref)) continue;  // not a repair
      if (v == std::round(v)) continue;              // already clean
      bool done = false;
      for (int digits = 0; digits <= 6 && !done; ++digits) {
        double scale = std::pow(10.0, digits);
        double candidates[3] = {std::round(v * scale) / scale,
                                std::ceil(v * scale) / scale,
                                std::floor(v * scale) / scale};
        // Beyond integer granularity, ceil/floor only chase the boundary
        // value itself; the plain rounding is enough.
        int num_candidates = digits == 0 ? 3 : 1;
        for (int c = 0; c < num_candidates && !done; ++c) {
          double cand = candidates[c];
          if (cand == v) continue;
          repaired[i].SetParam(ref, cand);
          Database got = relational::ExecuteLog(repaired, d0);
          if (SameFinalState(got, want, 1e-9)) {
            done = true;  // keep the polished value
            polished = std::move(got);
          } else {
            repaired[i].SetParam(ref, v);
          }
        }
      }
    }
  }
  if (polished.has_value()) *fixed = std::move(*polished);
}

/// The non-complaint slots of a replayed final state `fixed` that moved
/// away from the observed dirty state under kMoveTolerance: a repair's
/// side effects, and the tuples refinement (§5.1 step 2) must win back.
std::vector<size_t> CollateralSlots(
    const Database& fixed, const Database& dirty,
    const provenance::ComplaintSet& complaints) {
  const size_t num_attrs = fixed.schema().num_attrs();
  std::vector<size_t> out;
  for (size_t slot = 0; slot < fixed.NumSlots(); ++slot) {
    if (complaints.Find(static_cast<int64_t>(slot)) != nullptr) continue;
    const relational::Tuple& got = fixed.slot(slot);
    const relational::Tuple& was = dirty.slot(slot);
    bool moved = got.alive != was.alive;
    if (!moved && got.alive) {
      for (size_t a = 0; a < num_attrs && !moved; ++a) {
        moved = std::fabs(got.values[a] - was.values[a]) > kMoveTolerance;
      }
    }
    if (moved) out.push_back(slot);
  }
  return out;
}

}  // namespace

void JudgeReplay(const Database& fixed, const Database& dirty,
                 const provenance::ComplaintSet& complaints, Repair* repair) {
  const size_t num_attrs = fixed.schema().num_attrs();
  repair->complaints.clear();
  repair->verified = true;
  for (const provenance::Complaint& c : complaints.complaints()) {
    const relational::Tuple& got = fixed.slot(static_cast<size_t>(c.tid));
    bool resolved = got.alive == c.target_alive;
    if (resolved && got.alive) {
      for (size_t a = 0; a < num_attrs && resolved; ++a) {
        resolved = std::fabs(got.values[a] - c.target_values[a]) <=
                   kTargetTolerance;
      }
    }
    repair->complaints.push_back({c.tid, resolved});
    repair->verified = repair->verified && resolved;
  }
  repair->side_effects = CollateralSlots(fixed, dirty, complaints);
  repair->collateral = repair->side_effects.size();
}

QFixEngine::QFixEngine(QueryLog log, Database d0, Database dirty_dn,
                       provenance::ComplaintSet complaints,
                       QFixOptions options)
    : QFixEngine(cache::MakeSnapshot(std::move(log), std::move(d0),
                                     std::move(dirty_dn)),
                 std::move(complaints), options) {}

QFixEngine::QFixEngine(cache::Snapshot data,
                       provenance::ComplaintSet complaints,
                       QFixOptions options)
    : data_(std::move(data)),
      log_(data_->log),
      d0_(data_->d0()),
      dirty_(data_->dirty),
      complaints_(std::move(complaints)),
      options_(options) {
  num_attrs_ = d0_.schema().num_attrs();
  complaint_attrs_ = complaints_.ComplaintAttributes(dirty_);
  full_impacts_ = provenance::ComputeFullImpacts(log_, num_attrs_);
  relevant_loose_.assign(log_.size(), false);
  relevant_strict_.assign(log_.size(), false);
  std::vector<size_t> always_encoded;
  for (size_t i = 0; i < log_.size(); ++i) {
    relevant_loose_[i] = full_impacts_[i].Intersects(complaint_attrs_);
    relevant_strict_[i] = !complaint_attrs_.Empty() &&
                          full_impacts_[i].ContainsAll(complaint_attrs_);
    if (!options_.query_slicing || relevant_loose_[i]) {
      always_encoded.push_back(i);
    }
  }
  encoding_context_ = DeriveEncodingContext(log_, d0_, dirty_, complaints_,
                                            options_.encoder);
  if (options_.attribute_slicing) {
    attr_filter_ = provenance::RelevantAttributes(
        log_, always_encoded, complaint_attrs_, num_attrs_);
  }
}

std::vector<size_t> QFixEngine::ComplaintSlots() const {
  std::vector<size_t> slots;
  slots.reserve(complaints_.size());
  for (const auto& c : complaints_.complaints()) {
    slots.push_back(static_cast<size_t>(c.tid));
  }
  return slots;
}

std::vector<size_t> QFixEngine::AllSlots() const {
  std::vector<size_t> slots(dirty_.NumSlots());
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return slots;
}

std::vector<bool> QFixEngine::EncodedSet(
    const std::vector<bool>& parameterized) const {
  std::vector<bool> encoded(log_.size(), true);
  if (!options_.query_slicing) return encoded;
  for (size_t i = 0; i < log_.size(); ++i) {
    encoded[i] = relevant_loose_[i] || parameterized[i];
  }
  return encoded;
}

Result<Repair> QFixEngine::SolveAttempt(
    const std::vector<bool>& parameterized, const Deadline& deadline,
    RepairStats* stats) {
  // Engine-recorded trace phases: the engine owns the encode/solve
  // split (the server can't see it), so it opens those spans itself and
  // hangs prefix-replay / solver-internal children off them.
  obs::TraceContext* trace = options_.milp.trace;
  const size_t phase_parent = options_.milp.trace_parent_span;

  WallTimer encode_timer;
  size_t encode_span = obs::TraceContext::kDroppedSpan;
  if (trace != nullptr) encode_span = trace->BeginSpan("encode", phase_parent);

  EncodeRequest req;
  req.log = &log_;
  req.d0 = &d0_;
  req.dirty_dn = &dirty_;
  req.complaints = &complaints_;
  req.parameterized = parameterized;
  req.encoded = EncodedSet(parameterized);
  req.tuple_slots =
      options_.tuple_slicing ? ComplaintSlots() : AllSlots();
  req.options = options_.encoder;
  req.context = &encoding_context_;

  // The engine's filter already covers every query an attempt encodes
  // except parameterized ones outside the loose relevance set.
  AttrSet filter;
  if (options_.attribute_slicing) {
    std::vector<size_t> extra;
    for (size_t i = 0; i < log_.size(); ++i) {
      if (options_.query_slicing && parameterized[i] && !relevant_loose_[i]) {
        extra.push_back(i);
      }
    }
    filter = provenance::RelevantAttributes(log_, extra, attr_filter_,
                                            num_attrs_);
    req.attr_filter = &filter;
  }

  // Incremental ingest: start the encoding from the memoized replay of
  // the deepest sealed chunk prefix below the first parameterized query
  // (the encoder validates the soundness conditions — see
  // EncodeRequest::prefix_state). Held via shared_ptr through encode
  // and refinement; the refinement request copies `req`, so the prefix
  // carries over.
  std::shared_ptr<const relational::Database> prefix_state;
  if (options_.encoding_cache != nullptr && !data_->chunks.empty() &&
      options_.encoder.fold_constants) {
    size_t first_param = log_.size();
    for (size_t i = 0; i < log_.size(); ++i) {
      if (parameterized[i]) {
        first_param = i;
        break;
      }
    }
    size_t chunk_index = data_->chunks.size();
    for (size_t ci = 0; ci < data_->chunks.size(); ++ci) {
      if (data_->chunks[ci]->end <= first_param) chunk_index = ci;
    }
    if (chunk_index < data_->chunks.size()) {
      const double replay_start =
          trace != nullptr ? trace->ElapsedSeconds() : 0.0;
      prefix_state = options_.encoding_cache->GetOrCompute(
          data_->name, data_->chunks, chunk_index, d0_, log_);
      if (prefix_state != nullptr) {
        req.prefix_state = prefix_state.get();
        req.prefix_len = data_->chunks[chunk_index]->end;
        stats->prefix_reused = true;
        if (trace != nullptr) {
          trace->AddSpan("prefix_replay", replay_start,
                         trace->ElapsedSeconds(), encode_span);
        }
      }
    }
  }

  Result<EncodedProblem> encoded = Encode(req);
  stats->encode_seconds += encode_timer.ElapsedSeconds();
  if (trace != nullptr) trace->EndSpan(encode_span);
  if (!encoded.ok()) return encoded.status();
  EncodedProblem problem = std::move(*encoded);
  stats->num_vars = problem.model.NumVars();
  stats->num_constraints = problem.model.NumConstraints();
  stats->num_integer_vars = problem.model.NumIntegerVars();
  stats->encoded_tuples = problem.num_encoded_tuples;
  stats->encoded_queries = problem.num_encoded_queries;

  milp::MilpOptions milp_opts = options_.milp;
  std::optional<double> budget =
      SolveBudget(deadline, milp_opts.time_limit_seconds);
  if (!budget.has_value()) {
    return Status::ResourceExhausted("time limit reached before the solve");
  }
  milp_opts.time_limit_seconds = *budget;
  milp::MilpSolution sol =
      TimedSolve(problem.model, milp_opts, "solve", stats);

  stats->optimal = sol.status == milp::MilpStatus::kOptimal;
  switch (sol.status) {
    case milp::MilpStatus::kOptimal:
    case milp::MilpStatus::kFeasible:
      break;
    case milp::MilpStatus::kInfeasible:
      return Status::Infeasible(
          "no assignment of the parameterized queries resolves the "
          "complaint set");
    case milp::MilpStatus::kTimeLimit:
      return Status::ResourceExhausted("MILP solve hit the time limit");
    case milp::MilpStatus::kTooLarge:
      return Status::ResourceExhausted(
          "MILP exceeds the solver's size budget");
    case milp::MilpStatus::kUnbounded:
      return Status::Internal("repair MILP unbounded (encoding bug)");
  }

  Repair repair;
  repair.log = ConvertQLog(log_, problem, sol.x);
  SnapIntegralParams(repair.log, problem);
  repair.changed_queries = ChangedQueries(log_, repair.log);
  repair.distance = relational::LogDistance(log_, repair.log);
  // The one replay of the repaired log. Refinement's collateral check,
  // polish and the verdict below all read it; an adopted refinement or a
  // polished constant replaces it with the replay that step made.
  Database fixed = relational::ExecuteLog(repair.log, d0_);

  // ---- Tuple slicing step 2: refinement (§5.1). ----
  // Iterated because one round can over-shrink or leave stragglers: each
  // round re-derives the NC set from the current repair, encodes the
  // complaints plus a bounded sample of NC with soft outputs, and adopts
  // the solution if it reduces the number of affected non-complaints.
  if (options_.tuple_slicing && options_.refinement &&
      !repair.changed_queries.empty() && !deadline.Expired()) {
    // Small caps keep each refinement MILP dense-simplex friendly; the
    // iteration re-samples, so coverage improves across rounds anyway.
    constexpr size_t kMaxSoftTuples = 24;
    constexpr int kMaxRounds = 3;
    size_t best_collateral = SIZE_MAX;
    for (int round = 0; round < kMaxRounds && !deadline.Expired();
         ++round) {
      std::vector<size_t> nc = CollateralSlots(fixed, dirty_, complaints_);
      if (nc.empty()) break;
      if (nc.size() >= best_collateral) break;  // no progress last round
      best_collateral = nc.size();

      // Deterministic evenly-spaced sample keeps the MILP small while
      // spanning the whole matched region (important for intervals).
      std::vector<size_t> sample;
      if (nc.size() <= kMaxSoftTuples) {
        sample = nc;
      } else {
        double step = static_cast<double>(nc.size()) / kMaxSoftTuples;
        for (size_t i = 0; i < kMaxSoftTuples; ++i) {
          sample.push_back(nc[static_cast<size_t>(i * step)]);
        }
      }

      EncodeRequest refine = req;
      std::vector<size_t> slots = ComplaintSlots();
      slots.insert(slots.end(), sample.begin(), sample.end());
      refine.tuple_slots = std::move(slots);
      refine.soft_slots = sample;
      std::vector<bool> refine_params(log_.size(), false);
      for (size_t i : repair.changed_queries) refine_params[i] = true;
      refine.parameterized = refine_params;
      refine.encoded = EncodedSet(refine_params);
      refine.options.soft_match_weight = 1.0;
      refine.options.param_distance_weight =
          options_.refine_distance_weight;

      WallTimer refine_encode;
      size_t refine_encode_span = obs::TraceContext::kDroppedSpan;
      if (trace != nullptr) {
        refine_encode_span = trace->BeginSpan("refine_encode", phase_parent);
      }
      auto refined = Encode(refine);
      stats->encode_seconds += refine_encode.ElapsedSeconds();
      if (trace != nullptr) trace->EndSpan(refine_encode_span);
      if (!refined.ok()) break;
      std::optional<double> refine_budget = SolveBudget(deadline, 15.0);
      if (!refine_budget.has_value()) break;
      milp::MilpOptions refine_opts = options_.milp;
      refine_opts.time_limit_seconds = *refine_budget;
      milp::MilpSolution rsol =
          TimedSolve(refined->model, refine_opts, "refine_solve", stats);
      if (!milp::HasSolution(rsol.status)) break;

      QueryLog refined_log = ConvertQLog(log_, *refined, rsol.x);
      SnapIntegralParams(refined_log, *refined);
      Database refined_fixed = relational::ExecuteLog(refined_log, d0_);
      if (CollateralSlots(refined_fixed, dirty_, complaints_).size() >=
          best_collateral) {
        break;  // refinement didn't help
      }
      repair.changed_queries = ChangedQueries(log_, refined_log);
      repair.log = std::move(refined_log);
      fixed = std::move(refined_fixed);
      repair.distance = relational::LogDistance(log_, repair.log);
      stats->refined = true;
      // The adopted solution is now the refinement's: optimality (and
      // with it cacheability) follows the weakest solve behind it.
      stats->optimal =
          stats->optimal && rsol.status == milp::MilpStatus::kOptimal;
    }
  }

  // Beautify repaired constants (replay-equivalence preserving), then
  // refresh the bookkeeping that depends on exact parameter values.
  if (options_.polish_params && !repair.changed_queries.empty()) {
    PolishRepairedParams(log_, repair.log, d0_, &fixed);
    repair.changed_queries = ChangedQueries(log_, repair.log);
    repair.distance = relational::LogDistance(log_, repair.log);
  }

  // The verdict: which complaints the replay resolves, and which other
  // tuples it moves.
  JudgeReplay(fixed, dirty_, complaints_, &repair);
  repair.stats = *stats;
  return repair;
}

Result<Repair> QFixEngine::RepairBasic() {
  if (complaints_.empty()) {
    Repair noop;
    noop.log = log_;
    noop.verified = true;
    return noop;
  }
  Deadline deadline = Deadline::AfterSeconds(options_.time_limit_seconds);
  WallTimer total;
  RepairStats stats;
  stats.attempts = 1;

  std::vector<bool> parameterized(log_.size(), true);
  if (options_.query_slicing) {
    for (size_t i = 0; i < log_.size(); ++i) {
      parameterized[i] = relevant_loose_[i];
    }
    // Degenerate guard: if slicing filtered everything (e.g. empty
    // complaint set), fall back to parameterizing the full log.
    if (std::none_of(parameterized.begin(), parameterized.end(),
                     [](bool b) { return b; })) {
      parameterized.assign(log_.size(), true);
    }
  }
  auto result = SolveAttempt(parameterized, deadline, &stats);
  if (result.ok()) result->stats.total_seconds = total.ElapsedSeconds();
  return result;
}

Result<Repair> QFixEngine::RepairSingle(size_t query_index) {
  if (query_index >= log_.size()) {
    return Status::InvalidArgument("query index beyond log");
  }
  Deadline deadline = Deadline::AfterSeconds(options_.time_limit_seconds);
  WallTimer total;
  RepairStats stats;
  stats.attempts = 1;
  std::vector<bool> parameterized(log_.size(), false);
  parameterized[query_index] = true;
  auto result = SolveAttempt(parameterized, deadline, &stats);
  if (result.ok()) result->stats.total_seconds = total.ElapsedSeconds();
  return result;
}

Result<Repair> QFixEngine::RepairIncremental(int k) {
  if (k < 1) return Status::InvalidArgument("batch size must be >= 1");
  if (complaints_.empty()) {
    Repair noop;
    noop.log = log_;
    noop.verified = true;
    return noop;
  }
  Deadline deadline = Deadline::AfterSeconds(options_.time_limit_seconds);
  WallTimer total;
  RepairStats stats;

  const bool strict =
      options_.single_corruption_filter && k == 1 &&
      std::any_of(relevant_strict_.begin(), relevant_strict_.end(),
                  [](bool b) { return b; });
  const std::vector<bool>& candidates =
      strict ? relevant_strict_ : relevant_loose_;

  // A feasible repair that moves non-complaint tuples is kept as a
  // fallback; the search continues hoping for a collateral-free repair
  // from an older batch (typically the actually-corrupted query).
  std::optional<Repair> fallback;

  const int n = static_cast<int>(log_.size());
  for (int end = n; end > 0; end -= k) {
    int begin = std::max(0, end - k);
    std::vector<bool> parameterized(log_.size(), false);
    bool any = false;
    for (int i = begin; i < end; ++i) {
      bool eligible = !options_.query_slicing || candidates[i];
      if (eligible) {
        parameterized[i] = true;
        any = true;
      }
    }
    if (!any) continue;  // query slicing skipped the whole batch
    ++stats.attempts;

    if (deadline.Expired()) {
      if (fallback.has_value()) break;
      return Status::ResourceExhausted(
          "time limit reached before a repair was found");
    }
    auto attempt = SolveAttempt(parameterized, deadline, &stats);
    if (attempt.ok()) {
      attempt->stats.total_seconds = total.ElapsedSeconds();
      if (attempt->collateral == 0) return attempt;
      if (!fallback.has_value() ||
          attempt->collateral < fallback->collateral) {
        fallback = std::move(attempt).value();
      }
      continue;
    }
    if (attempt.status().IsResourceExhausted()) {
      if (fallback.has_value()) break;
      return attempt.status();
    }
    if (!attempt.status().IsInfeasible()) return attempt.status();
    // Infeasible: this batch cannot explain the complaints; go older.
  }
  if (fallback.has_value()) {
    fallback->stats.total_seconds = total.ElapsedSeconds();
    return std::move(fallback).value();
  }
  return Status::Infeasible(
      "no batch of " + std::to_string(k) +
      " consecutive queries can explain the complaint set");
}

std::vector<Repair> QFixEngine::DiagnoseAll(size_t max_diagnoses) {
  std::vector<Repair> out;
  if (complaints_.empty() || max_diagnoses == 0) return out;
  Deadline deadline = Deadline::AfterSeconds(options_.time_limit_seconds);

  const bool use_strict =
      options_.single_corruption_filter &&
      std::any_of(relevant_strict_.begin(), relevant_strict_.end(),
                  [](bool b) { return b; });
  const std::vector<bool>& candidates =
      use_strict ? relevant_strict_ : relevant_loose_;

  for (size_t i = log_.size(); i-- > 0;) {
    if (out.size() >= max_diagnoses || deadline.Expired()) break;
    if (options_.query_slicing && !candidates[i]) continue;
    WallTimer total;
    RepairStats stats;
    stats.attempts = 1;
    std::vector<bool> parameterized(log_.size(), false);
    parameterized[i] = true;
    auto attempt = SolveAttempt(parameterized, deadline, &stats);
    if (!attempt.ok()) continue;
    attempt->stats.total_seconds = total.ElapsedSeconds();
    out.push_back(std::move(attempt).value());
  }
  // Rank: clean repairs first, then fewer damaged tuples, then smaller
  // parameter distance (the paper's d(Q, Q*)).
  std::stable_sort(out.begin(), out.end(),
                   [](const Repair& a, const Repair& b) {
                     if (a.collateral != b.collateral) {
                       return a.collateral < b.collateral;
                     }
                     return a.distance < b.distance;
                   });
  return out;
}

}  // namespace qfixcore
}  // namespace qfix
