// The two library workloads: one client thread calling
// qfixcore::QFixEngine directly, one RepairIncremental(1) diagnosis per
// operation, every answer checked against the injected corruption.
//
//   oltp_inc1       TPC-C ORDER table (6,000 rows, 2,000-query log,
//                   paper Fig. 9); corruption ages skewed young
//                   (stratified geometric, mean 50, capped at 300).
//                   Impact analysis, encode and replay do the work.
//   synthetic_milp  paper §7.1 generator, range WHERE clauses,
//                   N_D = 400, N_q = 30, V_d = 200, one corruption in
//                   the newer half. Branch & bound does the work.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cache/snapshot.h"
#include "common/random.h"
#include "common/timer.h"
#include "provenance/complaint.h"
#include "qfix/qfix.h"
#include "relational/executor.h"
#include "workload/synthetic.h"
#include "workload/tpcc_like.h"
#include "workloads.h"

namespace perfbench {

using qfix::Rng;
using qfix::WallTimer;
using qfix::relational::Database;
using qfix::relational::Query;
using qfix::relational::QueryLog;

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// One diagnosis request: the snapshot, its complaints, and the log
/// index the workload corrupted (the only correct answer).
struct LibCase {
  qfix::cache::Snapshot data;
  qfix::provenance::ComplaintSet complaints;
  size_t injected = 0;
};

class LibraryWorkload {
 public:
  virtual ~LibraryWorkload() = default;
  virtual size_t num_ops() const = 0;
  /// Engine options of every diagnosis: its time budget and solver caps.
  virtual qfix::qfixcore::QFixOptions options() const { return {}; }
  /// Folds inputs shared by every operation into `digest`.
  virtual void DigestShared(Digest* /*digest*/) const {}
  /// Builds operation i's inputs and folds them into `digest`. Runs
  /// outside every timer.
  virtual LibCase Make(size_t i, Digest* digest) const = 0;
};

void DigestComplaints(const qfix::provenance::ComplaintSet& complaints,
                      Digest* digest) {
  for (const auto& c : complaints.complaints()) {
    digest->Add(static_cast<uint64_t>(c.tid));
    digest->Add(static_cast<uint64_t>(c.target_alive));
    for (double v : c.target_values) digest->Add(v);
  }
}

void DigestDatabase(const Database& db, Digest* digest) {
  for (size_t i = 0; i < db.NumSlots(); ++i) {
    digest->Add(static_cast<uint64_t>(db.slot(i).alive));
    for (double v : db.slot(i).values) digest->Add(v);
  }
}

// ---------------------------------------------------------------- oltp

constexpr size_t kOltpBases = 16;
constexpr size_t kOltpMaxAge = 300;
constexpr double kOltpMeanAge = 50.0;
// Operations per second of --seconds, calibrated on an unloaded 4-core
// x86 host (~50 ms mean diagnosis plus ~3 ms of untimed input replay).
constexpr double kOltpOpsPerSecond = 18.0;

/// One TPC-C scenario's clean log, checkpoint and true final state.
/// Operations corrupt one query of a base and replay from the
/// checkpoint, which sits kOltpMaxAge queries before the end, so the
/// per-operation input cost is a ~300-query replay, not 2,000.
struct OltpBase {
  Database d0;
  QueryLog clean;
  Database truth;
  Database checkpoint;  // state after clean[0, checkpoint_at)
  size_t checkpoint_at = 0;
  size_t next_o_id = 0;
};

class OltpWorkload : public LibraryWorkload {
 public:
  OltpWorkload(uint64_t seed, size_t num_ops) : seed_(seed) {
    qfix::workload::TpccSpec spec;
    for (size_t b = 0; b < kOltpBases; ++b) {
      // The generator's own corruption is discarded: operations inject
      // theirs into the clean log below.
      qfix::workload::Scenario s =
          qfix::workload::MakeTpccScenario(spec, 0, MixSeed(seed, 100 + b));
      auto base = std::make_unique<OltpBase>();
      base->checkpoint_at = s.clean_log.size() - 1 - kOltpMaxAge;
      base->checkpoint = s.d0.Clone();
      for (size_t i = 0; i < base->checkpoint_at; ++i) {
        qfix::relational::ApplyQuery(s.clean_log[i], base->checkpoint);
      }
      base->next_o_id = s.truth.NumSlots();
      base->d0 = std::move(s.d0);
      base->clean = std::move(s.clean_log);
      base->truth = std::move(s.truth);
      bases_.push_back(std::move(base));
    }
    // Stratified geometric ages: operation i takes the inverse CDF at
    // the jittered i-th of num_ops strata, so every seed runs the same
    // age mix and only the jitter, the order and the data change.
    Rng rng(MixSeed(seed, 1));
    const double p = 1.0 / (kOltpMeanAge + 1.0);
    for (size_t i = 0; i < num_ops; ++i) {
      const double u =
          (static_cast<double>(i) + rng.UniformReal(0.0, 1.0)) /
          static_cast<double>(num_ops);
      double age = std::floor(std::log1p(-u) / std::log1p(-p));
      ops_.push_back({i % kOltpBases,
                      static_cast<size_t>(std::min<double>(
                          age, static_cast<double>(kOltpMaxAge)))});
    }
    std::shuffle(ops_.begin(), ops_.end(), rng.engine());
  }

  size_t num_ops() const override { return ops_.size(); }

  void DigestShared(Digest* digest) const override {
    for (const auto& base : bases_) {
      DigestDatabase(base->d0, digest);
      for (const Query& q : base->clean) {
        digest->Add(q.ToSql(base->d0.schema()));
      }
    }
  }

  LibCase Make(size_t i, Digest* digest) const override {
    const OltpBase& base = *bases_[ops_[i].base];
    const size_t idx = base.clean.size() - 1 - ops_[i].age;
    Rng rng(MixSeed(seed_, 1000 + i));
    // A corruption can be fully masked by later queries; redraw until
    // the complaint set is non-empty (deterministic per seed).
    for (;;) {
      QueryLog log = base.clean;
      Corrupt(log[idx], base.next_o_id, rng);
      Database dirty = base.checkpoint.Clone();
      for (size_t q = base.checkpoint_at; q < log.size(); ++q) {
        qfix::relational::ApplyQuery(log[q], dirty);
      }
      qfix::provenance::ComplaintSet complaints =
          qfix::provenance::DiffStates(dirty, base.truth);
      if (complaints.empty()) continue;
      digest->Add(static_cast<uint64_t>(ops_[i].base));
      digest->Add(static_cast<uint64_t>(idx));
      digest->Add(log[idx].ToSql(base.d0.schema()));
      DigestComplaints(complaints, digest);
      LibCase out;
      out.data = qfix::cache::MakeSnapshot(std::move(log), base.d0.Clone(),
                                           std::move(dirty));
      out.complaints = std::move(complaints);
      out.injected = idx;
      return out;
    }
  }

 private:
  /// The corruption rules of workload::MakeTpccScenario: a New-Order
  /// INSERT gets a wrong customer and order-line count; a Delivery
  /// UPDATE assigns a wrong carrier to the wrong order.
  static void Corrupt(Query& q, size_t next_o_id, Rng& rng) {
    if (q.type() == qfix::relational::QueryType::kInsert) {
      q.mutable_insert_values()[3] =
          static_cast<double>(rng.UniformInt(3001, 6000));
      q.mutable_insert_values()[6] =
          static_cast<double>(rng.UniformInt(20, 40));
      return;
    }
    for (const qfix::relational::ParamRef& ref : q.Params()) {
      if (ref.kind == qfix::relational::ParamRef::Kind::kSetConstant) {
        q.SetParam(ref, q.GetParam(ref) + 20.0);
      } else if (ref.kind == qfix::relational::ParamRef::Kind::kWhereRhs) {
        const double orig = q.GetParam(ref);
        double other = orig;
        while (other == orig) {
          other = static_cast<double>(
              rng.UniformInt(0, static_cast<int64_t>(next_o_id) - 1));
        }
        q.SetParam(ref, other);
      }
    }
  }

  struct Op {
    size_t base;
    size_t age;
  };
  uint64_t seed_;
  std::vector<std::unique_ptr<OltpBase>> bases_;
  std::vector<Op> ops_;
};

// ----------------------------------------------------------- synthetic

// Smaller than the §7.1 default (N_D = 500, N_q = 50), where ~2.5% of
// diagnoses run into the dense simplex's cliff. At this size LPs after
// presolve have at most ~670 rows, except in about one diagnosis in 800,
// whose refinement LP has 1,900-2,600 rows: its dense basis inverse
// then takes 5 s or more and 30-50 MB, which moved throughput by up to
// 40% and peak RSS by up to 60% between seeds. kSynLpMaxRows refuses
// those LPs (the diagnosis keeps its unrefined repair). Of the rest,
// about one in 1,000 takes 0.7-3 s in branch & bound; kSynTimeLimit
// caps each at 1 s so they move throughput by at most ~5%. See NOTES.md.
constexpr size_t kSynTuples = 400;
constexpr size_t kSynQueries = 30;
constexpr double kSynDomain = 200;
constexpr int32_t kSynLpMaxRows = 1000;
constexpr double kSynTimeLimit = 1.0;
// ~21 ms mean diagnosis on the same host.
constexpr double kSynOpsPerSecond = 40.0;

class SyntheticWorkload : public LibraryWorkload {
 public:
  SyntheticWorkload(uint64_t seed, size_t num_ops) {
    qfix::workload::SyntheticSpec spec;
    spec.num_tuples = kSynTuples;
    spec.num_queries = kSynQueries;
    spec.value_domain = kSynDomain;
    // Corruption positions cover the newer half evenly (stratified),
    // in a seeded order.
    const size_t half = kSynQueries / 2;
    std::vector<size_t> positions;
    for (size_t i = 0; i < num_ops; ++i) positions.push_back(half + i % half);
    Rng rng(MixSeed(seed, 2));
    std::shuffle(positions.begin(), positions.end(), rng.engine());
    for (size_t i = 0; i < num_ops; ++i) {
      for (uint64_t attempt = 0;; ++attempt) {
        qfix::workload::Scenario s = qfix::workload::MakeSyntheticScenario(
            spec, {positions[i]}, MixSeed(seed, 10'000 + 64 * i + attempt));
        if (s.complaints.empty()) continue;  // corruption fully masked
        LibCase c;
        c.data = qfix::cache::MakeSnapshot(std::move(s.dirty_log),
                                           std::move(s.d0),
                                           std::move(s.dirty));
        c.complaints = std::move(s.complaints);
        c.injected = positions[i];
        cases_.push_back(std::move(c));
        break;
      }
    }
  }

  size_t num_ops() const override { return cases_.size(); }
  qfix::qfixcore::QFixOptions options() const override {
    qfix::qfixcore::QFixOptions o;
    o.time_limit_seconds = kSynTimeLimit;
    o.milp.lp.max_rows = kSynLpMaxRows;
    return o;
  }

  LibCase Make(size_t i, Digest* digest) const override {
    const LibCase& c = cases_[i];
    DigestDatabase(c.data->d0(), digest);
    for (const Query& q : c.data->log) {
      digest->Add(q.ToSql(c.data->d0().schema()));
    }
    DigestComplaints(c.complaints, digest);
    return {c.data, c.complaints, c.injected};
  }

 private:
  std::vector<LibCase> cases_;
};

// -------------------------------------------------------------- runner

struct Diagnosis {
  double wall_ms = 0.0;  // engine construction + repair
  double ctor_ms = 0.0;  // engine construction (full-impact analysis)
  qfix::Result<qfix::qfixcore::Repair> repair =
      qfix::Status::Internal("not run");
};

Diagnosis Diagnose(const LibCase& c, qfix::qfixcore::QFixOptions options,
                   qfix::obs::TraceContext* trace) {
  options.milp.trace = trace;
  qfix::provenance::ComplaintSet complaints = c.complaints;
  Diagnosis d;
  WallTimer timer;
  qfix::qfixcore::QFixEngine engine(c.data, std::move(complaints), options);
  d.ctor_ms = timer.ElapsedMillis();
  d.repair = engine.RepairIncremental(1);
  d.wall_ms = timer.ElapsedMillis();
  return d;
}

/// Counts the answer's failure class, if it is not exactly the repair
/// of the injected query.
void Check(const Diagnosis& d, size_t injected, Report* report) {
  if (!d.repair.ok()) {
    report->Fail(Failure::kErrorStatus);
  } else if (!d.repair->stats.optimal) {
    report->Fail(Failure::kTruncated);
  } else if (!d.repair->verified) {
    report->Fail(Failure::kUnverified);
  } else if (d.repair->changed_queries != std::vector<size_t>{injected}) {
    report->Fail(Failure::kWrongQuery);
  }
}

/// Per-layer sums over the untraced diagnoses that finished within
/// their budget. How far the solver got before a budget stopped it
/// depends on the host's speed, so those diagnoses are only counted.
struct LayerSums {
  double ctor_ms = 0, encode_ms = 0, solve_ms = 0, replay_ms = 0;
  uint64_t attempts = 0, nodes = 0, lp_iters = 0, rows = 0, int_vars = 0;
  uint64_t kept_queries = 0, refined = 0, optimal = 0, diagnoses = 0;
  uint64_t budget_hits = 0;

  void Add(const Diagnosis& d, double time_limit, Report* report) {
    if (d.wall_ms >= 1e3 * time_limit) {
      ++budget_hits;
      return;
    }
    if (!d.repair.ok()) return;
    const auto& st = d.repair->stats;
    const double encode = st.encode_seconds * 1e3;
    const double solve = st.solve_seconds * 1e3;
    const double replay = Residual(d.wall_ms, {d.ctor_ms, encode, solve});
    report->CheckResidual("qfix.replay_ms", replay);
    ctor_ms += d.ctor_ms;
    encode_ms += encode;
    solve_ms += solve;
    replay_ms += replay;
    attempts += static_cast<uint64_t>(st.attempts);
    nodes += static_cast<uint64_t>(st.solver_nodes);
    lp_iters += static_cast<uint64_t>(st.lp_iterations);
    rows += static_cast<uint64_t>(st.num_constraints);
    int_vars += static_cast<uint64_t>(st.num_integer_vars);
    kept_queries += st.encoded_queries;
    refined += st.refined ? 1 : 0;
    optimal += st.optimal ? 1 : 0;
    ++diagnoses;
  }
};

void RunLibrary(const char* name,
                std::unique_ptr<LibraryWorkload> (*setup)(uint64_t, size_t),
                double ops_per_second, const RunArgs& args,
                Report* report) {
  const size_t num_ops = std::max<size_t>(
      100, static_cast<size_t>(std::lround(ops_per_second * args.seconds)));

  std::vector<double> setup_s;
  std::unique_ptr<LibraryWorkload> workload;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    WallTimer timer;
    workload = setup(args.seed, num_ops);
    // Warm-up: one untimed diagnosis settles lazy allocation and code
    // paths before the timed list starts.
    Digest scratch;
    Diagnose(workload->Make(0, &scratch), workload->options(), nullptr);
    setup_s.push_back(timer.ElapsedSeconds());
  }

  Samples untraced, traced;
  LayerSums sums;
  SpanTotals spans;
  uint64_t dropped_spans = 0;
  double timed_ms = 0.0;
  Digest inputs;
  workload->DigestShared(&inputs);
  for (size_t i = 0; i < workload->num_ops(); ++i) {
    const LibCase c = workload->Make(i, &inputs);
    const qfix::qfixcore::QFixOptions options = workload->options();
    Diagnosis plain;
    if (args.trace) {
      // Paired: each operation runs untraced and traced, alternating
      // which goes first, so the overhead estimate shares inputs.
      qfix::obs::TraceContext ctx("perfbench");
      Diagnosis with_trace;
      if (i % 2 == 0) {
        plain = Diagnose(c, options, nullptr);
        with_trace = Diagnose(c, options, &ctx);
      } else {
        with_trace = Diagnose(c, options, &ctx);
        plain = Diagnose(c, options, nullptr);
      }
      traced.Add(with_trace.wall_ms);
      dropped_spans += ctx.dropped_spans();
      spans.Add(ctx.spans(), ctx.dropped_spans());
    } else {
      plain = Diagnose(c, options, nullptr);
    }
    report->Attempt();
    untraced.Add(plain.wall_ms);
    timed_ms += plain.wall_ms;
    Check(plain, c.injected, report);
    sums.Add(plain, options.time_limit_seconds, report);
  }
  report->SetInputDigest(inputs.value());

  const double n = static_cast<double>(untraced.size());
  const double per_s = timed_ms > 0.0 ? 1e3 * n / timed_ms : 0.0;
  report->Line("workload %s: %zu diagnoses, one client, RepairIncremental(1)",
               name, untraced.size());
  report->Line("diag latency ms: p50 %.3f  p90 %.3f  %s %.3f  mean %.3f",
               untraced.P50(), untraced.P90(), untraced.TailLabel().c_str(),
               untraced.Tail(), untraced.Mean());
  report->Set("setup_s", Median(setup_s));
  report->Set("diag_p50_ms", untraced.P50());
  report->Set("diag_p90_ms", untraced.P90());
  report->Set("diag_per_s", per_s);
  // Every request of a library workload is a diagnosis.
  report->Set("req_per_s", per_s);
  report->Set("ok_frac", report->OkFrac());

  const double d = std::max<double>(1.0, static_cast<double>(sums.diagnoses));
  const double impact = sums.ctor_ms / d, encode = sums.encode_ms / d;
  const double solve = sums.solve_ms / d, replay = sums.replay_ms / d;
  if (impact + encode + solve > untraced.Mean() + 1e-6) {
    report->BenchError("per-layer means sum past the end-to-end mean");
  }
  report->Line(
      "layers ms/diagnosis: impact %.3f + encode %.3f + solve %.3f + "
      "replay %.3f = %.3f (end-to-end mean %.3f)",
      impact, encode, solve, replay, impact + encode + solve + replay,
      untraced.Mean());
  report->Set("provenance.impact_ms", impact);
  report->Set("provenance.kept_queries",
              static_cast<double>(sums.kept_queries) / d);
  report->Set("qfix.attempts", static_cast<double>(sums.attempts) / d);
  report->Set("qfix.attempt_yield",
              sums.attempts > 0 ? static_cast<double>(sums.diagnoses) /
                                      static_cast<double>(sums.attempts)
                                : 0.0);
  report->Set("qfix.encode_ms", encode);
  report->Set("qfix.replay_ms", replay);
  report->Set("qfix.model_rows", static_cast<double>(sums.rows) / d);
  report->Set("qfix.model_int_vars", static_cast<double>(sums.int_vars) / d);
  report->Set("qfix.refined_frac", static_cast<double>(sums.refined) / d);
  report->Set("milp.solve_ms", solve);
  report->Set("milp.nodes", static_cast<double>(sums.nodes) / d);
  report->Set("milp.lp_iters", static_cast<double>(sums.lp_iters) / d);
  report->Set("milp.lp_iters_per_node",
              sums.nodes > 0 ? static_cast<double>(sums.lp_iters) /
                                   static_cast<double>(sums.nodes)
                             : 0.0);
  report->Set("milp.optimal_frac", static_cast<double>(sums.optimal) / d);

  report->Count("diagnoses", sums.diagnoses);
  report->Count("attempts", sums.attempts);
  report->Count("solver_nodes", sums.nodes);
  report->Count("lp_iterations", sums.lp_iters);
  report->Count("model_rows", sums.rows);
  report->Count("encoded_queries", sums.kept_queries);
  report->Count("refined", sums.refined);
  report->Count("optimal", sums.optimal);
  report->Count("budget_hits", sums.budget_hits);

  if (args.trace) {
    report->Line(
        "traced: %zu of %zu traces complete (%llu dropped spans); encode "
        "and solve means come from RepairStats either way",
        spans.traces(), traced.size(),
        static_cast<unsigned long long>(dropped_spans));
    for (const std::string& phase : spans.Phases()) {
      report->Line("span %-18s mean %.4f ms  self %.4f ms (per trace with it)",
                   phase.c_str(), spans.MeanMs(phase),
                   spans.MeanSelfMs(phase));
    }
    report->Set("qfix.refine_ms",
                spans.MeanMs("refine_encode") + spans.MeanMs("refine_solve"));
    report->Set("milp.presolve_ms", spans.MeanMs("presolve"));
    report->Set("milp.root_lp_ms", spans.MeanMs("root_lp"));
    report->Set("milp.tree_ms", spans.TreeMs());
    report->Set("trace.dropped_spans", static_cast<double>(dropped_spans));
    report->Set("trace.overhead_pct",
                100.0 * (traced.P50() - untraced.P50()) / untraced.P50());
    report->Line("traced diag p50 %.3f ms vs untraced %.3f ms",
                 traced.P50(), untraced.P50());
  }
  report->Set("peak_rss_mb", PeakRssMb());
}

std::unique_ptr<LibraryWorkload> SetupOltp(uint64_t seed, size_t num_ops) {
  return std::make_unique<OltpWorkload>(seed, num_ops);
}

std::unique_ptr<LibraryWorkload> SetupSynthetic(uint64_t seed,
                                                size_t num_ops) {
  return std::make_unique<SyntheticWorkload>(seed, num_ops);
}

}  // namespace

void RunOltpInc1(const RunArgs& args, Report* report) {
  RunLibrary("oltp_inc1", SetupOltp, kOltpOpsPerSecond, args, report);
}

void RunSyntheticMilp(const RunArgs& args, Report* report) {
  RunLibrary("synthetic_milp", SetupSynthetic, kSynOpsPerSecond, args,
             report);
}

}  // namespace perfbench
