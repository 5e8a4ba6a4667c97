// Observability overhead: what the telemetry layer costs on the
// serving hot path. Two measurements:
//
//  1. Per-instrument costs in a tight loop (Counter::Inc,
//     Histogram::Observe with and without an exemplar, TraceContext
//     mint + 6 spans, the same trace with solver-internal child spans,
//     TraceRecorder::Record on its common sampled-out drop path) —
//     nanoseconds per operation, so a regression in the lock-cheap
//     design is visible directly.
//  2. The acceptance bar: the complete per-request instrumentation
//     block one /v1/diagnose pays (one TraceContext mint, six
//     top-level spans plus four solver-internal children, the
//     span->histogram mapping, seven histogram observations — one
//     with an exemplar — five counter increments, the per-request
//     label lookups of the tenant's series (requests, items, diagnose
//     latency), and the flight recorder's tail-sampling decision) is
//     timed and divided by the p50 of
//     a representative small request (a fixed ~100us compute kernel,
//     sized like a cheap cached diagnose; real requests are larger).
//     That ratio — the p50 overhead — must stay <= 2%. The block is
//     measured directly rather than by A/B-ing instrumented vs bare
//     request loops because identical ~100us blocks drift several
//     microseconds by loop position alone on shared CI hardware,
//     swamping a ~1us effect.
//
// Numbers are hardware-dependent (single-core CI containers inflate
// constant costs relative to the kernel, same caveat as
// BENCH_service.json); the bar is intentionally generous for that
// reason. The emitted table is the checked-in baseline BENCH_obs.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

using namespace qfix;

namespace {

/// Fixed deterministic FP work standing in for a small served request
/// (roughly a cache-hit diagnose: decode + key + render). Returns a
/// value the caller must consume so the loop cannot be elided.
double ComputeKernel(int rounds) {
  double acc = 1.0;
  for (int i = 0; i < rounds; ++i) {
    acc += 1.0 / (1.0 + acc * acc);
  }
  return acc;
}

double PercentileOf(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * (samples.size() - 1));
  return samples[idx];
}

struct Instruments {
  obs::MetricsRegistry registry;
  obs::Counter* requests;
  obs::Counter* items;
  obs::Counter* nodes;
  obs::Counter* lp_iterations;
  obs::Counter* constraints;
  obs::Histogram* phases[6];
  obs::Histogram* tenant_seconds;
  // Per-tenant families, resolved per request as the server does.
  obs::CounterFamily* tenant_requests;
  obs::CounterFamily* tenant_items;
  obs::HistogramFamily* diagnose_seconds;

  Instruments() {
    obs::CounterFamily* reqs = registry.AddCounter(
        "bench_requests_total", "Requests.", {"endpoint"});
    requests = reqs->WithLabels({"diagnose"});
    items = registry.AddCounter("bench_items_total", "Items.")->Get();
    nodes = registry.AddCounter("bench_nodes_total", "Nodes.")->Get();
    lp_iterations =
        registry.AddCounter("bench_lp_total", "LP iterations.")->Get();
    constraints =
        registry.AddCounter("bench_constraints_total", "Constraints.")->Get();
    obs::HistogramFamily* phase_family = registry.AddHistogram(
        "bench_phase_seconds", "Phases.", obs::DefaultLatencyBucketEdges(),
        {"phase"});
    const char* names[6] = {"parse",  "cache", "admission",
                            "encode", "solve", "render"};
    for (int i = 0; i < 6; ++i) {
      phases[i] = phase_family->WithLabels({names[i]});
    }
    diagnose_seconds = registry.AddHistogram(
        "bench_diagnose_seconds", "Diagnose.",
        obs::DefaultLatencyBucketEdges(), {"tenant"});
    tenant_seconds = diagnose_seconds->WithLabels({"t1"});
    tenant_requests = registry.AddCounter("bench_tenant_requests_total",
                                          "Tenant requests.", {"tenant"});
    tenant_items = registry.AddCounter("bench_tenant_items_total",
                                       "Tenant items.", {"tenant"});
  }
};

}  // namespace

int main() {
  const int trials = bench::Trials();
  const int requests = bench::FullMode() ? 20000 : 4000;
  const int kernel_rounds = 12000;  // ~100us of FP work per "request"

  std::printf("observability overhead: instrumented vs bare hot path\n\n");

  Instruments inst;

  // --- Part 1: per-instrument nanosecond costs. -------------------------
  harness::Table ops({"operation", "ops", "ns/op"});
  const int kOps = bench::FullMode() ? 2000000 : 500000;
  {
    WallTimer timer;
    for (int i = 0; i < kOps; ++i) inst.requests->Inc();
    ops.AddRow({"counter_inc", std::to_string(kOps),
                harness::Table::Cell(timer.ElapsedSeconds() / kOps * 1e9)});
  }
  {
    WallTimer timer;
    for (int i = 0; i < kOps; ++i) {
      inst.phases[4]->Observe(1e-4 * (i % 128));
    }
    ops.AddRow({"histogram_observe", std::to_string(kOps),
                harness::Table::Cell(timer.ElapsedSeconds() / kOps * 1e9)});
  }
  {
    const int kTraces = kOps / 10;
    WallTimer timer;
    for (int i = 0; i < kTraces; ++i) {
      obs::TraceContext trace;
      for (const char* phase :
           {"parse", "cache", "admission", "encode", "solve", "render"}) {
        trace.EndSpan(trace.BeginSpan(phase));
      }
    }
    ops.AddRow({"trace_6_spans", std::to_string(kTraces),
                harness::Table::Cell(timer.ElapsedSeconds() / kTraces * 1e9)});
  }
  {
    WallTimer timer;
    for (int i = 0; i < kOps; ++i) {
      inst.tenant_seconds->ObserveWithExemplar(1e-4 * (i % 128), "q-bench");
    }
    ops.AddRow({"histogram_observe_exemplar", std::to_string(kOps),
                harness::Table::Cell(timer.ElapsedSeconds() / kOps * 1e9)});
  }
  {
    // The trace a solver-crossing request actually builds: six
    // top-level phases plus presolve/root_lp/node_batch/incumbent
    // children hanging off "solve".
    const int kTraces = kOps / 10;
    WallTimer timer;
    for (int i = 0; i < kTraces; ++i) {
      obs::TraceContext trace;
      for (const char* phase : {"parse", "cache", "admission", "encode"}) {
        trace.EndSpan(trace.BeginSpan(phase));
      }
      size_t solve = trace.BeginSpan("solve");
      for (const char* child :
           {"presolve", "root_lp", "node_batch", "incumbent_update"}) {
        trace.EndSpan(trace.BeginSpan(child, solve));
      }
      trace.EndSpan(solve);
      trace.EndSpan(trace.BeginSpan("render"));
    }
    ops.AddRow({"trace_6_spans_4_children", std::to_string(kTraces),
                harness::Table::Cell(timer.ElapsedSeconds() / kTraces * 1e9)});
  }
  {
    // Flight recorder, common path: an ok-fast trace at the default 1%
    // sampling — the decision is a relaxed atomic read plus a hash;
    // ~99% of the iterations never take the ring's lock.
    obs::TraceRecorder recorder(obs::TraceRecorder::Options{
        4 * 1024 * 1024, /*sample_probability=*/0.01,
        /*slow_threshold_seconds=*/0.1});
    const int kRecords = kOps / 10;
    WallTimer timer;
    for (int i = 0; i < kRecords; ++i) {
      obs::RetainedTrace t;
      t.request_id = "q-bench";
      t.tenant = "t1";
      t.dataset = "t1/taxes";
      t.endpoint = "/v1/diagnose";
      t.duration_seconds = 1e-4;
      t.spans.resize(10);
      recorder.Record(std::move(t));
    }
    ops.AddRow({"recorder_record_1pct", std::to_string(kRecords),
                harness::Table::Cell(timer.ElapsedSeconds() / kRecords * 1e9)});
  }
  bench::PrintAndExport(ops, "obs_ops");
  std::printf("\n");

  // --- Part 2: the 2%% p50 acceptance bar. ------------------------------
  // (a) p50 of the representative request, best trial.
  double request_p50 = 1e9, request_p99 = 0.0;
  volatile double sink = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> samples;
    samples.reserve(requests);
    for (int r = 0; r < requests; ++r) {
      WallTimer timer;
      sink = sink + ComputeKernel(kernel_rounds);
      samples.push_back(timer.ElapsedSeconds());
    }
    double p50 = PercentileOf(samples, 0.50);
    if (p50 < request_p50) {
      request_p50 = p50;
      request_p99 = PercentileOf(samples, 0.99);
    }
  }
  (void)sink;

  // (b) the full per-request instrumentation block, timed directly:
  // everything the server pays today, including the solver-internal
  // child spans, the exemplar slot, and the flight recorder's
  // tail-sampling decision at the default 1% retention.
  obs::TraceRecorder recorder(obs::TraceRecorder::Options{
      4 * 1024 * 1024, /*sample_probability=*/0.01,
      /*slow_threshold_seconds=*/0.1});
  double block_seconds = 1e9;
  for (int trial = 0; trial < trials; ++trial) {
    WallTimer timer;
    for (int r = 0; r < requests; ++r) {
      obs::TraceContext trace;
      size_t sp = trace.BeginSpan("parse");
      trace.EndSpan(sp);
      sp = trace.BeginSpan("cache");
      trace.EndSpan(sp);
      sp = trace.BeginSpan("admission");
      trace.EndSpan(sp);
      double before = trace.ElapsedSeconds();
      double after = trace.ElapsedSeconds();  // the kernel would run here
      trace.AddSpan("encode", before, before);
      size_t solve = trace.AddSpan("solve", before, after);
      trace.AddSpan("presolve", before, before, solve);
      trace.AddSpan("root_lp", before, before, solve);
      trace.AddSpan("node_batch", before, after, solve);
      trace.AddSpan("incumbent_update", after, after, solve);
      sp = trace.BeginSpan("render");
      trace.EndSpan(sp);
      inst.requests->Inc();
      inst.items->Inc();
      inst.tenant_requests->WithLabels({"t1"})->Inc();
      inst.tenant_items->WithLabels({"t1"})->Inc();
      inst.nodes->Inc(3);
      inst.lp_iterations->Inc(40);
      inst.constraints->Inc(25);
      const double elapsed = trace.ElapsedSeconds();
      // One observation per phase per request, as the server
      // aggregates (solver children are trace-only detail).
      for (const obs::TraceSpan& span : trace.spans()) {
        if (span.parent >= 0) continue;
        int i = 0;
        for (const char* name :
             {"parse", "cache", "admission", "encode", "solve", "render"}) {
          if (span.phase == name) {
            inst.phases[i]->Observe(span.DurationSeconds());
          }
          ++i;
        }
      }
      inst.diagnose_seconds->WithLabels({"t1"})->ObserveWithExemplar(
          elapsed, "q-bench");
      obs::RetainedTrace rt;
      rt.request_id = "q-bench";
      rt.tenant = "t1";
      rt.dataset = "t1/taxes";
      rt.endpoint = "/v1/diagnose";
      rt.duration_seconds = elapsed;
      rt.spans.assign(trace.spans().begin(), trace.spans().end());
      recorder.Record(std::move(rt));
    }
    block_seconds = std::min(block_seconds,
                             timer.ElapsedSeconds() / requests);
  }

  const double overhead_pct =
      request_p50 > 0.0 ? block_seconds / request_p50 * 100.0 : 0.0;
  harness::Table table({"series", "requests", "p50_us", "p99_us",
                        "obs_block_ns", "overhead_pct"});
  table.AddRow({"request", std::to_string(requests),
                harness::Table::Cell(request_p50 * 1e6),
                harness::Table::Cell(request_p99 * 1e6), "-", "-"});
  table.AddRow({"instrumented", std::to_string(requests), "-", "-",
                harness::Table::Cell(block_seconds * 1e9),
                harness::Table::Cell(overhead_pct)});
  bench::PrintAndExport(table, "obs");

  // One render at the end: the exposition must lint clean after the
  // hammering above (the same invariant the unit tests assert).
  Status lint = obs::LintExposition(inst.registry.RenderPrometheus());
  if (!lint.ok()) {
    std::printf("\nexposition lint FAILED: %s\n", lint.ToString().c_str());
    return 1;
  }

  std::printf("\np50 overhead: %.2f%% (bar: <= 2%%%s)\n", overhead_pct,
              overhead_pct <= 2.0 ? ", met" : ", MISSED");
  return 0;
}
