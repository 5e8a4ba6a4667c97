#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark for two commits.

    python3 tools/ab_bench.py PARENT CHANGE [--pairs 10] [--first-seed 401]
        [--seconds 15] [--workloads oltp_inc1,synthetic_milp,serve_mixed]
    python3 tools/ab_bench.py --self-test

PARENT and CHANGE are git revisions of this repository, each exported
with `git archive` into a temporary directory, or paths to existing
checkouts (`.` measures the working tree). Each side is built and run
by its own perfbench/run.py with its own CARGO_TARGET_DIR. For every
workload the script runs PAIRS pairs on seeds FIRST_SEED, FIRST_SEED+1,
..., alternating which side runs first, and prints per end-to-end
metric the medians, quartiles and pair wins of both sides, flagging a
change median past its BENCHMARK.json bound, and a metric whose runs
spread too widely to tell: an interquartile range, on either side, wider
than that bound taken as a share of the parent median. A faster program
meets that limit only if its runs vary less in relative terms, since
the limit does not grow with the change's median. Per seed it compares
input_digest, count_digest and the failures by class.

The script reads only perfbench/ and BENCHMARK.json of the two sides.
Exit status: 0 when no metric is past its bound or spread past it, no
input digest differs and no workload's failed share grew; 1 otherwise;
2 on a usage or build error. --self-test checks the statistics and the bound
arithmetic on canned records and builds nothing.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")


def die(message):
    print("ab_bench: " + message, file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------- statistics


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    return {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
            "q3": quantile(values, 0.75)}


def relative_worsening(parent, change, better):
    """How much worse the change is than the parent, as a fraction of the
    parent (negative when it is better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def compare_metric(pairs, better, bound):
    """pairs: [(parent_value, change_value)] for one metric, one workload.

    Returns the per-side summaries, the change's pair wins, whether the
    change median is past the bound, whether the medians differ by more
    than the parent's interquartile range, and whether either side's
    interquartile range is wider than the bound taken as a share of the
    parent median (`spread_limit`): runs that spread that far cannot tell
    whether the metric moved within its bound, unless every change run
    reads better than every parent run (`apart`)."""
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    wins = sum(1 for p, c in pairs if (c < p if better == "lower" else c > p))
    if better == "lower":
        apart = max(c for _, c in pairs) < min(p for p, _ in pairs)
    else:
        apart = min(c for _, c in pairs) > max(p for p, _ in pairs)
    worse = relative_worsening(parent["median"], change["median"], better)
    iqr = parent["q3"] - parent["q1"]
    spread_limit = bound * abs(parent["median"])
    too_wide = max(iqr, change["q3"] - change["q1"]) > spread_limit
    return {"parent": parent, "change": change, "wins": wins,
            "pairs": len(pairs), "worse": worse, "past_bound": worse > bound,
            "beyond_iqr": abs(change["median"] - parent["median"]) > iqr,
            "spread_limit": spread_limit, "too_wide": too_wide,
            "apart": apart}


# ----------------------------------------------------------------- records

FAIL_RE = re.compile(r"^fail_frac \S+ \((\d+) of (\d+) attempted\)(.*)$")


def parse_run(stdout):
    """Pulls the JSON record (last line), digests and failure classes out
    of one perfbench run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty perfbench output")
    run = {"record": json.loads(lines[-1]), "failures": {}}
    for line in lines:
        key, _, value = line.partition(" ")
        if key in ("input_digest", "count_digest"):
            run[key] = value.strip()
        m = FAIL_RE.match(line)
        if m:
            run["failed"], run["attempted"] = int(m.group(1)), int(m.group(2))
            for item in m.group(3).split():
                name, _, count = item.partition("=")
                run["failures"][name] = int(count)
    return run


def metric_value(run, name):
    return run["record"]["metrics"][name]["value"]


def report(workload, runs, spec):
    """Prints one workload's comparison; returns True when it passes.

    runs: [(seed, parent_run, change_run)]."""
    ok = True
    print("== %s: %d pairs" % (workload, len(runs)))
    print("%-12s %12s %12s %12s   %12s %12s %12s  %6s %5s  %s" % (
        "metric", "parent q1", "median", "q3", "change q1", "median", "q3",
        "delta", "wins", "verdict"))
    for m in spec["end_to_end"]:
        name = m["name"]
        pairs = [(metric_value(p, name), metric_value(c, name))
                 for _, p, c in runs]
        r = compare_metric(pairs, m["better"], m["bound"])
        pm, cm = r["parent"], r["change"]
        verdict = "PAST BOUND %.0f%%" % (100 * m["bound"]) \
            if r["past_bound"] else "ok"
        if r["beyond_iqr"] and r["worse"] < 0:
            verdict += ", better beyond parent IQR"
        if r["too_wide"]:
            verdict += ", SPREAD: IQR parent %.4g, change %.4g > %.4g" % (
                pm["q3"] - pm["q1"], cm["q3"] - cm["q1"], r["spread_limit"])
            if r["apart"]:
                verdict += " (every change run reads better)"
        ok = ok and not r["past_bound"] and not r["too_wide"]
        delta = (cm["median"] - pm["median"]) / pm["median"] * 100 \
            if pm["median"] else 0.0
        print("%-12s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f  %+5.1f%% "
              "%2d/%-2d  %s" % (name, pm["q1"], pm["median"], pm["q3"],
                               cm["q1"], cm["median"], cm["q3"], delta,
                               r["wins"], r["pairs"], verdict))
    failed = {side: 0 for side in SIDES}
    attempted = {side: 0 for side in SIDES}
    for seed, p, c in runs:
        notes = []
        if p.get("input_digest") != c.get("input_digest"):
            notes.append("INPUT DIGEST DIFFERS")
            ok = False
        if p.get("count_digest") != c.get("count_digest"):
            notes.append("count_digest %s -> %s" % (p.get("count_digest"),
                                                   c.get("count_digest")))
        for name in sorted(set(p["failures"]) | set(c["failures"])):
            before = p["failures"].get(name, 0)
            after = c["failures"].get(name, 0)
            if after > before:
                notes.append("%s %d -> %d" % (name, before, after))
        for side, run in zip(SIDES, (p, c)):
            failed[side] += run.get("failed", 0)
            attempted[side] += run.get("attempted", 0)
        print("seed %-6d %s" % (seed, "; ".join(notes) if notes else
                                "same digests, no failure class grew"))
    share = {side: failed[side] / attempted[side] if attempted[side] else 0.0
             for side in SIDES}
    grew = share["change"] > share["parent"]
    ok = ok and not grew
    print("failed share: parent %d/%d, change %d/%d%s" % (
        failed["parent"], attempted["parent"], failed["change"],
        attempted["change"], "  GREW" if grew else ""))
    return ok


# --------------------------------------------------------------- running


def materialize(rev, workdir, side):
    """A directory holding `rev`: the path itself, or a git export."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    dest = os.path.join(workdir, side + "-src")
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        die("cannot export revision %r" % rev)
    return dest


def run_side(src, target, workload, seed, seconds, log_path):
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    with open(log_path + ".err", "w") as err:
        out = subprocess.run(cmd, cwd=src, env=env, stdout=subprocess.PIPE,
                             stderr=err, text=True)
    with open(log_path, "w") as f:
        f.write(out.stdout)
    if out.returncode != 0:
        die("%s exited %d (see %s)" % (" ".join(cmd), out.returncode,
                                       log_path + ".err"))
    return parse_run(out.stdout)


def load_spec(src):
    with open(os.path.join(src, "BENCHMARK.json")) as f:
        return json.load(f)


def main_ab(args):
    workdir = args.work_dir or tempfile.mkdtemp(prefix="ab_bench-")
    os.makedirs(workdir, exist_ok=True)
    srcs = {side: materialize(rev, workdir, side)
            for side, rev in zip(SIDES, (args.parent, args.change))}
    targets = {side: os.path.join(workdir, side + "-target")
               for side in SIDES}
    spec = load_spec(srcs["parent"])
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    logs = os.path.join(workdir, "logs")
    os.makedirs(logs, exist_ok=True)
    print("ab_bench: parent=%s change=%s work_dir=%s" % (
        srcs["parent"], srcs["change"], workdir), flush=True)
    # One short run per side builds its binary outside every pair.
    for side in SIDES:
        run_side(srcs[side], targets[side], workloads[0], 1, 1,
                 os.path.join(logs, "build-%s.log" % side))
    all_ok = True
    results = {}
    for workload in workloads:
        runs = []
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            got = {}
            for side in order:
                got[side] = run_side(
                    srcs[side], targets[side], workload, seed, args.seconds,
                    os.path.join(logs, "%s-%d-%s.log" % (workload, seed,
                                                         side)))
            runs.append((seed, got["parent"], got["change"]))
            print("  %s seed %d done (%s first)" % (workload, seed, order[0]),
                  flush=True)
        all_ok = report(workload, runs, spec) and all_ok
        results[workload] = [{"seed": s, "parent": p, "change": c}
                             for s, p, c in runs]
    with open(os.path.join(workdir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
    print("ab_bench: %s; records in %s" % (
        "PASS" if all_ok else "FAIL", os.path.join(workdir, "results.json")))
    if not args.work_dir:  # keep the logs and records, drop the builds
        for side in SIDES:
            shutil.rmtree(os.path.join(workdir, side + "-src"),
                          ignore_errors=True)
            shutil.rmtree(targets[side], ignore_errors=True)
    return 0 if all_ok else 1


# --------------------------------------------------------------- self-test


def canned_run(metrics, input_digest="a", count_digest="b", failed=0):
    record = {"correct": True, "attempted": 100, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return "\n".join([
        "input_digest %s" % input_digest,
        "count_digest %s" % count_digest,
        "fail_frac %.6f (%d of 100 attempted) unverified=%d wrong_query=0" % (
            failed / 100.0, failed, failed),
        "diag_p50_ms 1 ms",
        json.dumps(record)])


def self_test():
    checks = []

    def check(name, cond):
        checks.append((name, bool(cond)))

    xs = list(range(1, 11))
    check("median of 1..10 is 5.5", quantile(xs, 0.5) == 5.5)
    check("q1 of 1..10 is 3.25", quantile(xs, 0.25) == 3.25)
    check("q3 of 1..10 is 7.75", quantile(xs, 0.75) == 7.75)
    check("order does not matter",
          quantile([9, 1, 5, 3, 7], 0.5) == 5 and
          quantile([9, 1, 5, 3, 7], 0.25) == 3)
    check("one value is every quantile", summary([4.0]) ==
          {"q1": 4.0, "median": 4.0, "q3": 4.0})

    lower = [(100.0, 126.0)] * 10
    check("lower-better +26% is past a 25% bound",
          compare_metric(lower, "lower", 0.25)["past_bound"])
    check("lower-better +24% is within a 25% bound",
          not compare_metric([(100.0, 124.0)] * 10, "lower",
                             0.25)["past_bound"])
    check("higher-better -26% is past a 25% bound",
          compare_metric([(100.0, 74.0)] * 10, "higher", 0.25)["past_bound"])
    check("higher-better +50% is not past any bound",
          not compare_metric([(100.0, 150.0)] * 10, "higher",
                             0.0)["past_bound"])
    check("ok_frac 0.99 -> 0.96 is past a 3% bound",
          compare_metric([(0.99, 0.96)] * 10, "higher", 0.03)["past_bound"])

    parent = [60.0, 58.0, 61.0, 59.0, 62.0, 57.0, 60.5, 59.5, 58.5, 61.5]
    change = [12.0, 11.5, 12.5, 11.8, 12.2, 70.0, 11.9, 12.1, 11.7, 12.3]
    r = compare_metric(list(zip(parent, change)), "lower", 0.25)
    check("wins count pairs the change improved", r["wins"] == 9)
    check("a 5x faster median is beyond the parent IQR", r["beyond_iqr"])
    check("and is not past the bound", not r["past_bound"])
    check("runs inside a quarter of the parent median are not too wide",
          not r["too_wide"] and abs(r["spread_limit"] - 14.9375) < 1e-9)
    r = compare_metric([(p, p + 0.1) for p in parent], "lower", 0.25)
    check("a shift inside the IQR is not beyond it", not r["beyond_iqr"])
    # A 4.7x higher throughput whose runs vary by 16% in the middle half:
    # the spread limit stays a quarter of the parent's median.
    parent_tp = [11.8 + 0.25 * (k % 5) for k in range(10)]
    change_tp = [55.0 + 2.0 * (k - 4.5) for k in range(10)]
    r = compare_metric(list(zip(parent_tp, change_tp)), "higher", 0.25)
    check("a wide change spread is too wide",
          r["too_wide"] and not r["past_bound"])
    check("runs that do not overlap are apart", r["apart"])
    check("the spread limit is the bound times the parent median",
          abs(r["spread_limit"] - 0.25 * 12.3) < 1e-9)
    r = compare_metric([(10.0 + 3.0 * (k % 2), 10.0) for k in range(10)],
                       "lower", 0.25)
    check("a wide parent spread is too wide as well", r["too_wide"])
    check("overlapping runs are not apart", not r["apart"])
    check("ties are no win", compare_metric([(1.0, 1.0)], "lower",
                                            0.25)["wins"] == 0)

    run = parse_run(canned_run({"diag_p50_ms": 11.9}, "d1", "c1", 2))
    check("record parsed", metric_value(run, "diag_p50_ms") == 11.9)
    check("digests parsed",
          run["input_digest"] == "d1" and run["count_digest"] == "c1")
    check("failures parsed", run["failed"] == 2 and run["attempted"] == 100
          and run["failures"] == {"unverified": 2, "wrong_query": 0})

    spec = {"end_to_end": [{"name": "diag_p50_ms", "better": "lower",
                            "bound": 0.25}]}
    quiet = open(os.devnull, "w")
    stdout, sys.stdout = sys.stdout, quiet
    try:
        same = [(s, parse_run(canned_run({"diag_p50_ms": 10.0})),
                 parse_run(canned_run({"diag_p50_ms": 10.5})))
                for s in range(10)]
        slower = [(s, parse_run(canned_run({"diag_p50_ms": 10.0})),
                   parse_run(canned_run({"diag_p50_ms": 13.0})))
                  for s in range(10)]
        digest = [(0, parse_run(canned_run({"diag_p50_ms": 10.0}, "x")),
                   parse_run(canned_run({"diag_p50_ms": 10.0}, "y")))]
        failing = [(0, parse_run(canned_run({"diag_p50_ms": 10.0})),
                    parse_run(canned_run({"diag_p50_ms": 10.0}, failed=1)))]
        wide = [(s, parse_run(canned_run({"diag_p50_ms": 10.0})),
                 parse_run(canned_run({"diag_p50_ms": v})))
                for s, v in enumerate([7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0,
                                       6.0, 14.0, 10.0])]
        verdicts = [report("w", runs, spec)
                    for runs in (same, slower, digest, failing, wide)]
    finally:
        sys.stdout = stdout
        quiet.close()
    check("a +5% median passes", verdicts[0])
    check("a +30% median fails", not verdicts[1])
    check("a different input digest fails", not verdicts[2])
    check("a grown failed share fails", not verdicts[3])
    check("a median inside its bound with too wide a spread fails",
          not verdicts[4])

    for name, passed in checks:
        print("%s  %s" % ("ok  " if passed else "FAIL", name))
    failed = [name for name, passed in checks if not passed]
    print("ab_bench self-test: %d checks, %d failed" % (len(checks),
                                                        len(failed)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=401)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--work-dir", default="",
                        help="keep exports, builds and logs here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("PARENT and CHANGE are required")
    if args.pairs < 1 or not 1 <= args.seconds <= 3600:
        parser.error("--pairs or --seconds out of range")
    return main_ab(args)


if __name__ == "__main__":
    sys.exit(main())
