#!/usr/bin/env python3
"""GoFlow repository benchmark.

Run one workload (builds the benchmark first, from the repository's
sources, into $CARGO_TARGET_DIR or .bench_build):

    python3 perfbench/run.py --workload campaign|uplink|failover \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed.

Other commands:

    python3 perfbench/run.py series --seeds 1-10 --out a.jsonl
        runs every workload once per seed (untraced, for BENCHMARK.json's
        run_seconds) and appends one {"workload", "seed", "result"} line
        per run to the file;
    python3 perfbench/run.py compare a.jsonl b.jsonl
        prints, per (workload, end-to-end metric), both sets' medians and
        quartiles and whether they agree within the metric's bound; fails
        when a workload or metric has fewer than two runs in either set;
    python3 perfbench/run.py selftest
        builds and runs the output-check and statistics tests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "uplink", "failover")

sys.dont_write_bytecode = True  # leave nothing but .bench_build behind
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir(), "goflow_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_series(argv):
    p = argparse.ArgumentParser(prog="run.py series")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    seconds = load_spec()["run_seconds"]
    if not build():
        return 1
    status = 0
    with open(args.out, "a") as f:
        for seed in parse_seeds(args.seeds):
            for workload in WORKLOADS:
                code, text = run_workload(workload, seed, seconds, 0)
                lines = text.strip().splitlines()
                if code != 0 or not lines:
                    sys.stderr.write(text)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "result": result}) + "\n")
                f.flush()
                print(workload, seed, json.dumps(result["metrics"]))
    return status


def load_series(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row["result"])
    return runs


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("first")
    p.add_argument("second")
    args = p.parse_args(argv)
    spec = load_spec()
    first, second = load_series(args.first), load_series(args.second)
    ok = True
    print("%-9s %-12s %5s %14s %14s %8s %8s %7s %6s" % (
        "workload", "metric", "runs", "median 1", "median 2", "spread1",
        "spread2", "worse", "agree"))
    for workload in WORKLOADS:
        a, b = first.get(workload, []), second.get(workload, [])
        if len(a) < 2 or len(b) < 2:
            print("%-9s has %d and %d runs; at least 2 each needed" % (
                workload, len(a), len(b)))
            ok = False
            continue
        share_a = {r["failed"] / r["attempted"] for r in a}
        share_b = {r["failed"] / r["attempted"] for r in b}
        if share_a != share_b or len(share_a) != 1:
            print("%-9s failed share differs: %s vs %s" % (
                workload, sorted(share_a), sorted(share_b)))
            ok = False
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a
                  if m["name"] in r["metrics"]]
            vb = [r["metrics"][m["name"]]["value"] for r in b
                  if m["name"] in r["metrics"]]
            if len(va) != len(a) or len(vb) != len(b):
                print("%-9s %-12s missing from %d and %d runs" % (
                    workload, m["name"], len(a) - len(va), len(b) - len(vb)))
                ok = False
                continue
            q_a, q_b = stats.quartiles(va), stats.quartiles(vb)
            worse = stats.worse_by(q_a[1], q_b[1], m["better"])
            steady = (stats.spread(va) <= m["bound"] and
                      stats.spread(vb) <= m["bound"])
            agreed = worse <= m["bound"] and steady
            ok = ok and agreed
            print("%-9s %-12s %2d/%-2d %14.6g %14.6g %7.1f%% %7.1f%% %6.1f%% %6s" % (
                workload, m["name"], len(va), len(vb), q_a[1], q_b[1],
                100 * stats.spread(va), 100 * stats.spread(vb), 100 * worse,
                "yes" if agreed else "NO"))
            print("%-9s %-12s %5s q1/q3 %.6g/%.6g vs %.6g/%.6g (bound %.0f%%)" % (
                "", "", "", q_a[0], q_a[2], q_b[0], q_b[2], 100 * m["bound"]))
    return 0 if ok else 1


def cmd_selftest(argv):
    if argv or not build():
        return 1
    code = subprocess.call([os.path.join(build_dir(), "perfbench_selftest")])
    suite = subprocess.call([sys.executable, "-m", "unittest", "-q",
                             os.path.join(HERE, "test_stats.py")], cwd=HERE)
    return code or suite


def main(argv):
    if argv and argv[0] in ("series", "compare", "selftest"):
        return {"series": cmd_series, "compare": cmd_compare,
                "selftest": cmd_selftest}[argv[0]](argv[1:])
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not build():
        sys.stderr.write("benchmark build failed\n")
        return 1
    code, text = run_workload(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
