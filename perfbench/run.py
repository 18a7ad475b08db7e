#!/usr/bin/env python3
"""Repository benchmark: one seeded sweep workload of the MixNet simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-sweep --seed 1 --seconds 20 --trace 0

Builds the harness (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when unset, then:

  --trace 0  runs the workload's sweep passes (single worker thread, a fresh
             result cache per pass) and its set-up, each in three concurrent
             processes, and reports the end-to-end metrics: wall_s, setup_s
             and peak_rss_mb.
  --trace 1  runs the traced per-layer replay of the workload's
             representative points and reports every per-layer metric.

Human-readable report lines go first (including sim_digest, point_s.p50,
point_s.tail, iters_per_s, requests_per_s and failed_frac); the last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}. Any
build or harness failure exits non-zero without printing that line.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The sweep and the set-up are each measured by this many concurrent harness
# processes, and every point reports its median across them. On a shared
# host a vCPU can run 1.5x slower than its neighbours for seconds at a time;
# the median of three processes on different vCPUs drops the slow one.
REPLICAS = 3
# Every run must end well inside 180 s.
TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("simulator sources not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=900)
    return os.path.join(out, "perfbench")


def drive(binary, *argsets):
    """Run one harness process per argument list, all at once; returns each
    one's last stdout line parsed as JSON."""
    procs = [subprocess.Popen([binary, *a], stdout=subprocess.PIPE, text=True)
             for a in argsets]
    try:
        outs = [p.communicate(timeout=TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    for p, a in zip(procs, argsets):
        if p.returncode != 0:
            raise subprocess.CalledProcessError(p.returncode, [binary, *a])
    return [json.loads(o.strip().splitlines()[-1]) for o in outs]


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(samples):
    """Highest order statistic with at least ten samples beyond it, with its
    percentile; None when that is not even the median."""
    n = len(samples)
    if n < 20:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def point_medians(runs):
    """Each point's median across runs (lists of per-point seconds)."""
    return [statistics.median(x) for x in zip(*runs)]


def end_to_end(binary, args, workdir):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    sweeps = drive(binary, *(["sweep", *common, "--seconds", str(args.seconds),
                              "--workdir", tempfile.mkdtemp(dir=workdir)]
                             for _ in range(REPLICAS)))
    setups = drive(binary, *(["setup", *common] for _ in range(REPLICAS)))
    passes = [p for s in sweeps for p in s["passes"]]
    points = [t for p in passes for t in p["points_s"]]
    # A point's time: its median over a process's passes, then over processes.
    per_point = point_medians(point_medians(p["points_s"] for p in s["passes"])
                              for s in sweeps)
    # Point generation plus the warm cache pass.
    remainder = statistics.median(p["wall_s"] - sum(p["points_s"]) for p in passes)
    wall_s = sum(per_point) + remainder
    setup_s = sum(point_medians(s["points_s"] for s in setups))
    metrics = {
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in sweeps), "MB"),
    }
    sweep = sweeps[0]
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    messages = [m for s in sweeps for m in s["messages"]]
    digests = {s["sim_digest"] for s in sweeps}
    if len(digests) > 1:
        messages.append(f"sim_digest differs between processes: {sorted(digests)}")
    print(f"workload {args.workload} seed {args.seed}: {REPLICAS} processes, "
          f"{len(passes)} passes, {len(points)} point samples")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  point_s.p50 = {statistics.median(per_point):.6g} s "
          f"(median over {len(per_point)} points)")
    t = tail(points)
    if t:
        print(f"  point_s.tail = {t[0]:.6g} s (p{t[1]:.1f} of {len(points)} samples)")
    else:
        print(f"  point_s.tail omitted: {len(points)} samples cannot put ten beyond the median")
    busy_s = wall_s - setup_s
    if sweep["iterations"] > 0 and busy_s > 0:
        print(f"  iters_per_s = {sweep['iterations'] / busy_s:.6g} 1/s "
              f"({sweep['iterations']:.0f} iterations per pass, set-up excluded)")
    if sweep["requests"] > 0:
        print(f"  requests_per_s = {sweep['requests'] / wall_s:.6g} 1/s "
              f"({sweep['requests']:.0f} requests per pass)")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} points)")
    print(f"  sim_digest = {sweep['sim_digest']}")
    for msg in messages:
        print(f"  FAIL {msg}")
    return not messages and failed == 0, attempted, failed, metrics


def per_layer(binary, args, workdir):
    trace, = drive(binary, ["trace", "--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--workdir", workdir])
    with open(os.path.join(HERE, "claims.json")) as f:
        expected = json.load(f)["workloads"][args.workload]["largest_layer"]
    print(f"workload {args.workload} seed {args.seed}: traced replay")
    for layer, ms in sorted(trace["layer_ms"].items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:<10} {ms:12.3f} ms")
    verdict = "matches" if trace["largest_layer"] == expected else "DIFFERS FROM"
    print(f"  largest layer {trace['largest_layer']} {verdict} the recorded wall "
          f"{expected} (claims.json)")
    for name, m in trace["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for msg in trace["messages"]:
        print(f"  FAIL {msg}")
    return (not trace["messages"] and trace["failed"] == 0, trace["attempted"],
            trace["failed"], trace["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError, RuntimeError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = run(binary, args, workdir)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: run failed: {e}")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
