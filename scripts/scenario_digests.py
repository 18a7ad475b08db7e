#!/usr/bin/env python3
"""The figure pass: every scenario once, cold, pinned by digest and work counters.

Runs each registered scenario in its own process,

    mixnet-bench --run <name> --no-cache --format json --check --stats FILE

and compares the run with bench/scenario_digests.json (DESIGN.md §9). The
run must exit 0, so its shape check passes. The structural counters
(`points`, `gate_traces.*`) must equal the record on every build. The output
sha256 and the numeric counters (`copilot_solves`, `pkt_arrivals`) must equal
it on a GCC Release build: the record is taken with one, and the fast-math
TU (src/common/simd_math.cc) rounds differently under other toolchains.

The counters pin the work behind the output, so a change that keeps every
byte but stops sharing a gate trace still fails, naming the scenario, the
counter and both values. A digest mismatch also says whether
kCacheSchemaVersion (src/exp/cache_key.h), which the record keeps, moved.
Each run's seconds go to BENCH_verify.json beside its counters; nothing
gates on them.

Usage:
  scripts/scenario_digests.py [--build DIR] [--jobs N]   compare (exit 1 on
                                                         any mismatch)
  scripts/scenario_digests.py --write [--build DIR] [--jobs N]
                                                         re-record the file
"""
import argparse
import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "bench", "scenario_digests.json")
SCHEMA_HEADER = os.path.join(ROOT, "src", "exp", "cache_key.h")
TRAJECTORY = os.path.join(ROOT, "BENCH_verify.json")

# (--stats counter, structural?). Structural counters follow from how the
# sweeps are built and hold on every toolchain; the others count work whose
# amount follows the simulated numbers. A new counter joins the gate by being
# listed here and re-recorded with --write.
COUNTERS = (
    ("points", True),
    ("gate_traces.built", True),
    ("gate_traces.shared", True),
    ("gate_traces.initial_replays", True),
    ("copilot_solves", False),
    ("pkt_arrivals", False),
)


def schema_version():
    with open(SCHEMA_HEADER) as f:
        m = re.search(r"kCacheSchemaVersion\s*=\s*(\d+)", f.read())
    if not m:
        sys.exit(f"scenario_digests: no kCacheSchemaVersion in {SCHEMA_HEADER}")
    return int(m.group(1))


def toolchain(build):
    """(compiler id, compiler version, build type) of a configured build dir."""
    cxx_id = cxx_version = build_type = ""
    for path in glob.glob(os.path.join(build, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        m = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        cxx_id = m.group(1) if m else cxx_id
        m = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        cxx_version = m.group(1) if m else cxx_version
    cache = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", f.read(), re.M)
        build_type = m.group(1) if m else ""
    return cxx_id, cxx_version, build_type


def counter(entry, name):
    """A dotted counter name looked up in a nested entry (None if absent)."""
    for key in name.split("."):
        if not isinstance(entry, dict) or key not in entry:
            return None
        entry = entry[key]
    return entry


def summarize(returncode, stdout, stderr, stats):
    """One run as the record keeps it: its sha256 and pinned counters, or
    `error` when mixnet-bench exited non-zero (with its failure lines)."""
    if returncode != 0:
        lines = [l for l in stderr.splitlines() if "FAILED" in l or "failed" in l]
        detail = "; ".join(lines or stderr.splitlines()[-3:])
        return {"error": f"mixnet-bench exited {returncode}: {detail}"}
    entry = {"sha256": hashlib.sha256(stdout).hexdigest()}
    for name, _ in COUNTERS:
        *parents, leaf = name.split(".")
        node = entry
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = counter(stats, name)
    return entry


def compare(record, got, schema, exact):
    """Every difference between this pass and the record, one line each;
    empty when the pass holds. `exact` adds the digests and the numeric
    counters (GCC Release builds only)."""
    want = record["scenarios"]
    bad = []
    digest_moved = False
    for name in sorted(set(want) | set(got)):
        if name not in got:
            bad.append(f"{name}: recorded but no longer registered")
            continue
        if name not in want:
            bad.append(f"{name}: registered but not recorded")
            continue
        g, w = got[name], want[name]
        if "error" in g:
            bad.append(f"{name}: {g['error']}")
            continue
        if exact and g["sha256"] != w["sha256"]:
            digest_moved = True
            bad.append(f"{name}: output sha256 {g['sha256'][:12]}... differs "
                       f"from recorded {w['sha256'][:12]}...")
        for c, structural in COUNTERS:
            if (structural or exact) and counter(g, c) != counter(w, c):
                bad.append(f"{name}: {c} is {counter(g, c)}, recorded "
                           f"{counter(w, c)}")
    if digest_moved and schema != record["schema_version"]:
        bad.append(f"kCacheSchemaVersion moved {record['schema_version']} -> "
                   f"{schema}; re-record with scripts/scenario_digests.py --write")
    elif digest_moved:
        bad.append(f"kCacheSchemaVersion is still {schema}: an output changed "
                   f"without a schema bump (recorded with "
                   f"{record['recorded_with']})")
    return bad


def run_all(bench, jobs):
    """{name: summarized run} and {name: wall seconds} over the registry."""
    listing = json.loads(subprocess.run(
        [bench, "--list", "--format", "json"], check=True,
        capture_output=True, text=True).stdout)
    got, seconds = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = os.path.join(tmp, "stats.json")
        for s in listing["scenarios"]:
            name = s["name"]
            start = time.monotonic()
            run = subprocess.run(
                [bench, "--run", name, "--no-cache", "--format", "json",
                 "--check", "--stats", stats_path, "--jobs", str(jobs)],
                capture_output=True)
            seconds[name] = time.monotonic() - start
            stats = None
            if run.returncode == 0:
                with open(stats_path) as f:
                    stats = json.load(f)["scenarios"][0]
            got[name] = summarize(run.returncode, run.stdout,
                                  run.stderr.decode(errors="replace"), stats)
    return got, seconds


def write_trajectory(got, seconds, jobs):
    scenarios = []
    for name, entry in got.items():
        row = {"name": name, "seconds": round(seconds[name], 3)}
        row.update({k: v for k, v in entry.items() if k != "sha256"})
        scenarios.append(row)
    with open(TRAJECTORY, "w") as f:
        json.dump({"suite": "figures", "jobs": jobs, "scenarios": scenarios,
                   "total_seconds": round(sum(seconds.values()), 3)}, f)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default=os.path.join(ROOT, "build"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--write", action="store_true",
                    help="re-record bench/scenario_digests.json")
    args = ap.parse_args()

    cxx_id, cxx_version, build_type = toolchain(args.build)
    exact = cxx_id == "GNU" and build_type == "Release"
    if args.write and not exact:
        print(f"scenario digests: cannot record on a {cxx_id or 'unknown'} "
              f"{build_type or 'unknown'} build; the record is taken with "
              "GCC Release", file=sys.stderr)
        return 1
    bench = os.path.join(args.build, "bench", "mixnet-bench")
    got, seconds = run_all(bench, args.jobs)
    write_trajectory(got, seconds, args.jobs)
    for name, entry in got.items():
        print(f"figures {name:<16} {seconds[name]:5.2f} s  "
              + (entry.get("error") or
                 " ".join(f"{c}={counter(entry, c)}" for c, _ in COUNTERS)))
    print(f"figures total {sum(seconds.values()):.2f} s (advisory; wrote "
          f"{os.path.relpath(TRAJECTORY, ROOT)})")
    schema = schema_version()

    if args.write:
        failed = [e["error"] for e in got.values() if "error" in e]
        if failed:
            for line in failed:
                print(f"scenario digests: {line}", file=sys.stderr)
            print("scenario digests: not recorded", file=sys.stderr)
            return 1
        head = json.dumps({
            "schema_version": schema,
            "recorded_with": f"GNU {cxx_version} Release",
            "command": "mixnet-bench --run <name> --no-cache --format json "
                       "--check --stats FILE",
        }, indent=2)
        rows = ",\n".join(f"    {json.dumps(n)}: {json.dumps(e)}"
                          for n, e in got.items())
        with open(RECORD, "w") as f:  # one scenario a line, for readable diffs
            f.write(f'{head[:-2]},\n  "scenarios": {{\n{rows}\n  }}\n}}\n')
        print(f"scenario digests: recorded {len(got)} scenarios at schema "
              f"version {schema} in {os.path.relpath(RECORD, ROOT)}")
        return 0

    with open(RECORD) as f:
        record = json.load(f)
    bad = compare(record, got, schema, exact)
    for line in bad:
        print(f"scenario digests: {line}", file=sys.stderr)
    if bad:
        return 1
    if exact:
        print(f"scenario digests: {len(got)} scenarios pass their checks and "
              f"match every digest and counter (schema version {schema})")
    else:
        print(f"scenario digests: {len(got)} scenarios pass their checks and "
              f"match the structural counters; digests, copilot_solves and "
              f"pkt_arrivals skipped ({cxx_id or 'unknown'} "
              f"{build_type or 'unknown'} build; recorded with GCC Release)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
