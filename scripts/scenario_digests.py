#!/usr/bin/env python3
"""Scenario fingerprint gate: every scenario's cold output, pinned by sha256.

Runs each registered scenario cold,

    mixnet-bench --run <name> --no-cache --format json

and compares the sha256 of its output with bench/scenario_digests.json, which
also records the kCacheSchemaVersion (src/exp/cache_key.h) the digests were
taken at. A change that moves any output fails here, naming the scenario and
saying whether the schema version moved with it. A behaviour change that the
result cache would otherwise serve stale needs both: a schema bump and
re-recorded digests.

The digests are recorded with a GCC Release build and the default
MIXNET_FIG26XL_ARM=small. The fast-math TU (src/common/simd_math.cc) rounds
differently under other toolchains, so the comparison runs only when the
build directory's compiler is GCC and its build type Release; otherwise it
prints that it was skipped and exits 0.

Usage:
  scripts/scenario_digests.py [--build DIR] [--jobs N]   compare (exit 1 on
                                                         a mismatch)
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "bench", "scenario_digests.json")
SCHEMA_HEADER = os.path.join(ROOT, "src", "exp", "cache_key.h")


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


def digests(bench, jobs):
    listing = json.loads(subprocess.run(
        [bench, "--list", "--format", "json"], check=True,
        capture_output=True, text=True).stdout)
    env = dict(os.environ, MIXNET_FIG26XL_ARM="small")
    out = {}
    for s in listing["scenarios"]:
        name = s["name"]
        run = subprocess.run(
            [bench, "--run", name, "--no-cache", "--format", "json",
             "--jobs", str(jobs)],
            check=True, capture_output=True, env=env)
        out[name] = hashlib.sha256(run.stdout).hexdigest()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default=os.path.join(ROOT, "build"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--write", action="store_true",
                    help="re-record bench/scenario_digests.json")
    args = ap.parse_args()

    cxx_id, cxx_version, build_type = toolchain(args.build)
    if cxx_id != "GNU" or build_type != "Release":
        print(f"scenario digests: skipped ({cxx_id or 'unknown'} "
              f"{build_type or 'unknown'} build; digests are recorded with "
              "GCC Release)")
        return 0
    bench = os.path.join(args.build, "bench", "mixnet-bench")
    got = digests(bench, args.jobs)
    schema = schema_version()

    if args.write:
        record = {
            "schema_version": schema,
            "recorded_with": f"GNU {cxx_version} Release, MIXNET_FIG26XL_ARM=small",
            "command": "mixnet-bench --run <name> --no-cache --format json",
            "scenarios": got,
        }
        with open(RECORD, "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")
        print(f"scenario digests: recorded {len(got)} scenarios at schema "
              f"version {schema} in {os.path.relpath(RECORD, ROOT)}")
        return 0

    with open(RECORD) as f:
        record = json.load(f)
    want = record["scenarios"]
    bad = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            bad.append(f"{name}: recorded but no longer registered")
        elif name not in want:
            bad.append(f"{name}: registered but has no recorded digest")
        elif got[name] != want[name]:
            bad.append(f"{name}: output digest {got[name][:12]}... differs "
                       f"from recorded {want[name][:12]}...")
    if not bad:
        print(f"scenario digests: {len(got)} scenarios match "
              f"(schema version {schema})")
        return 0
    for line in bad:
        print(f"scenario digests: {line}", file=sys.stderr)
    if schema != record["schema_version"]:
        print(f"scenario digests: kCacheSchemaVersion moved "
              f"{record['schema_version']} -> {schema}; re-record with "
              "scripts/scenario_digests.py --write", file=sys.stderr)
    else:
        print(f"scenario digests: kCacheSchemaVersion is still {schema}: an "
              "output changed without a schema bump (recorded with "
              f"{record['recorded_with']}; this build is GNU {cxx_version})",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
