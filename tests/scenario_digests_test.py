#!/usr/bin/env python3
"""Unit tests of the figure pass's comparison logic (scripts/scenario_digests.py).

Pure Python over hand-made runs and records: no built binary is needed.
"""
import hashlib
import importlib.util
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "scenario_digests", os.path.join(ROOT, "scripts", "scenario_digests.py"))
sd = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sd)


def stats(points=80, built=4, shared=76, replays=4, solves=0, arrivals=0):
    """One scenario's --stats entry, as mixnet-bench writes it."""
    return {"name": "x", "points": points, "hits": 0, "computed": points,
            "skipped": 0, "failed": 0, "copilot_solves": solves,
            "pkt_arrivals": arrivals,
            "gate_traces": {"built": built, "shared": shared,
                            "initial_replays": replays}}


def run(out=b"[]\n", **counters):
    return sd.summarize(0, out, "", stats(**counters))


def record(schema=5, **scenarios):
    return {"schema_version": schema, "recorded_with": "GNU 12.2.0 Release",
            "scenarios": scenarios}


class CompareTest(unittest.TestCase):
    def test_identical_run_passes(self):
        got = {"fig12": run(), "serve-storm": run(points=2, built=0, shared=0,
                                                  replays=0, solves=24)}
        self.assertEqual(sd.compare(record(**got), got, 5, exact=True), [])

    def test_summarize_keeps_the_digest_and_the_pinned_counters(self):
        self.assertEqual(run(b"[]\n"), {
            "sha256": hashlib.sha256(b"[]\n").hexdigest(),
            "points": 80,
            "gate_traces": {"built": 4, "shared": 76, "initial_replays": 4},
            "copilot_solves": 0, "pkt_arrivals": 0})

    def test_digest_mismatch_names_the_scenario(self):
        bad = sd.compare(record(fig12=run(b"old")), {"fig12": run(b"new")}, 5,
                         exact=True)
        self.assertEqual(len(bad), 2)
        self.assertRegex(bad[0], r"^fig12: output sha256 \w{12}\.\.\. differs "
                                 r"from recorded \w{12}\.\.\.$")
        self.assertIn("kCacheSchemaVersion is still 5", bad[1])

    def test_counter_mismatch_names_scenario_counter_and_both_values(self):
        bad = sd.compare(record(fig12=run(replays=4)),
                         {"fig12": run(replays=80)}, 5, exact=True)
        self.assertEqual(
            bad, ["fig12: gate_traces.initial_replays is 80, recorded 4"])

    def test_numeric_counters_and_digests_only_on_exact_builds(self):
        want = record(ladder=run(b"a", arrivals=23659264))
        got = {"ladder": run(b"b", arrivals=28000000)}
        self.assertEqual(sd.compare(want, got, 5, exact=False), [])
        self.assertIn("ladder: pkt_arrivals is 28000000, recorded 23659264",
                      sd.compare(want, got, 5, exact=True))
        # Structural counters hold on every build.
        got = {"ladder": run(b"a", arrivals=23659264, built=6)}
        self.assertEqual(sd.compare(want, got, 5, exact=False),
                         ["ladder: gate_traces.built is 6, recorded 4"])

    def test_recorded_but_unregistered_and_the_reverse(self):
        bad = sd.compare(record(fig12=run()), {"fig99": run()}, 5, exact=True)
        self.assertEqual(bad, ["fig12: recorded but no longer registered",
                               "fig99: registered but not recorded"])

    def test_schema_moved_message(self):
        bad = sd.compare(record(schema=5, fig12=run(b"old")),
                         {"fig12": run(b"new")}, 6, exact=True)
        self.assertEqual(bad[-1], "kCacheSchemaVersion moved 5 -> 6; re-record "
                                  "with scripts/scenario_digests.py --write")

    def test_counter_only_change_says_nothing_about_the_schema(self):
        bad = sd.compare(record(fig12=run(built=4)), {"fig12": run(built=5)},
                         6, exact=True)
        self.assertEqual(bad, ["fig12: gate_traces.built is 5, recorded 4"])

    def test_failing_check_fails_the_pass(self):
        failed = sd.summarize(
            3, b"[]\n",
            "shape check FAILED [fig12]: TopoOpt not slower at 100 Gbps\n"
            "shape check OK [fig13]\n", stats())
        bad = sd.compare(record(fig12=run()), {"fig12": failed}, 5, exact=False)
        self.assertEqual(bad, [
            "fig12: mixnet-bench exited 3: shape check FAILED [fig12]: "
            "TopoOpt not slower at 100 Gbps"])


if __name__ == "__main__":
    unittest.main()
