#!/usr/bin/env python3
"""Self-tests for tools/mixnet_lint.py (DESIGN.md §10).

Three kinds of coverage:

  * the real tree passes all three analyzers (the gate CI runs is green);
  * fixture trees under tests/lint/fixtures/ each contain one known
    violation class (illegal DAG edge + CMake drift, dropped cache-key
    field, banned nondeterminism call, Release-silent assert, unordered
    container in an emit path) and must fail with the precise diagnostic;
  * the acceptance loop: deleting ANY single field-serialization line from
    the real src/exp/cache_key.cc, or from the gate-trace key in
    src/moe/gate_trace.cc, must turn the cache-key analyzer red.

Run directly (`python3 tests/lint_test.py`) or via CTest (`lint_test`).
"""

import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "tools" / "mixnet_lint.py"
FIXTURES = ROOT / "tests" / "lint" / "fixtures"

sys.path.insert(0, str(ROOT / "tools"))
import mixnet_lint  # noqa: E402


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


class RealTree(unittest.TestCase):
    def test_all_analyzers_clean(self):
        code, out, err = run_lint()
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertIn("clean [dag, cache-key, determinism]", out)

    def test_analyzer_subset_selection(self):
        code, out, _ = run_lint("dag")
        self.assertEqual(code, 0)
        self.assertIn("clean [dag]", out)


class DagFixture(unittest.TestCase):
    FIX = FIXTURES / "dag_violation"

    def run_fixture(self):
        return run_lint("dag", "--root", str(self.FIX),
                        "--layers", str(self.FIX / "layers.json"))

    def test_upward_include_edge_fails_with_precise_diagnostic(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn(
            "src/common/bad.cc:1: [dag] include edge 'common' -> 'exp'", out)
        self.assertIn("declared deps of 'common': <none>", out)

    def test_cmake_deps_drift_is_reported(self):
        _, out, _ = self.run_fixture()
        self.assertIn("src/common/CMakeLists.txt:1: [dag]", out)
        self.assertIn("drift", out)
        self.assertIn("not in layer graph: {exp}", out)

    def test_commented_include_does_not_register_an_edge(self):
        # src/exp/high.h mentions an include inside a comment; the only
        # diagnostics must be the two real ones.
        _, out, _ = self.run_fixture()
        diags = [l for l in out.splitlines() if ": [dag]" in l]
        self.assertEqual(len(diags), 2, out)

    def test_cycle_in_layer_graph_is_a_config_error(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            f.write('{"layers": {"common": ["exp"], "exp": ["common"]}}')
            f.flush()
            code, _, err = run_lint("dag", "--root", str(self.FIX),
                                    "--layers", f.name)
        self.assertEqual(code, 2)
        self.assertIn("cycle", err)


class CacheKeyFixture(unittest.TestCase):
    FIX = FIXTURES / "cache_key_missing"

    def run_fixture(self):
        return run_lint("cache-key", "--root", str(self.FIX),
                        "--cache-key-config", str(self.FIX / "cache_key.json"))

    def test_dropped_fields_fail_with_field_names_and_lines(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn("src/sim/training_sim.h:14: [cache-key] TrainingConfig "
                      "field 'beta' is not serialized", out)
        self.assertIn("field 'nest.delta' is not serialized", out)

    def test_stale_serializer_line_is_reported(self):
        _, out, _ = self.run_fixture()
        self.assertIn("serialized field 'cfg.ghost' does not exist", out)

    def test_allowlisted_field_and_serialized_fields_do_not_fire(self):
        _, out, _ = self.run_fixture()
        self.assertNotIn("'display_name'", out)
        self.assertNotIn("'alpha'", out)
        self.assertNotIn("'nest.gamma'", out)
        diags = [l for l in out.splitlines() if ": [cache-key]" in l]
        self.assertEqual(len(diags), 3, out)  # beta, nest.delta, ghost


class CacheKeyAcceptance(unittest.TestCase):
    def test_deleting_any_serialization_line_turns_the_gate_red(self):
        # The DESIGN.md §9 acceptance criterion, exhaustively: for every
        # `w.field("<name>", cfg.<path>)` line in the real cache_key.cc,
        # removing just that line must produce a cache-key violation naming
        # that path. Runs in-process (one subprocess per field would
        # dominate the suite's wall time).
        impl = ROOT / "src" / "exp" / "cache_key.cc"
        lines = impl.read_text().splitlines(keepends=True)
        field_lines = [
            (i, m.group(1))
            for i, l in enumerate(lines)
            for m in [re.search(r'w\.field\("[^"]+",\s*cfg\.([\w.]+)\)', l)]
            if m
        ]
        self.assertGreaterEqual(len(field_lines), 43,
                                "cache_key.cc lost its field lines?")
        with tempfile.TemporaryDirectory() as td:
            mutated = Path(td) / "cache_key_mut.cc"
            for i, path in field_lines:
                mutated.write_text("".join(lines[:i] + lines[i + 1:]))
                diags = mixnet_lint.check_cache_key(
                    ROOT, self.write_config(td, mutated))
                rendered = [d.render() for d in diags]
                self.assertTrue(
                    any(f"'{path}'" in r and "not serialized" in r
                        for r in rendered),
                    f"deleting serialization of '{path}' went undetected; "
                    f"diagnostics: {rendered}")

    @staticmethod
    def write_config(tmpdir, mutated_impl):
        cfg = Path(tmpdir) / "cache_key.json"
        cfg.write_text(
            '{"struct": "TrainingConfig",'
            f'"header": "src/sim/training_sim.h",'
            f'"impl": "{mutated_impl}",'
            '"variable": "cfg", "search": ["src"], "allow": []}')
        return cfg


class GateTraceKeyAcceptance(unittest.TestCase):
    """Every GateConfig field is gate-trace key material: two trajectories
    must never share one recorded trace (tools/lint/gate_trace_key.json)."""

    def test_real_key_is_complete(self):
        code, out, err = run_lint(
            "cache-key", "--cache-key-config",
            str(ROOT / "tools" / "lint" / "gate_trace_key.json"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")

    def test_deleting_any_serialization_line_turns_the_gate_red(self):
        impl = ROOT / "src" / "moe" / "gate_trace.cc"
        lines = impl.read_text().splitlines(keepends=True)
        field_lines = [
            (i, m.group(1))
            for i, l in enumerate(lines)
            for m in [re.search(r'w\.field\("[^"]+",\s*gc\.([\w.]+)\)', l)]
            if m
        ]
        self.assertEqual(len(field_lines), 8,
                         "gate_trace_key lost its GateConfig field lines?")
        with tempfile.TemporaryDirectory() as td:
            mutated = Path(td) / "gate_trace_mut.cc"
            cfg = Path(td) / "gate_trace_key.json"
            cfg.write_text(
                '{"struct": "GateConfig", "header": "src/moe/gate.h",'
                f'"impl": "{mutated}",'
                '"variable": "gc", "search": ["src"], "allow": []}')
            for i, path in field_lines:
                mutated.write_text("".join(lines[:i] + lines[i + 1:]))
                rendered = [d.render()
                            for d in mixnet_lint.check_cache_key(ROOT, cfg)]
                self.assertTrue(
                    any(f"'{path}'" in r and "not serialized" in r
                        for r in rendered),
                    f"deleting serialization of '{path}' went undetected; "
                    f"diagnostics: {rendered}")


class DeterminismFixture(unittest.TestCase):
    FIX = FIXTURES / "banned_call"

    def run_fixture(self, config=None):
        return run_lint(
            "determinism", "--root", str(self.FIX),
            "--determinism-config", str(config or self.FIX / "determinism.json"))

    def test_banned_calls_fail_with_precise_diagnostics(self):
        code, out, _ = self.run_fixture()
        self.assertEqual(code, 1)
        self.assertIn("src/sim/clocky.cc:5: [determinism] banned "
                      "call/construct 'rand()'", out)
        self.assertIn("src/sim/clocky.cc:8: [determinism] banned "
                      "call/construct 'std::chrono::system_clock'", out)

    def test_comments_strings_and_allowlisted_sites_do_not_fire(self):
        _, out, _ = self.run_fixture()
        diags = [l for l in out.splitlines() if ": [determinism]" in l]
        # Exactly the two real hits: not the comment on clocky.cc:4, not the
        # string literal on clocky.cc:6, not the allowlisted seed.cc.
        self.assertEqual(len(diags), 2, out)
        self.assertNotIn("seed.cc", out)

    def test_stale_allowlist_entry_is_an_error(self):
        base = (self.FIX / "determinism.json").read_text()
        stale = base.replace(
            '"file": "src/sim/seed.cc"', '"file": "src/sim/gone.cc"')
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            f.write(stale)
            f.flush()
            code, out, _ = self.run_fixture(config=f.name)
        self.assertEqual(code, 1)
        self.assertIn("stale allowlist entry", out)
        # seed.cc's random_device is no longer excused either.
        self.assertIn("src/sim/seed.cc:4", out)


class ReleaseAssertFixture(unittest.TestCase):
    """The real config's assert() rule: a new assert( in src/ fails the
    lint (Release builds compile it out), static_assert and allowlisted
    files do not."""
    FIX = FIXTURES / "release_assert"

    def run_fixture(self, allow):
        real = mixnet_lint.load_json(ROOT / "tools" / "lint" / "determinism.json")
        rule = [b for b in real["banned"] if b["name"] == "assert()"]
        self.assertEqual(len(rule), 1, "determinism.json bans assert() once")
        cfg = {"paths": ["src"], "banned": rule, "canonical_paths": [],
               "canonical_banned": [], "allow": allow}
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            json.dump(cfg, f)
            f.flush()
            return run_lint("determinism", "--root", str(self.FIX),
                            "--determinism-config", f.name)

    def test_new_assert_fails_and_allowlisted_file_does_not(self):
        code, out, _ = self.run_fixture([
            {"file": "src/common/hot.h", "name": "assert()",
             "reason": "fixture: a hot accessor"}])
        self.assertEqual(code, 1)
        self.assertIn("src/net/graph.cc:6: [determinism] banned "
                      "call/construct 'assert()'", out)
        # Not the static_assert on line 3, the comment on line 4, the
        # string on line 7 or the allowlisted hot.h.
        diags = [l for l in out.splitlines() if ": [determinism]" in l]
        self.assertEqual(len(diags), 1, out)

    def test_without_its_allow_entry_the_hot_accessor_fails_too(self):
        code, out, _ = self.run_fixture([])
        self.assertEqual(code, 1)
        self.assertIn("src/common/hot.h:5: [determinism]", out)


class UnorderedEmitFixture(unittest.TestCase):
    FIX = FIXTURES / "unordered_emit"

    def test_unordered_container_in_emit_path_fails(self):
        code, out, _ = run_lint(
            "determinism", "--root", str(self.FIX),
            "--determinism-config", str(self.FIX / "determinism.json"))
        self.assertEqual(code, 1)
        self.assertIn("src/exp/result_table.cc", out)
        self.assertIn("unordered container in canonical/emit path", out)
        # Only the canonical path is policed; other.cc is free to use them.
        self.assertNotIn("other.cc", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
