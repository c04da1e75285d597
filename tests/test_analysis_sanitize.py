"""Tests for the RPS rules of ``repro-lint`` and their runtime
companion.

Every rule gets a deliberately violating fixture and a conforming
one; the repo itself must analyse clean (the same gate CI runs with
``repro-lint --strict``).  The runtime half, DeterminismGuard, is
exercised against real patched sources.
"""

import json
import textwrap
import time

import pytest

from repro.analysis.driver import analyze_paths, analyze_sources, main
from repro.analysis.findings import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.runtime import DeterminismGuard, DeterminismViolation
from repro.analysis.sanitize import RULES
from repro.obs import MetricsRegistry

#: Synthetic in-package path for fixtures.
SRC = "src/repro/system/sample.py"


def analyze(code, path=SRC, extra=None):
    files = {path: textwrap.dedent(code)}
    if extra:
        files.update(
            {p: textwrap.dedent(src) for p, src in extra.items()}
        )
    return analyze_sources(files)


def rules(findings):
    return [f.rule for f in findings]


class TestRPS101DirectoryOrder:
    def test_unsorted_iterdir_flagged(self):
        findings = analyze(
            """
            from pathlib import Path

            def walk(root):
                return [p.name for p in Path(root).iterdir()]
            """
        )
        assert rules(findings) == ["RPS101"]

    def test_sorted_iterdir_clean(self):
        assert (
            analyze(
                """
                from pathlib import Path

                def walk(root):
                    return [p.name for p in sorted(Path(root).iterdir())]
                """
            )
            == []
        )

    def test_os_listdir_flagged_and_set_consumption_clean(self):
        findings = analyze(
            """
            import os

            def names(root):
                return list(os.listdir(root))

            def footprint(root):
                return set(os.listdir(root))
            """
        )
        assert rules(findings) == ["RPS101"]
        assert findings[0].line == 5

    def test_order_insensitive_reducers_clean(self):
        assert (
            analyze(
                """
                import os
                from pathlib import Path

                def count(root):
                    return len(os.listdir(root))

                def total(root):
                    return sum(p.stat().st_size for p in Path(root).glob("*"))
                """
            )
            == []
        )


class TestRPS102WallClockTaint:
    def test_clock_in_sink_flagged(self):
        findings = analyze(
            """
            import time

            def key_digest(parts):
                return (time.time(), parts)
            """,
            path="src/repro/runner/disk_cache.py",
        )
        assert rules(findings) == ["RPS102"]
        assert "key_digest" in findings[0].message

    def test_clock_reached_through_helper_chain(self):
        # Call-graph propagation: sink -> helper -> helper -> clock.
        findings = analyze(
            """
            import time

            def key_digest(parts):
                return _salt(parts)

            def _salt(parts):
                return _stamp() + len(parts)

            def _stamp():
                return time.time()
            """,
            path="src/repro/runner/disk_cache.py",
        )
        assert rules(findings) == ["RPS102"]
        # The chain names the helpers the taint flowed through.
        assert any("_salt" in hop for hop in findings[0].chain)
        assert any("_stamp" in hop for hop in findings[0].chain)

    def test_clock_propagates_across_modules(self):
        findings = analyze(
            """
            from ..system.clocky import stamp

            def key_digest(parts):
                return (stamp(), parts)
            """,
            path="src/repro/runner/disk_cache.py",
            extra={
                "src/repro/system/clocky.py": """
                import time

                def stamp():
                    return time.time()
                """
            },
        )
        assert rules(findings) == ["RPS102"]

    def test_clock_outside_sink_closure_clean(self):
        assert (
            analyze(
                """
                import time

                def key_digest(parts):
                    return tuple(parts)

                def elapsed(started):
                    return time.time() - started
                """,
                path="src/repro/runner/disk_cache.py",
            )
            == []
        )

    def test_allowlisted_module_is_a_barrier(self):
        # pool.py may read clocks (RunReport.elapsed_s); taint stops there.
        findings = analyze(
            """
            from .pool import elapsed

            def key_digest(parts):
                return (elapsed(), parts)
            """,
            path="src/repro/runner/disk_cache.py",
            extra={
                "src/repro/runner/pool.py": """
                import time

                def elapsed():
                    return time.time()
                """
            },
        )
        assert findings == []


class TestRPS103UnseededRandom:
    def test_module_level_random_flagged(self):
        findings = analyze(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert rules(findings) == ["RPS103"]

    def test_uuid4_and_urandom_flagged(self):
        findings = analyze(
            """
            import os
            import uuid

            def token():
                return uuid.uuid4().hex + os.urandom(4).hex()
            """
        )
        assert rules(findings) == ["RPS103", "RPS103"]

    def test_seeded_instance_clean(self):
        assert (
            analyze(
                """
                import random

                def jitter(seed):
                    return random.Random(seed).random()
                """
            )
            == []
        )


class TestRPS104SetIterationOrder:
    def test_iterating_set_literal_flagged(self):
        findings = analyze(
            """
            def emit(sink):
                for name in {"b", "a"}:
                    sink(name)
            """
        )
        assert rules(findings) == ["RPS104"]

    def test_sorted_set_clean(self):
        assert (
            analyze(
                """
                def emit(sink):
                    for name in sorted({"b", "a"}):
                        sink(name)
                """
            )
            == []
        )

    def test_local_set_variable_tracked(self):
        findings = analyze(
            """
            def emit(sink, names):
                pending = set(names)
                for name in pending:
                    sink(name)
            """
        )
        assert rules(findings) == ["RPS104"]


class TestRPS105BuiltinHash:
    def test_hash_on_string_flagged(self):
        findings = analyze(
            """
            def bucket(name):
                return hash(name) % 64
            """
        )
        assert rules(findings) == ["RPS105"]

    def test_hashlib_clean(self):
        assert (
            analyze(
                """
                import hashlib

                def bucket(name):
                    digest = hashlib.sha256(name.encode()).digest()
                    return digest[0] % 64
                """
            )
            == []
        )


class TestSuppressionAndScope:
    def test_pragma_silences_one_rule(self):
        findings = analyze(
            """
            import random

            def jitter():
                return random.random()  # rps: ignore[RPS103]
            """
        )
        assert findings == []

    def test_pragma_with_wrong_rule_keeps_finding(self):
        findings = analyze(
            """
            import random

            def jitter():
                return random.random()  # rps: ignore[RPS105]
            """
        )
        assert rules(findings) == ["RPS103"]

    def test_bare_pragma_silences_everything_on_the_line(self):
        findings = analyze(
            """
            import random

            def jitter():
                return random.random()  # rps: ignore
            """
        )
        assert findings == []

    def test_files_outside_the_package_ignored(self):
        findings = analyze(
            """
            import random

            def jitter():
                return random.random()
            """,
            path="tests/sample_test.py",
        )
        assert findings == []

    def test_syntax_error_surfaces_as_rps000(self):
        findings = analyze("def broken(:\n")
        assert rules(findings) == ["RPS000"]


class TestBaseline:
    CODE = textwrap.dedent(
        """
        import random

        def jitter():
            return random.random()
        """
    )

    def test_round_trip_absorbs_findings(self, tmp_path):
        files = {SRC: self.CODE}
        findings = analyze_sources(files)
        assert rules(findings) == ["RPS103"]
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings, files)
        fresh, stale = apply_baseline(
            findings, load_baseline(baseline_path), files
        )
        assert fresh == [] and stale == []

    def test_fingerprint_survives_line_drift(self):
        files = {SRC: self.CODE}
        (finding,) = analyze_sources(files)
        shifted = {SRC: "# a new leading comment\n" + self.CODE}
        (moved,) = analyze_sources(shifted)
        assert moved.line != finding.line
        assert fingerprint(moved, shifted) == fingerprint(finding, files)

    def test_fixed_finding_goes_stale(self, tmp_path):
        files = {SRC: self.CODE}
        findings = analyze_sources(files)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings, files)
        fixed = {SRC: "def jitter(seed):\n    return seed\n"}
        fresh, stale = apply_baseline(
            analyze_sources(fixed), load_baseline(baseline_path), fixed
        )
        assert fresh == []
        assert len(stale) == 1 and "RPS103" in stale[0]


class TestCli:
    def _write_bad_module(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "system"
        pkg.mkdir(parents=True)
        bad = pkg / "sample.py"
        bad.write_text(
            "import random\n\n\ndef jitter():\n    return random.random()\n",
            encoding="utf-8",
        )
        return bad

    def test_findings_fail_and_reach_json_report(self, tmp_path, capsys):
        self._write_bad_module(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [str(tmp_path / "src"), "--json-out", str(report_path)]
        )
        assert code == 1
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["ok"] is False
        assert report["findings"][0]["rule"] == "RPS103"
        assert "RPS103" in capsys.readouterr().out

    def test_baseline_flag_absorbs_then_strict_flags_stale(self, tmp_path):
        bad = self._write_bad_module(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tmp_path / "src"), "--write-baseline", str(baseline)]
        ) == 0
        assert main(
            [str(tmp_path / "src"), "--baseline", str(baseline)]
        ) == 0
        bad.write_text("def jitter(seed):\n    return seed\n", encoding="utf-8")
        assert main(
            [str(tmp_path / "src"), "--baseline", str(baseline)]
        ) == 0
        assert main(
            [str(tmp_path / "src"), "--baseline", str(baseline), "--strict"]
        ) == 1

    def test_list_rules_covers_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2


class TestRepoIsClean:
    def test_package_analyses_clean(self):
        # The CI gate: genuine findings get fixed (or pragma'd with a
        # written rationale), never accumulated in a baseline.
        assert analyze_paths(["src/repro"]) == []


FAKE_REPRO = "/fake/src/repro/system/sample_runtime.py"
FAKE_ALLOWED = "/fake/src/repro/runner/pool.py"


def _compiled(body, filename):
    """An ``fn`` whose frames carry *filename*, so the guard's
    caller-classification sees repo (or allowlisted) code."""
    namespace = {}
    exec(compile(textwrap.dedent(body), filename, "exec"), namespace)
    return namespace["fn"]


class TestDeterminismGuard:
    def test_repo_code_reading_clock_raises(self):
        fn = _compiled(
            """
            import time

            def fn():
                return time.time()
            """,
            FAKE_REPRO,
        )
        with DeterminismGuard() as guard:
            with pytest.raises(DeterminismViolation) as exc_info:
                fn()
        assert "time.time" in str(exc_info.value)
        assert guard.violations[0][0] == "time.time"

    def test_random_and_urandom_guarded(self):
        fn = _compiled(
            """
            import os
            import random

            def fn(which):
                if which == "random":
                    return random.random()
                return os.urandom(4)
            """,
            FAKE_REPRO,
        )
        with DeterminismGuard():
            with pytest.raises(DeterminismViolation):
                fn("random")
            with pytest.raises(DeterminismViolation):
                fn("urandom")

    def test_allowlisted_module_passes_through(self):
        fn = _compiled(
            """
            import time

            def fn():
                return time.time()
            """,
            FAKE_ALLOWED,
        )
        with DeterminismGuard():
            assert fn() > 0

    def test_non_repo_callers_pass_through(self):
        # This test file is outside the package: calls go straight in.
        with DeterminismGuard():
            assert time.time() > 0

    def test_count_mode_records_and_calls_through(self):
        fn = _compiled(
            """
            import time

            def fn():
                return time.time()
            """,
            FAKE_REPRO,
        )
        registry = MetricsRegistry()
        with DeterminismGuard(mode="count", registry=registry) as guard:
            assert fn() > 0
        assert len(guard.violations) == 1
        assert registry.value("sanitize.determinism_violation") == 1

    def test_sources_restored_on_exit(self):
        import os
        import random
        import uuid

        originals = (time.time, random.random, uuid.uuid4, os.urandom)
        with DeterminismGuard():
            assert time.time is not originals[0]
        assert (time.time, random.random, uuid.uuid4, os.urandom) == originals

    def test_not_reentrant(self):
        guard = DeterminismGuard()
        with guard:
            with pytest.raises(RuntimeError):
                guard.__enter__()

    def test_tier1_simulation_runs_clean_under_guard(self):
        from repro.experiments import clear_caches, simulate
        from repro.hierarchy.config import HierarchyKind

        clear_caches()
        try:
            with DeterminismGuard():
                result = simulate("pops", 0.004, "1K", "8K", HierarchyKind.VR)
            assert result.refs_processed > 0
        finally:
            clear_caches()
