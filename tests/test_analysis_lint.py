"""Tests for the RPL rules and the ``repro-lint`` driver's CLI.

Each rule gets a deliberately violating sample and a conforming one;
the repo itself must lint clean (the same gate CI runs).  The CLI
tests cover what the driver adds on top of both rule sets: one rule
catalogue, pragmas and the baseline applied to RPL findings too, and
one report per unparseable file.
"""

import json
import textwrap

from repro.analysis.driver import analyze_paths as lint_paths
from repro.analysis.driver import analyze_sources, main
from repro.analysis.findings import Finding
from repro.analysis.lint import RULES as RPL_RULES
from repro.analysis.lint import known_metric_names
from repro.analysis.sanitize import RULES as RPS_RULES

#: A non-hot, non-test path inside the package.
SRC = "src/repro/experiments/sample.py"


def lint(code, path=SRC):
    return analyze_sources({path: textwrap.dedent(code)})


def rules(findings):
    return [f.rule for f in findings]


class TestRPL001MetricNames:
    def test_unknown_dotted_name_flagged(self):
        findings = lint('metrics.value("l1.hit.nope")\n')
        assert rules(findings) == ["RPL001"]
        assert "l1.hit.nope" in findings[0].message

    def test_known_name_clean(self):
        assert lint('metrics.value("l1.hit.read")\n') == []

    def test_dynamic_bus_family_clean(self):
        assert lint('metrics.value("bus.read_miss")\n') == []

    def test_undotted_literal_ignored(self):
        # CounterBag keys are flat; only dotted names are namespaced.
        assert lint('counters.total("hits")\n') == []

    def test_prefix_kwarg_checked(self):
        assert lint('metrics.total(prefix="l1.hit.")\n') == []
        findings = lint('metrics.total(prefix="nope.")\n')
        assert rules(findings) == ["RPL001"]

    def test_tests_are_out_of_scope(self):
        code = 'metrics.value("l1.hit.nope")\n'
        assert lint(code, path="tests/test_sample.py") == []

    def test_namespace_is_nonempty_and_dotted(self):
        names = known_metric_names()
        assert "l1.hit.read" in names
        assert all("." in name for name in names)


class TestRPL002TracerSites:
    GOOD = 'self._tr_syn.emit("synonym", "move", cpu=0)\n'
    PATH = "src/repro/hierarchy/sample.py"

    def test_conforming_site_clean(self):
        assert lint(self.GOOD, path=self.PATH) == []

    def test_unresolved_receiver_flagged(self):
        findings = lint(
            'self.tracer.emit("synonym", "move")\n', path=self.PATH
        )
        assert rules(findings) == ["RPL002"]
        assert "_tr" in findings[0].message

    def test_unknown_category_flagged(self):
        findings = lint(
            'self._tr_syn.emit("pizza", "move")\n', path=self.PATH
        )
        assert rules(findings) == ["RPL002"]
        assert "pizza" in findings[0].message

    def test_non_literal_category_flagged(self):
        findings = lint(
            'self._tr_syn.emit(category, "move")\n', path=self.PATH
        )
        assert rules(findings) == ["RPL002"]

    def test_outside_package_out_of_scope(self):
        code = 'queue.emit("whatever", "x")\n'
        assert lint(code, path="benchmarks/bench_sample.py") == []


class TestRPL003HotSlots:
    HOT_REAL = "src/repro/cache/block.py"

    def test_slotless_class_in_hot_module_flagged(self):
        findings = lint("class Thing:\n    pass\n", path=self.HOT_REAL)
        assert rules(findings) == ["RPL003"]
        assert "Thing" in findings[0].message

    def test_slots_declaration_clean(self):
        code = 'class Thing:\n    __slots__ = ("x",)\n'
        assert lint(code, path=self.HOT_REAL) == []

    def test_dataclass_slots_clean(self):
        code = """\
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Thing:
                x: int
        """
        assert lint(code, path=self.HOT_REAL) == []

    def test_plain_dataclass_flagged(self):
        code = """\
            from dataclasses import dataclass

            @dataclass
            class Thing:
                x: int
        """
        assert rules(lint(code, path=self.HOT_REAL)) == ["RPL003"]

    def test_enum_exception_protocol_exempt(self):
        code = """\
            import enum
            from typing import Protocol

            class Kind(enum.Enum):
                A = 1

            class BadThing(ValueError):
                pass

            class Iface(Protocol):
                def f(self) -> int: ...
        """
        assert lint(code, path=self.HOT_REAL) == []

    def test_non_hot_module_out_of_scope(self):
        assert lint("class Thing:\n    pass\n", path=SRC) == []


class TestRPL004HotAllocations:
    def test_fstring_in_hot_function_flagged(self):
        code = """\
            class TagStore:
                __slots__ = ()

                def access(self, addr):
                    return f"{addr:x}"
        """
        findings = lint(code, path="src/repro/cache/tagstore.py")
        assert rules(findings) == ["RPL004"]
        assert "f-string" in findings[0].message

    def test_dict_display_in_run_fast_flagged(self):
        code = """\
            def _run_fast(records):
                return {"refs": len(records)}
        """
        findings = lint(code, path="src/repro/system/multiprocessor.py")
        assert rules(findings) == ["RPL004"]
        assert "dict display" in findings[0].message

    def test_cold_function_in_hot_module_clean(self):
        code = """\
            def summary(records):
                return {"refs": len(records)}
        """
        assert lint(code, path="src/repro/system/multiprocessor.py") == []

    def test_non_hot_module_clean(self):
        code = "def access(addr):\n    return {addr: 1}\n"
        assert lint(code, path=SRC) == []


class TestRepoIsClean:
    def test_src_tests_benchmarks_lint_clean(self):
        """The gate CI runs: the whole repo under all four rules."""
        assert lint_paths(["src", "tests", "benchmarks"]) == []


class TestCli:
    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('metrics.value("l1.hit.nope")\n')
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out
        assert "1 finding(s)" in out

    def test_clean_exit_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('metrics.value("l1.hit.nope")\n')
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["rule"] for f in payload["findings"]] == ["RPL001"]

    def test_syntax_error_reported(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 1
        assert "RPL000" in capsys.readouterr().out

    def test_unparseable_package_module_reported_once(self, tmp_path, capsys):
        # Both rule sets cover a package module; its parse failure is
        # still one finding.
        pkg = tmp_path / "src" / "repro" / "system"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert main([str(tmp_path / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["RPS000"]

    def test_list_rules(self, capsys):
        # One listing covers both catalogues.
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in [*RPL_RULES, *RPS_RULES]:
            assert rule in out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_pragma_and_baseline_cover_rpl_rules(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "system"
        pkg.mkdir(parents=True)
        hot = pkg / "multiprocessor.py"
        code = 'def _run_fast(records):\n    return {"refs": len(records)}'
        root = str(tmp_path / "src")

        hot.write_text(code + "  # rps: ignore[RPL004]\n", encoding="utf-8")
        assert main([root]) == 0
        hot.write_text(code + "\n", encoding="utf-8")
        assert main([root]) == 1
        assert "RPL004" in capsys.readouterr().out

        baseline = tmp_path / "baseline.json"
        assert main([root, "--write-baseline", str(baseline)]) == 0
        assert main([root, "--baseline", str(baseline)]) == 0

        hot.write_text(
            "def _run_fast(records):\n    return len(records)\n",
            encoding="utf-8",
        )
        assert main([root, "--baseline", str(baseline)]) == 0
        report = tmp_path / "report.json"
        strict = [root, "--baseline", str(baseline), "--strict"]
        assert main([*strict, "--json-out", str(report)]) == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["ok"] is False and payload["findings"] == []
        (entry,) = payload["stale_baseline_entries"]
        assert entry.startswith("RPL004|repro/system/multiprocessor.py|")

    def test_finding_render_format(self):
        finding = Finding("RPL001", "a.py", 3, 7, "boom")
        assert finding.render() == "a.py:3:7: RPL001 boom"
