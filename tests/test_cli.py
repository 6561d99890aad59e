"""Command-line behavior: golden outputs, exit codes, and diagnostics."""

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from enclosures.cli import main
from enclosures.expr import postorder
from exprgen import rand_family_spec

SAME_DIFF = "meas(t,[2,5],d) - meas(t,[2,5],d)"
DIST_DIFF = "meas(t1,[2,5],d) - meas(t2,[2,5],d)"
DIST_DIV = "meas(t1,[1,2],d) / meas(t2,[1,2],d)"
INFEASIBLE = "meas(t,[0,1],d) + meas(t,[2,3],d)"
UNDET_SRC = "meas(u1,[0,2],d) * meas(u2,[0,2],d)"
UNDET_TGT = "meas(u3,[1,2],d) * meas(u4,[1,2],d)"

# The console-script wrapper of the PyPA entry-points specification, as
# installers write it for a `module:func` object reference.
SCRIPT_WRAPPER = """\
import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def checkout_env():
    """This environment with the checkout's `src` first on PYTHONPATH, so a
    subprocess imports the package under test without an install."""
    paths = [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def check_script(tmp_path, command, env=None):
    """Exit 0 enclosing `exact(3/2,d)`, and exit 2 on a missing file."""
    path = tmp_path / "e.expr"
    path.write_text("exact(3/2,d)\n", encoding="utf-8")
    proc = subprocess.run(
        command + ["enclosure", str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["interval"] == ["3/2", "3/2"]
    proc = subprocess.run(
        command + ["enclosure", str(tmp_path / "missing.expr")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


class TestEval:
    def test_golden_json(self, files, capsys):
        expr = files("e.expr", DIST_DIFF)
        env = files("e.env", "t1 = 5\nt2 = 2")
        code, out, err = run(capsys, "eval", expr, env)
        assert code == 0 and err == ""
        assert out.rstrip("\n") == (
            '{"command": "eval", "expr": "meas(t1,[2,5],d) - meas(t2,[2,5],d)",'
            ' "env": {"t1": "5", "t2": "2"}, "value": "3", "consistent": true,'
            ' "effective_intervals": {"t1": ["2", "5"], "t2": ["2", "5"]}}'
        )

    def test_env_file_is_optional(self, files, capsys):
        code, out, _ = run(capsys, "eval", files("e.expr", "meas(t,[2,5],d)"))
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["env"] == {}
        assert payload["value"] == "0"
        assert payload["consistent"] is False
        assert payload["effective_intervals"] == {"t": ["2", "5"]}

    def test_infeasible_expression(self, files, capsys):
        code, out, _ = run(capsys, "eval", files("e.expr", INFEASIBLE))
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["effective_intervals"] is None
        assert payload["infeasible_token"] == "t"

    def test_pretty(self, files, capsys):
        expr = files("e.expr", DIST_DIFF)
        env = files("e.env", "t1 = 5\nt2 = 2")
        code, out, _ = run(capsys, "eval", "--pretty", expr, env)
        assert code == 0
        assert out.splitlines() == [
            "expr: meas(t1,[2,5],d) - meas(t2,[2,5],d)",
            "env: t1 = 5, t2 = 2",
            "value: 3",
            "consistent: true",
            "effective intervals:",
            "  t1: [2,5]",
            "  t2: [2,5]",
        ]

    @pytest.mark.parametrize("command", ["eval", "enclosure"])
    def test_one_walk(self, files, capsys, monkeypatch, command):
        # eval's boxes come from the program `evaluate` builds, as
        # enclosure's do, so neither walks the tree a second time.
        walked = []
        for name in ("enclosures.expr", "enclosures.semantics"):
            module = importlib.import_module(name)
            monkeypatch.setattr(module, "postorder", lambda e: walked.append(e) or postorder(e))
        text = " + ".join(f"meas(t{k % 7},[{k % 7},{k % 7 + 1}],d)" for k in range(50))
        code, out, _ = run(capsys, command, files("e.expr", text))
        assert code == 0 and len(walked) == 1
        if command == "eval":
            boxes = json_lines(out)[0]["effective_intervals"]
            assert boxes == {f"t{k}": [str(k), str(k + 1)] for k in range(7)}

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "eval", "missing.expr")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_env(self, files, capsys):
        expr = files("e.expr", "exact(1,d)")
        env = files("e.env", "t1 9/2")
        code, _, err = run(capsys, "eval", expr, env)
        assert code == 2
        assert "expected 'token = rational'" in err

    def test_malformed_env_reports_file_offset(self, files, capsys):
        expr = files("e.expr", "meas(t,[0,5],d)")
        env = files("e.env", "t = 1\nt = x")
        code, out, err = run(capsys, "eval", expr, env)
        assert code == 2 and out == ""
        assert err == "error: line 2: bad rational 'x' (at offset 10)\n"


class TestEnclosure:
    def test_golden_exact(self, files, capsys):
        code, out, err = run(capsys, "enclosure", files("e.expr", SAME_DIFF))
        assert code == 0 and err == ""
        assert out.rstrip("\n") == (
            '{"command": "enclosure", "expr": "meas(t,[2,5],d) - meas(t,[2,5],d)",'
            ' "grid": 5, "budget": 100000,'
            ' "result": {"outcome": "exact-interval", "interval": ["0", "0"]}}'
        )

    def test_unknown_outcome(self, files, capsys):
        code, out, _ = run(capsys, "enclosure", files("e.expr", DIST_DIV))
        payload = json_lines(out)[0]
        assert code == 0
        result = payload["result"]
        assert result["outcome"] == "unknown"
        assert result["over"] == ["1/2", "2"]
        assert result["truncated"] is False
        assert result["under_count"] == len(result["under"])
        values = {row["value"] for row in result["under"]}
        assert {"1", "1/2", "2"} <= values

    def test_empty_outcome(self, files, capsys):
        code, out, _ = run(capsys, "enclosure", files("e.expr", INFEASIBLE))
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["result"] == {"outcome": "empty", "infeasible_token": "t"}

    def test_truncation_exits_4(self, files, capsys):
        code, out, _ = run(
            capsys, "enclosure", "--budget", "3", files("e.expr", DIST_DIV)
        )
        payload = json_lines(out)[0]
        assert code == 4
        assert payload["result"]["truncated"] is True
        assert payload["result"]["under_count"] == 3

    def test_pretty_unknown(self, files, capsys):
        code, out, _ = run(capsys, "enclosure", "--pretty", files("e.expr", DIST_DIV))
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == f"expr: {DIST_DIV}"
        assert lines[1] == "result: unknown"
        assert lines[2] == "over: [1/2,2]"
        assert lines[3].startswith("under samples: ")
        assert "t1 = 1, t2 = 1 -> 1" in lines[4]


class TestClassify:
    def test_golden_interchangeable(self, files, capsys):
        src = files("s.expr", SAME_DIFF)
        tgt = files("t.expr", "exact(0,d)")
        code, out, err = run(capsys, "classify", src, tgt)
        assert code == 0 and err == ""
        assert out.rstrip("\n") == (
            '{"command": "classify", "source": "meas(t,[2,5],d) - meas(t,[2,5],d)",'
            ' "target": "exact(0,d)", "grid": 5, "budget": 100000,'
            ' "classification": {"class": "interchangeable",'
            ' "forward": {"verdict": "holds", "evidence": {"kind": "interval-containment",'
            ' "source": ["0", "0"], "target": ["0", "0"], "target_kind": "exact-interval",'
            ' "witness": {"t": "2"}, "witness_value": "0"}},'
            ' "backward": {"verdict": "holds", "evidence": {"kind": "interval-containment",'
            ' "source": ["0", "0"], "target": ["0", "0"], "target_kind": "exact-interval",'
            ' "witness": {}, "witness_value": "0"}}}, "audit": true}'
        )

    def test_one_way_only_forward(self, files, capsys):
        src = files("s.expr", DIST_DIFF)
        tgt = files("t.expr", "exact(0,d)")
        code, out, _ = run(capsys, "classify", src, tgt)
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["classification"]["class"] == "one-way-only-forward"
        assert payload["classification"]["backward"]["verdict"] == "fails"
        assert payload["audit"] is True

    def test_undetermined_exits_3(self, files, capsys):
        src = files("s.expr", UNDET_SRC)
        tgt = files("t.expr", UNDET_TGT)
        code, out, _ = run(capsys, "classify", src, tgt)
        payload = json_lines(out)[0]
        assert code == 3
        assert payload["classification"]["class"] == "undetermined"
        assert payload["classification"]["forward"]["verdict"] == "undecided"
        assert payload["audit"] is True

    def test_undecided_verdict_omits_sample_lists(self, files, capsys):
        src = files("s.expr", UNDET_SRC)
        tgt = files("t.expr", UNDET_TGT)
        _, out, _ = run(capsys, "classify", src, tgt)
        forward = json_lines(out)[0]["classification"]["forward"]
        assert "under" not in forward["source_outcome"]
        assert forward["source_outcome"]["under_count"] > 0

    def test_parse_error(self, files, capsys):
        src = files("s.expr", "exact(1,d) +")
        tgt = files("t.expr", "exact(0,d)")
        code, _, err = run(capsys, "classify", src, tgt)
        assert code == 2
        assert err.startswith("error:")

    def test_pretty(self, files, capsys):
        src = files("s.expr", DIST_DIFF)
        tgt = files("t.expr", "exact(0,d)")
        code, out, _ = run(capsys, "classify", "--pretty", src, tgt)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == f"source: {DIST_DIFF}"
        assert lines[1] == "target: exact(0,d)"
        assert lines[2] == "class: one-way-only-forward"
        assert lines[3].startswith("forward: holds (interval-containment)")
        assert lines[4].startswith("backward: fails (value 3 under t1 = 5, t2 = 2")
        assert lines[5] == "audit: true"


class TestBlind:
    def test_with_target(self, files, capsys):
        e1 = files("a.expr", SAME_DIFF)
        e2 = files("b.expr", DIST_DIFF)
        tgt = files("t.expr", "exact(0,d)")
        code, out, _ = run(capsys, "blind", e1, e2, tgt)
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["blind1"] == payload["blind2"] == "meas([2,5],d) - meas([2,5],d)"
        assert payload["erased_equal"] is True
        assert payload["bounds1"] == payload["bounds2"] == ["-3", "3"]
        assert payload["bounds_equal"] is True
        assert payload["class1"]["class"] == "interchangeable"
        assert payload["class2"]["class"] == "one-way-only-forward"
        assert payload["classes_differ"] is True
        assert payload["demonstrates_insufficiency"] is True
        assert payload["audit"] is True

    def test_without_target(self, files, capsys):
        e1 = files("a.expr", SAME_DIFF)
        e2 = files("b.expr", "exact(0,d)")
        code, out, _ = run(capsys, "blind", e1, e2)
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["target"] is None
        assert payload["erased_equal"] is False
        assert payload["class1"]["class"] == "interchangeable"

    def test_pretty(self, files, capsys):
        e1 = files("a.expr", SAME_DIFF)
        e2 = files("b.expr", DIST_DIFF)
        tgt = files("t.expr", "exact(0,d)")
        code, out, _ = run(capsys, "blind", "--pretty", e1, e2, tgt)
        lines = out.splitlines()
        assert code == 0
        assert "erased equal: true" in lines
        assert "bounds: [-3,3] vs [-3,3] (equal: true)" in lines
        assert "classes: interchangeable vs one-way-only-forward" in lines
        assert "demonstrates insufficiency: true" in lines


class TestDemo:
    def test_golden_pretty(self, capsys):
        code, out, err = run(
            capsys,
            "demo",
            "--pretty",
            "--family",
            "cancellation",
            "--mode",
            "distinct",
            "--interval",
            "[2,5]",
        )
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "family: cancellation",
            "mode: distinct",
            "interval: [2,5]",
            "source: meas(t1,[2,5],d) - meas(t2,[2,5],d)",
            "target: exact(0,d)",
            "expected: one-way-only-forward",
            "computed: one-way-only-forward",
            "match: true",
            "blind erased equal: true",
            "blind bounds equal: true",
            "blind classes: interchangeable vs one-way-only-forward",
            "blind classes differ: true",
            "audit: true",
        ]

    def test_division_same_json(self, capsys):
        code, out, _ = run(
            capsys,
            "demo",
            "--family",
            "division",
            "--mode",
            "same",
            "--interval",
            "[1,2]",
        )
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["computed_class"] == "interchangeable"
        assert payload["match"] is True
        assert payload["params"] == {"interval": ["1", "2"], "dim": "d"}
        assert payload["blind"]["demonstrates_insufficiency"] is True
        assert payload["audit"] is True

    def test_background_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "demo",
            "--family",
            "background",
            "--mode",
            "distinct",
            "--signal-interval",
            "[10,11]",
            "--background-interval",
            "[1,2]",
        )
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["source"] == "meas(ts,[10,11],d) + meas(tb1,[1,2],d) - meas(tb2,[1,2],d)"
        assert payload["target"] == "meas(ts,[10,11],d)"
        assert payload["match"] is True
        assert payload["params"]["signal"] == ["10", "11"]

    def test_custom_dim(self, capsys):
        code, out, _ = run(
            capsys,
            "demo",
            "--family",
            "cancellation",
            "--mode",
            "same",
            "--interval",
            "[2,5]",
            "--dim",
            "kg",
        )
        payload = json_lines(out)[0]
        assert code == 0
        assert payload["source"] == "meas(t,[2,5],kg) - meas(t,[2,5],kg)"
        assert payload["params"]["dim"] == "kg"

    def test_missing_interval(self, capsys):
        code, _, err = run(
            capsys, "demo", "--family", "cancellation", "--mode", "same"
        )
        assert code == 2
        assert err.rstrip() == "error: cancellation needs an interval"

    def test_division_interval_must_be_positive(self, capsys):
        code, _, err = run(
            capsys,
            "demo",
            "--family",
            "division",
            "--mode",
            "same",
            "--interval",
            "[0,2]",
        )
        assert code == 2
        assert err.rstrip() == "error: division needs 0 < lo"

    def test_backwards_interval_literal(self, capsys):
        code, _, err = run(
            capsys,
            "demo",
            "--family",
            "cancellation",
            "--mode",
            "same",
            "--interval",
            "[5,2]",
        )
        assert code == 2
        assert err.rstrip() == "error: interval [5,2] has lo > hi"

    def test_random_demos_always_decide(self, capsys):
        rng = random.Random(20260814)
        for _ in range(30):
            family = rng.choice(["cancellation", "background", "division"])
            mode = rng.choice(["same", "distinct"])
            spec = rand_family_spec(rng, family, mode)
            argv = ["demo", "--family", family, "--mode", mode]
            if spec.interval is not None:
                argv += ["--interval", str(spec.interval)]
            if spec.signal is not None:
                argv += ["--signal-interval", str(spec.signal)]
            if spec.background is not None:
                argv += ["--background-interval", str(spec.background)]
            code, out, _ = run(capsys, *argv)
            payload = json_lines(out)[0]
            assert code == 0, argv
            assert payload["match"] is True, argv
            assert payload["blind"]["demonstrates_insufficiency"] is True, argv


class TestOracle:
    def test_golden_rows(self, files, capsys):
        code, out, err = run(
            capsys, "oracle", "--grid", "2", files("e.expr", DIST_DIFF)
        )
        assert code == 0 and err == ""
        assert out.splitlines() == [
            '{"env": {"t1": "2", "t2": "2"}, "value": "0"}',
            '{"env": {"t1": "2", "t2": "5"}, "value": "-3"}',
            '{"env": {"t1": "5", "t2": "2"}, "value": "3"}',
            '{"env": {"t1": "5", "t2": "5"}, "value": "0"}',
        ]

    def test_exact_expression_single_row(self, files, capsys):
        code, out, _ = run(capsys, "oracle", files("e.expr", "exact(7,d)"))
        assert code == 0
        assert json_lines(out) == [{"env": {}, "value": "7"}]

    def test_shared_token_rows_all_cancel(self, files, capsys):
        code, out, _ = run(
            capsys, "oracle", "--grid", "3", files("e.expr", SAME_DIFF)
        )
        rows = json_lines(out)
        assert code == 0
        assert [r["env"]["t"] for r in rows] == ["2", "5", "7/2"]
        assert all(r["value"] == "0" for r in rows)

    def test_budget_exceeded_keeps_prefix(self, files, capsys):
        code, out, err = run(
            capsys, "oracle", "--budget", "3", files("e.expr", DIST_DIFF)
        )
        rows = json_lines(out)
        assert code == 4
        assert len(rows) == 3
        assert rows[0] == {"env": {"t1": "2", "t2": "2"}, "value": "0"}
        assert "warning: budget exceeded: grid needs 25 environments, budget is 3" in err

    def test_pretty_rows(self, files, capsys):
        code, out, _ = run(
            capsys, "oracle", "--pretty", "--grid", "2", files("e.expr", DIST_DIFF)
        )
        assert code == 0
        assert out.splitlines()[0] == "t1 = 2, t2 = 2 -> 0"


class TestArgumentsAndDiagnostics:
    def test_grid_must_be_at_least_2(self, files, capsys):
        code, _, err = run(
            capsys, "oracle", "--grid", "1", files("e.expr", "exact(1,d)")
        )
        assert code == 2
        assert "at least 2" in err

    def test_budget_must_be_nonnegative(self, files, capsys):
        code, _, err = run(
            capsys, "oracle", "--budget", "-1", files("e.expr", "exact(1,d)")
        )
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_subcommand_required(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "eval" in out and "oracle" in out

    def test_json_and_pretty_conflict(self, files, capsys):
        code, _, _ = run(
            capsys, "enclosure", "--json", "--pretty", files("e.expr", "exact(1,d)")
        )
        assert code == 2

    def test_dim_lint_warns_on_mixed_tags(self, files, capsys):
        expr = files("e.expr", "meas(a,[0,1],kg) + exact(1,s)")
        code, _, err = run(capsys, "enclosure", "--dim-lint", expr)
        assert code == 0
        assert err.rstrip() == "warning: mixed dimension tags: kg, s"

    def test_dim_lint_quiet_on_uniform_tags(self, files, capsys):
        expr = files("e.expr", SAME_DIFF)
        code, _, err = run(capsys, "enclosure", "--dim-lint", expr)
        assert code == 0
        assert err == ""


class TestInstalledEntryPoints:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "e.expr"
        path.write_text(SAME_DIFF + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "enclosures", "enclosure", str(path)],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["interval"] == ["0", "0"]

    def test_console_script(self, tmp_path):
        # The command that pyproject.toml declares, run through the wrapper
        # an installer would write for it, so no install is needed.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert "enclosures" in scripts
        module, _, func = scripts["enclosures"].partition(":")
        wrapper = tmp_path / "enclosures"
        wrapper.write_text(
            SCRIPT_WRAPPER.format(
                module=module, import_name=func.split(".")[0], func=func
            ),
            encoding="utf-8",
        )
        check_script(tmp_path, [sys.executable, str(wrapper)], env=checkout_env())

    @pytest.mark.skipif(
        shutil.which("enclosures") is None,
        reason="enclosures console script not installed",
    )
    def test_installed_console_script(self, tmp_path):
        check_script(tmp_path, [shutil.which("enclosures")])


class TestProcessEntry:
    """`run()` is the process entry; `main()` acts on nothing beyond its streams."""

    def test_main_leaves_the_collector_unfrozen(self, files, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, "enclosure", files("e.expr", SAME_DIFF))[0] == 0
        assert gc.get_freeze_count() == before

    def test_run_freezes_the_collector(self, files):
        code = (
            "import gc, sys; from enclosures.cli import run; code = run(); "
            "print(gc.get_freeze_count() > 0, code, file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, "enclosure", files("e.expr", SAME_DIFF)],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert json.loads(proc.stdout)["result"]["interval"] == ["0", "0"]
        assert proc.stderr == "True 0\n"

    @pytest.mark.parametrize(
        "argv",
        [["oracle", "--grid", "30"], ["enclosure"]],
        ids=["closed-while-printing", "closed-at-exit"],
    )
    def test_closed_stdout_exits_141_quietly(self, files, argv):
        # The reader is gone before the call starts, so every write to stdout
        # fails: oracle's 900 rows overflow the buffer inside main(), and
        # enclosure's one line fails at the final flush.
        path = files("e.expr", "meas(a,[0,9],d) + meas(b,[0,9],d)")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "enclosures", *argv, path],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=checkout_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.parametrize(
        "argv, built", [(["classify", "a.expr", "b.expr"], 1), (["-h"], 6), (["bogus"], 6)]
    )
    def test_parser_builds_only_the_named_subcommand(self, monkeypatch, capsys, argv, built):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        main(argv)
        capsys.readouterr()
        assert len(calls) == built


class TestUndecodableInput:
    def test_expression_file_with_bad_bytes_exits_2(self, tmp_path, capsys):
        path = tmp_path / "e.expr"
        path.write_bytes(b"exact(1,d) \xff\n")
        code, out, err = run(capsys, "enclosure", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path} is not UTF-8 text (at offset 11)\n"

    def test_env_file_with_bad_bytes_exits_2(self, files, tmp_path, capsys):
        env = tmp_path / "e.env"
        env.write_bytes(b"t1 = \xff\n")
        code, out, err = run(capsys, "eval", files("e.expr", DIST_DIFF), str(env))
        assert code == 2 and out == ""
        assert err == f"error: {env} is not UTF-8 text (at offset 5)\n"

    @pytest.mark.parametrize("flag, value", [("--grid", "abc"), ("--budget", "1.5")])
    def test_non_integer_count_is_a_plain_usage_error(self, files, capsys, flag, value):
        code, out, err = run(capsys, "enclosure", flag, value, files("e.expr", "exact(1,d)"))
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument {flag}: expected an integer, got '{value}'\n")


# The interpreter's int-to-string limit: 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-string limit in this interpreter")
class TestNumbersOverTheDigitLimit:
    def test_long_literal_is_a_parse_error(self, files, capsys):
        text = f"exact({'9' * (DIGIT_LIMIT + 700)},d)"
        code, out, err = run(capsys, "enclosure", files("e.expr", text))
        assert code == 2 and out == ""
        assert err == f"error: number has more than {DIGIT_LIMIT} digits (at offset 6)\n"

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_result_too_long_to_print_exits_2(self, files, capsys, pretty):
        # Each factor prints; their product has more digits than str() allows.
        factor = f"exact({'7' * (DIGIT_LIMIT // 2)},d)"
        code, out, err = run(capsys, "enclosure", *pretty, files("e.expr", f"{factor} * {factor} * {factor}"))
        assert code == 2 and out == ""
        assert err == f"error: a number has more than {DIGIT_LIMIT} digits, too many to print\n"
