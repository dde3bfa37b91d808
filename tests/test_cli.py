"""End-to-end command-line tests: output formats and exit codes."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signed_nullity.cli import main

UNBALANCED_C6 = "6 6\n0 1 -\n1 2 +\n2 3 +\n3 4 +\n4 5 +\n0 5 +\n"
DOUBLED_TRIANGLE_NEG = "4 5\n0 1 +\n0 2 -\n0 3 -\n1 2 +\n1 3 +\n"
TRIANGLE_PENDANT = "4 4\n0 1 +\n0 2 +\n1 2 +\n0 3 +\n"
FILE_COMMANDS = [["nullity"], ["balance"], ["classify"], ["reduce"], ["convert", "--to", "dot"]]


def _argv(command: list[str], path: str) -> list[str]:
    return [command[0], path, *command[1:]]


def _edge_lines(n: int):
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from("+-"))
    lines = st.lists(edge, max_size=10, unique_by=lambda e: frozenset(e[:2]))
    return lines.map(lambda es: f"{n} {len(es)}\n" + "".join(f"{u} {v} {s}\n" for u, v, s in es))


# text over the file alphabet with a header of order <= 8: edge lines (a
# loop now and then), or noise
_graph_file_texts = st.one_of(
    st.integers(1, 8).flatmap(_edge_lines),
    st.builds(
        "{} {}\n{}".format,
        st.integers(0, 8),
        st.integers(0, 12),
        st.text(alphabet="0123456789 +-#\n\t", max_size=60),
    ),
)


@pytest.fixture
def graph_file(tmp_path):
    def write(text: str, name: str = "g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestNullityCommand:
    def test_unbalanced_c6(self, graph_file, capsys):
        assert main(["nullity", graph_file(UNBALANCED_C6)]) == 0
        assert capsys.readouterr().out == "n=6 rank=4 nullity=2\n"

    def test_trailing_comments_allowed(self, graph_file, capsys):
        text = "4 5   # doubled triangle\n0 1 +\n0 2 - # negative\n0 3 -\n1 2 +\n1 3 +\n"
        assert main(["nullity", graph_file(text)]) == 0
        assert capsys.readouterr().out == "n=4 rank=3 nullity=1\n"

    def test_missing_file_exits_3(self, capsys):
        assert main(["nullity", "/nonexistent/graph.txt"]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_3_with_line(self, graph_file, capsys):
        for text in ("2 1\n0 0 +\n", "11 1\n0 1_0 +\n"):
            assert main(["nullity", graph_file(text)]) == 3
            assert "line 2" in capsys.readouterr().err

    def test_huge_header_exits_3_before_any_matrix(self, graph_file, capsys, monkeypatch):
        # the package binds the name rank to the function, not the module
        rank_module = importlib.import_module("signed_nullity.rank")

        def refuse(g):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(rank_module, "adjacency_matrix", refuse)
        assert main(["nullity", graph_file("100000000 0\n")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1" in captured.err and "exceeds" in captured.err


class TestGraphFiles:
    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
    def test_non_utf8_file_exits_3_naming_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe 2 1\n0 1 +\n")
        assert main(_argv(command, str(path))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and "utf-8" in captured.err

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=60), _graph_file_texts))
    def test_any_file_gives_a_result_or_an_input_error(self, content):
        # every file-taking subcommand: exit 0, or exit 3 with nothing on stdout
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "wb") as handle:
                handle.write(content if isinstance(content, bytes) else content.encode())
            for command in FILE_COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(_argv(command, path))
                assert code in (0, 3), (command, err.getvalue())
                if code == 3:
                    assert out.getvalue() == "" and err.getvalue().startswith("error: ")


    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
    def test_value_error_that_is_no_format_error_exits_4(self, graph_file, capsys, monkeypatch, command):
        from signed_nullity import cli

        def fail(text):
            raise ValueError("parser fault")

        monkeypatch.setattr(cli, "parse_graph", fail)
        assert main(_argv(command, graph_file(DOUBLED_TRIANGLE_NEG))) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "parser fault" in captured.err


class TestBalanceCommand:
    def test_balanced_witness(self, graph_file, capsys):
        assert main(["balance", graph_file("2 1\n0 1 -\n")]) == 0
        assert capsys.readouterr().out == "balanced theta=+-\n"

    def test_unbalanced_witness(self, graph_file, capsys):
        assert main(["balance", graph_file("3 3\n0 1 -\n1 2 +\n0 2 +\n")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("unbalanced cycle=")
        assert sorted(out.split("=")[1].split()) == ["0", "1", "2"]


class TestClassifyCommand:
    def test_extremal_doubled_triangle(self, graph_file, capsys):
        assert main(["classify", graph_file(DOUBLED_TRIANGLE_NEG)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["document"] == "classification"
        assert doc["order"] == 4 and doc["rank"] == 3 and doc["nullity"] == 1
        assert doc["rank3"]["matches"] is True
        assert doc["rank2"]["matches"] is False
        assert doc["bicyclic_base"]["kind"] == "theta"
        assert doc["unbalanced_bicyclic"] == {"bound_holds": True, "is_extremal": True}

    def test_internal_value_error_exits_4_with_traceback(self, graph_file, capsys, monkeypatch):
        # the file parsed, so a ValueError from a layer below is a fault, not a usage error
        from signed_nullity import recognizers

        def fail(g):
            raise ValueError("recognizer fault")

        monkeypatch.setattr(recognizers, "recognize_rank2", fail)
        assert main(["classify", graph_file(DOUBLED_TRIANGLE_NEG)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "recognizer fault" in captured.err

    def test_non_bicyclic_has_null_base(self, graph_file, capsys):
        assert main(["classify", graph_file("2 1\n0 1 +\n")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bicyclic_base"] is None
        assert doc["unbalanced_bicyclic"] is None
        assert doc["rank2"]["matches"] is True


class TestReduceCommand:
    def test_triangle_with_pendant(self, graph_file, capsys):
        assert main(["reduce", graph_file(TRIANGLE_PENDANT)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["document"] == "reduction"
        assert doc["input"]["order"] == 4
        assert doc["reduced"]["order"] == 0
        ops = [step["op"] for step in doc["steps"]]
        assert ops == ["delete-pendant-pair", "delete-pendant-pair"]

    def test_cycle_reduces_to_itself(self, graph_file, capsys):
        assert main(["reduce", graph_file("3 3\n0 1 +\n1 2 +\n0 2 -\n")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == []
        assert doc["reduced"]["text"] == doc["input"]["text"]


class TestVerifyCommand:
    def test_clean_sweep_exits_0(self, capsys):
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "5"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["document"] == "verification-report"
        assert doc["ok"] is True and doc["violations"] == []
        assert "checked" in captured.err

    def test_unknown_theorem_exits_2(self, capsys):
        assert main(["verify", "--theorem", "nope", "--max-n", "5"]) == 2
        assert "unknown theorem id" in capsys.readouterr().err

    def test_over_ceiling_exits_2(self, capsys, monkeypatch):
        from signed_nullity import verification

        def refuse(fn, tasks, workers):  # a broken cap fails here instead of sweeping for hours
            raise AssertionError("a chunk was started")

        monkeypatch.setattr(verification, "_run_tasks", refuse)
        assert main(["verify", "--theorem", "theorem2.3", "--max-n", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "up to 8 (its ceiling)" in captured.err

    def test_below_smallest_bicyclic_order_exits_2(self, capsys):
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "needs max_n >= 4" in captured.err

    def test_order_9_bicyclic_sweep_prints_only_the_count(self, capsys):
        assert main(["verify", "--theorem", "corollary2.9", "--max-n", "9"]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"checked \d+ instances in \d+\.\d\ds\n", captured.err)
        assert json.loads(captured.out)["ok"] is True

    def test_usage_error_exits_2(self, capsys):
        assert main(["verify", "--max-n", "5"]) == 2

    @pytest.mark.parametrize("command", [
        ["verify", "--theorem", "theorem3.1", "--max-n", "4"],
        ["catalog", "--n", "5", "--k", "4"],
    ], ids=["verify", "catalog"])
    def test_value_error_inside_a_check_exits_4_with_traceback(self, capsys, monkeypatch, command):
        # only a refused argument is a usage error; a fault in the work is internal
        from signed_nullity import verification

        def fail(g):
            raise ValueError("fault inside a check")

        monkeypatch.setattr(verification, "nullity", fail)
        assert main(command) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "ValueError: fault inside a check" in captured.err

    def test_byte_identical_documents(self, capsys):
        main(["verify", "--theorem", "lemma2.1ii", "--max-n", "12"])
        first = capsys.readouterr().out
        main(["verify", "--theorem", "lemma2.1ii", "--max-n", "12"])
        second = capsys.readouterr().out
        assert first == second

    def test_violations_exit_1(self, capsys, monkeypatch):
        from signed_nullity import verification
        from signed_nullity.verification import TheoremReport, Violation

        fake = TheoremReport(
            theorem="theorem3.1",
            orders_checked=(4,),
            instances_checked=1,
            violations=(Violation(4, "synthetic counterexample", "4 0\n"),),
            elapsed=0.0,
        )
        monkeypatch.setattr(verification, "verify_theorem", lambda *a, **kw: fake)
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "4"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["violations"][0]["detail"] == "synthetic counterexample"

    def test_internal_error_exits_4_with_traceback(self, capsys, monkeypatch):
        from signed_nullity import verification

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(verification, "verify_theorem", crash)
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "boom" in captured.err

    @staticmethod
    def _sweep_failing_in_a_child(monkeypatch, fail) -> None:
        """Register the sweep "fails": two chunks whose check calls ``fail``
        in a forked worker only.  A barrier makes the caller and the child
        each take one chunk, so the caller, which runs a share too, never
        fails."""
        from signed_nullity import verification

        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=20)
        caller = os.getpid()

        def check(*args):
            barrier.wait()
            if os.getpid() != caller:
                fail()
            yield from ()

        sweep = verification.Sweep("fails in a child", 3, 4, lambda max_n: [(3,), (4,)], check)
        monkeypatch.setitem(verification._SWEEPS, "fails", sweep)

    def test_crashed_worker_exits_4_with_one_line(self, capsys, monkeypatch):
        self._sweep_failing_in_a_child(monkeypatch, lambda: os._exit(3))
        assert main(["verify", "--theorem", "fails", "--max-n", "4", "--workers", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a worker process crashed")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert multiprocessing.active_children() == []

    def test_value_error_in_a_child_exits_4_with_its_traceback(self, capsys, monkeypatch):
        def fail():
            raise ValueError("fault inside a forked check")

        self._sweep_failing_in_a_child(monkeypatch, fail)
        assert main(["verify", "--theorem", "fails", "--max-n", "4", "--workers", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        # the child's traceback, down to the failing line, then the caller's
        child, _, caller = captured.err.partition("The above exception was the direct cause")
        assert child.count("Traceback (most recent call last)") == 1
        assert 'raise ValueError("fault inside a forked check")' in child
        assert "in check" in child and "ValueError: fault inside a forked check" in child
        assert "Traceback" in caller and caller.rstrip().endswith("ValueError: fault inside a forked check")
        assert multiprocessing.active_children() == []

    def test_help_points_to_the_theorems_command(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "theorems" in out and "--list" not in out


class TestRefusedArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify", "--theorem", "nope", "--max-n", "5"],
                "unknown theorem id 'nope'; known ids: corollary2.6, corollary2.9, "
                "lemma2.1i, lemma2.1ii, lemma2.5, theorem2.3, theorem2.4, theorem3.1",
            ),
            (
                ["verify", "--theorem", "lemma2.5", "--max-n", "13"],
                "sweep lemma2.5 needs max_n >= 4 and accepts max_n up to 12 (its ceiling), got 13",
            ),
            (
                ["verify", "--theorem", "theorem2.3", "--max-n", "0"],
                "sweep theorem2.3 needs max_n >= 1 and accepts max_n up to 8 (its ceiling), got 0",
            ),
            (
                ["verify", "--theorem", "lemma2.1ii", "--max-n", "4", "--workers", "0"],
                "workers must be at least 1, got 0",
            ),
            (["catalog", "--n", "5", "--k", "2"], "need 3 <= k <= n, got k=2, n=5"),
            (["catalog", "--n", "5", "--k", "6"], "need 3 <= k <= n, got k=6, n=5"),
            (
                ["catalog", "--n", "13", "--k", "4"],
                "bicyclic classes have orders 4 up to 12 (their ceiling), got 13",
            ),
            (["catalog", "--n", "4", "--k", "3", "--workers", "-3"], "workers must be at least 1, got -3"),
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestWorkersOption:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, workers):
        assert main(["verify", "--theorem", "lemma2.1ii", "--max-n", "4", "--workers", workers]) == 2
        assert main(["catalog", "--n", "4", "--k", "3", "--workers", workers]) == 2
        assert capsys.readouterr().out == ""


class TestImport:
    @staticmethod
    def _fresh_stdout(code: str) -> str:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        code = (
            "import sys, signed_nullity.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        assert self._fresh_stdout(code) == "[]\n"

    @pytest.mark.parametrize(
        "command, layers",
        [
            (["nullity"], []),
            (["convert", "--to", "dot"], []),
            (["balance"], []),
            (["classify"], ["documents", "recognizers"]),
            (["reduce"], ["documents", "reductions"]),
        ],
        ids=["nullity", "convert", "balance", "classify", "reduce"],
    )
    def test_file_command_loads_only_its_layers(self, graph_file, command, layers):
        # a one-graph call never loads verification, canonical or enumeration
        code = (
            "import contextlib, io, sys\n"
            "from signed_nullity.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({_argv(command, graph_file(DOUBLED_TRIANGLE_NEG))!r}) == 0\n"
            "print(*sorted(m for m in sys.modules if m.startswith('signed_nullity.')))"
        )
        loaded = set(self._fresh_stdout(code).split())
        base = {"cli", "graphio", "graphs", "rank"}
        assert loaded == {f"signed_nullity.{name}" for name in base.union(layers)}


    @pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
    def test_file_command_loads_no_code_introspection(self, graph_file, command):
        # records are NamedTuples and SignedGraph a plain class, so a
        # one-graph call loads neither dataclasses nor the modules it imports
        code = (
            "import contextlib, io, sys\n"
            "from signed_nullity.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({_argv(command, graph_file(DOUBLED_TRIANGLE_NEG))!r}) == 0\n"
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
        )
        assert self._fresh_stdout(code) == "\n"


class TestCatalogCommand:
    def test_order4_catalog(self, capsys):
        assert main(["catalog", "--n", "4", "--k", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["document"] == "nullity-catalog"
        assert doc["entry_count"] == 1
        entry = doc["entries"][0]
        assert entry["base"]["kind"] == "theta"
        assert [[3, "-"], [3, "-"], [4, "+"]] in entry["profiles"]

    def test_witness_replayable_by_nullity_command(self, capsys, tmp_path):
        assert main(["catalog", "--n", "5", "--k", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        witness = doc["entries"][0]["witness"]
        path = tmp_path / "witness.txt"
        path.write_text(witness)
        assert main(["nullity", str(path)]) == 0
        assert capsys.readouterr().out.strip().endswith("nullity=1")

    def test_balanced_only_flag(self, capsys):
        assert main(["catalog", "--n", "5", "--k", "4", "--balanced-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["balanced_only"] is True

    def test_bad_k_exits_2(self, capsys):
        assert main(["catalog", "--n", "5", "--k", "2"]) == 2

    def test_over_ceiling_exits_2(self, capsys):
        assert main(["catalog", "--n", "13", "--k", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "up to 12 (their ceiling)" in captured.err


class TestConvertCommand:
    def test_dot_output(self, graph_file, capsys):
        assert main(["convert", graph_file("3 2\n0 1 +\n1 2 -\n"), "--to", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph {")
        assert 'style=dashed' in out

    def test_unknown_format_exits_2(self, graph_file, capsys):
        assert main(["convert", graph_file("2 1\n0 1 +\n"), "--to", "png"]) == 2


class TestTheoremsCommand:
    def test_lists_ids(self, capsys):
        assert main(["theorems"]) == 0
        out = capsys.readouterr().out
        assert "theorem3.1" in out and "lemma2.5" in out
