"""End-to-end command-line tests: output formats and exit codes."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from signed_nullity.cli import main

UNBALANCED_C6 = "6 6\n0 1 -\n1 2 +\n2 3 +\n3 4 +\n4 5 +\n0 5 +\n"
DOUBLED_TRIANGLE_NEG = "4 5\n0 1 +\n0 2 -\n0 3 -\n1 2 +\n1 3 +\n"
TRIANGLE_PENDANT = "4 4\n0 1 +\n0 2 +\n1 2 +\n0 3 +\n"


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

    def test_missing_file_exits_3(self, capsys):
        assert main(["nullity", "/nonexistent/graph.txt"]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_3_with_line(self, graph_file, capsys):
        assert main(["nullity", graph_file("2 1\n0 0 +\n")]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_huge_header_exits_3_before_any_matrix(self, graph_file, capsys, monkeypatch):
        import signed_nullity.cli as cli_module

        def refuse(g):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(cli_module, "adjacency_matrix", refuse)
        assert main(["nullity", graph_file("100000000 0\n")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 1" in captured.err and "exceeds" in captured.err


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
        monkeypatch.setenv("SIGNED_NULLITY_MAX_N", "5")
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "6"]) == 2

    def test_beyond_fast_range_warns_on_stderr(self, capsys):
        assert main(["verify", "--theorem", "corollary2.9", "--max-n", "9"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "beyond the fast range" in captured.err
        assert json.loads(captured.out)["ok"] is True

    def test_usage_error_exits_2(self, capsys):
        assert main(["verify", "--max-n", "5"]) == 2

    def test_byte_identical_documents(self, capsys):
        main(["verify", "--theorem", "lemma2.1ii", "--max-n", "12"])
        first = capsys.readouterr().out
        main(["verify", "--theorem", "lemma2.1ii", "--max-n", "12"])
        second = capsys.readouterr().out
        assert first == second

    def test_violations_exit_1(self, capsys, monkeypatch):
        import signed_nullity.cli as cli_module
        from signed_nullity.verification import TheoremReport, Violation

        fake = TheoremReport(
            theorem="theorem3.1",
            orders_checked=(4,),
            instances_checked=1,
            violations=(Violation(4, "synthetic counterexample", "4 0\n"),),
            elapsed=0.0,
        )
        monkeypatch.setattr(cli_module, "verify_theorem", lambda *a, **kw: fake)
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "4"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["violations"][0]["detail"] == "synthetic counterexample"

    def test_internal_error_exits_4_with_traceback(self, capsys, monkeypatch):
        import signed_nullity.cli as cli_module

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module, "verify_theorem", crash)
        assert main(["verify", "--theorem", "theorem3.1", "--max-n", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "boom" in captured.err

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing check is patched in and reaches the workers by fork only",
    )
    def test_crashed_worker_exits_4_with_one_line(self, capsys, monkeypatch):
        from signed_nullity import verification

        def crash(*args):
            os._exit(3)
            yield

        sweep = verification.Sweep("crashes its worker", 3, lambda max_n: [(3,), (4,)], crash)
        monkeypatch.setitem(verification._SWEEPS, "crash", sweep)
        assert main(["verify", "--theorem", "crash", "--max-n", "4", "--workers", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a worker process crashed")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_help_points_to_the_theorems_command(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert "theorems" in out and "--list" not in out


class TestWorkersOption:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_below_one_exits_2(self, capsys, workers):
        assert main(["verify", "--theorem", "lemma2.1ii", "--max-n", "4", "--workers", workers]) == 2
        assert main(["catalog", "--n", "4", "--k", "3", "--workers", workers]) == 2
        assert capsys.readouterr().out == ""


class TestImport:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        code = (
            "import sys, signed_nullity.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out == "[]\n"


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
