"""CLI behaviors: formats, exit codes, files written, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import optpat
from optpat import Opt, cli, parse_graph, parse_pattern, reduction, verify_witness
from optpat.cli import main
from optpat.reduction import WitnessPair

from helpers import (
    CHECKERBOARD_JSON,
    M,
    ONE_TILE_EMPTY_JSON,
    ONE_TILE_SELF_JSON,
    rand_instance,
)
from oracles import _occurrences


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Instance files plus generated reduction and witness artifacts."""
    root = tmp_path_factory.mktemp("cli")
    (root / "checker.json").write_text(CHECKERBOARD_JSON)
    (root / "self.json").write_text(ONE_TILE_SELF_JSON)
    (root / "empty.json").write_text(ONE_TILE_EMPTY_JSON)
    runner = CliRunner()
    red = runner.invoke(main, ["--out", str(root / "red"), "reduce", str(root / "checker.json")])
    assert red.exit_code == 0, red.output
    wit = runner.invoke(main, ["--out", str(root / "wit"), "witness", str(root / "checker.json")])
    assert wit.exit_code == 0, wit.output
    return root


class TestEval:
    def test_empty_pattern_single_row(self, runner, tmp_path):
        (tmp_path / "g.nt").write_text("a p b .\n")
        (tmp_path / "p.sp").write_text("{ }")
        result = runner.invoke(main, ["eval", str(tmp_path / "g.nt"), str(tmp_path / "p.sp")])
        assert result.exit_code == 0
        assert result.stdout == "{}\n"

    def test_root_probe_has_32_rows(self, runner, workspace, tmp_path):
        (tmp_path / "root.sp").write_text(
            "{ ?r hType inInitRow . ?c cType Cell . ?s1 hNext ?s2 ."
            "  ?s1 vNext ?s3 . ?s2 vNext ?s4 }"
        )
        result = runner.invoke(
            main, ["eval", str(workspace / "wit" / "G.nt"), str(tmp_path / "root.sp")]
        )
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 32

    def test_malformed_pattern_exits_2(self, runner, tmp_path):
        (tmp_path / "g.nt").write_text("a p b .\n")
        (tmp_path / "p.sp").write_text("({ a p b } OPT")
        result = runner.invoke(main, ["eval", str(tmp_path / "g.nt"), str(tmp_path / "p.sp")])
        assert result.exit_code == 2

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", str(tmp_path / "nope.nt"), str(tmp_path / "nope.sp")])
        assert result.exit_code == 2

    def test_json_mode_emits_array(self, runner, workspace, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x bType ?y }")
        result = runner.invoke(
            main, ["--json", "eval", str(workspace / "wit" / "G.nt"), str(tmp_path / "p.sp")]
        )
        assert result.exit_code == 0
        rows = json.loads(result.stdout)
        assert rows == [
            {"?x": "bNotSub", "?y": "BaseNotSub"},
            {"?x": "bSub", "?y": "BaseSub"},
        ]

    def test_deterministic_output(self, runner, workspace, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x cType Cell }")
        args = ["eval", str(workspace / "wit" / "G.nt"), str(tmp_path / "p.sp")]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output


class TestClassify:
    def test_basic_pattern(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x p ?y }")
        result = runner.invoke(main, ["classify", str(tmp_path / "p.sp")])
        assert result.exit_code == 0
        assert "well_designed: true" in result.output
        assert "weakly_well_designed: true" in result.output

    def test_generated_chain(self, runner, workspace):
        result = runner.invoke(main, ["classify", str(workspace / "red" / "Pprime.sp")])
        assert result.exit_code == 0
        assert "well_designed: false" in result.output
        assert "weakly_well_designed: true" in result.output

    def test_undominated_reuse(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("({?z r ?z} OPT ({a p a} OPT {?z q ?z}))")
        result = runner.invoke(main, ["--json", "classify", str(tmp_path / "p.sp")])
        assert json.loads(result.stdout) == {
            "well_designed": False,
            "weakly_well_designed": False,
        }

    def test_parse_error_exits_2(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ a p }")
        assert runner.invoke(main, ["classify", str(tmp_path / "p.sp")]).exit_code == 2

    def test_seed_flag_is_usage_error(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x p ?y }")
        result = runner.invoke(main, ["--seed", "7", "classify", str(tmp_path / "p.sp")])
        assert result.exit_code == 2


class TestSubsumes:
    def test_identical_files_no_counterexample(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x p ?x }")
        result = runner.invoke(
            main, ["subsumes", str(tmp_path / "p.sp"), str(tmp_path / "p.sp")]
        )
        assert result.exit_code == 0
        assert "no_counterexample_within_budget" in result.output

    def test_default_search_finds_witness_files(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x p ?x }")
        (tmp_path / "p2.sp").write_text("{ ?x q ?y }")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path / "out"), "subsumes",
             str(tmp_path / "p.sp"), str(tmp_path / "p2.sp")],
        )
        assert result.exit_code == 1
        graph = parse_graph((tmp_path / "out" / "counterexample.nt").read_text())
        assert len(graph) == 1
        mapping = json.loads((tmp_path / "out" / "counterexample_mapping.json").read_text())
        # the artifacts re-verify: feed them back through the library
        from optpat import Status, check_subsumed_on

        recheck = check_subsumed_on(
            parse_pattern("{ ?x p ?x }"), parse_pattern("{ ?x q ?y }"), graph
        )
        assert recheck.status is Status.VIOLATED
        assert recheck.witness[1].to_jsonable() == mapping

    def test_default_fresh_iris_one_per_variable(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ ?x p ?x }")
        (tmp_path / "p2.sp").write_text("{ ?x q ?y }")
        args = ["--json", "--out", str(tmp_path / "out"), "subsumes",
                str(tmp_path / "p.sp"), str(tmp_path / "p2.sp")]
        result = runner.invoke(main, args)
        assert json.loads(result.stdout)["budget"]["max_fresh_iris"] == 2
        result = runner.invoke(main, [*args, "--max-fresh", "0"])
        assert json.loads(result.stdout)["budget"]["max_fresh_iris"] == 0

    def test_on_graph_generated_pair(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "subsumes",
             str(workspace / "red" / "P.sp"), str(workspace / "red" / "Pprime.sp"),
             "--on-graph", str(workspace / "wit" / "G.nt")],
        )
        assert result.exit_code == 1
        assert '"?b": "bSub"' in result.output

    def test_on_graph_holding(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main,
            ["subsumes", str(workspace / "red" / "P.sp"), str(workspace / "red" / "P.sp"),
             "--on-graph", str(workspace / "wit" / "G.nt")],
        )
        assert result.exit_code == 0
        assert "holds_on_graph" in result.output


class TestContainsAndEquiv:
    def test_contains_empty_graph_witness(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("{ }")
        (tmp_path / "p2.sp").write_text("{ ?x p ?y }")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path / "out"), "contains",
             str(tmp_path / "p.sp"), str(tmp_path / "p2.sp")],
        )
        assert result.exit_code == 1
        assert (tmp_path / "out" / "counterexample.nt").read_text() == ""

    def test_equiv_reflexive(self, runner, tmp_path):
        # The default budget's full stream: its length and last position pin
        # the candidate order and both prunings.
        (tmp_path / "p.sp").write_text("({ ?x p ?y } OPT { ?y q ?z })")
        args = ["equiv", str(tmp_path / "p.sp"), str(tmp_path / "p.sp")]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "candidates_examined: 81649" in result.stdout.splitlines()
        result = runner.invoke(main, ["--json", *args])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["position"] == [3, 79779]

    def test_equiv_json_verdict_shape(self, runner, tmp_path):
        (tmp_path / "p.sp").write_text("({ } OPT { ?x p ?y })")
        (tmp_path / "p2.sp").write_text("{ ?x p ?y }")
        result = runner.invoke(
            main,
            ["--json", "--out", str(tmp_path / "out"), "equiv",
             str(tmp_path / "p.sp"), str(tmp_path / "p2.sp")],
        )
        assert result.exit_code == 1
        verdict = json.loads(result.stdout)
        assert verdict["status"] == "violated"
        assert verdict["graph"] == ""
        assert verdict["mapping"] == {}
        assert "budget" in verdict and "candidates_examined" in verdict


class TestReduce:
    def test_writes_expected_files(self, workspace):
        for name in ("P.sp", "Pprime.sp", "manifest.json"):
            assert (workspace / "red" / name).exists()
        manifest = json.loads((workspace / "red" / "manifest.json").read_text())
        assert manifest["counts"]["opt_nodes"] == 7
        assert manifest["tile_iris"] == {"a": "a", "b": "b"}

    def test_rerun_is_byte_identical(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "reduce", str(workspace / "checker.json")]
        )
        assert result.exit_code == 0
        for name in ("P.sp", "Pprime.sp", "manifest.json"):
            assert (tmp_path / name).read_bytes() == (workspace / "red" / name).read_bytes()

    def test_one_tile_chain_size(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "reduce", str(workspace / "self.json")]
        )
        assert result.exit_code == 0
        chain = parse_pattern((tmp_path / "Pprime.sp").read_text())
        opts = [path for path, node in _occurrences(chain) if isinstance(node, Opt)]
        assert len(opts) == 2

    def test_collision_rename_noted_in_manifest(self, runner, tmp_path):
        (tmp_path / "inst.json").write_text(
            '{"tiles": ["Cell"], "h": [["Cell", "Cell"]], "v": [["Cell", "Cell"]]}'
        )
        result = runner.invoke(
            main, ["--out", str(tmp_path / "out"), "reduce", str(tmp_path / "inst.json")]
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["tile_iris"] == {"Cell": "tile_Cell"}

    def test_schema_error_exits_2(self, runner, tmp_path):
        (tmp_path / "inst.json").write_text('{"tiles": ["t", "t"]}')
        result = runner.invoke(main, ["reduce", str(tmp_path / "inst.json")])
        assert result.exit_code == 2


class TestWitness:
    def test_checkerboard_verifies(self, workspace):
        for name in ("G.nt", "mu.json", "tiling.json"):
            assert (workspace / "wit" / name).exists()
        graph = parse_graph((workspace / "wit" / "G.nt").read_text())
        mapping = json.loads((workspace / "wit" / "mu.json").read_text())
        assert mapping == {"?b": "bSub"}
        pair = WitnessPair(graph, M(mapping))
        p = parse_pattern((workspace / "red" / "P.sp").read_text())
        p2 = parse_pattern((workspace / "red" / "Pprime.sp").read_text())
        assert verify_witness(p, p2, pair)

    def test_untileable_exits_3(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "witness", str(workspace / "empty.json")]
        )
        assert result.exit_code == 3

    def test_corrupted_tiling_exits_2(self, runner, workspace, tmp_path):
        (tmp_path / "bad.json").write_text(
            '{"p": 2, "q": 2, "grid": [["a", "a"], ["a", "a"]]}'
        )
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "witness", str(workspace / "checker.json"),
             "--tiling", str(tmp_path / "bad.json")],
        )
        assert result.exit_code == 2

    def test_supplied_valid_tiling(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main,
            ["--json", "--out", str(tmp_path), "witness", str(workspace / "checker.json"),
             "--tiling", str(workspace / "wit" / "tiling.json")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["verified"] is True
        assert (report["p"], report["q"]) == (2, 2)


class TestTile:
    def test_find_periodic_checkerboard(self, runner, workspace):
        result = runner.invoke(
            main, ["--json", "tile", str(workspace / "checker.json"), "--find-periodic"]
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data["periodic"] == {"p": 2, "q": 2, "grid": [["a", "b"], ["b", "a"]]}

    def test_certify_untileable(self, runner, workspace):
        result = runner.invoke(
            main, ["--json", "tile", str(workspace / "empty.json"), "--certify-untileable"]
        )
        assert json.loads(result.stdout) == {"untileable_certificate": 2}

    def test_certify_absent_for_tileable(self, runner, workspace):
        result = runner.invoke(
            main, ["--json", "tile", str(workspace / "self.json"), "--certify-untileable"]
        )
        assert json.loads(result.stdout) == {"untileable_certificate": None}

    def test_certify_large_window_on_tileable(self, runner, workspace):
        # One backtracking step per cell of a 40x40 window: no recursion.
        result = runner.invoke(
            main, ["tile", str(workspace / "checker.json"), "--certify-untileable", "--max-n", "40"]
        )
        assert result.exit_code == 0, result.output
        assert result.stdout == "no untileability certificate with n <= 40\n"

    def test_requires_exactly_one_mode(self, runner, workspace):
        assert runner.invoke(main, ["tile", str(workspace / "checker.json")]).exit_code == 2
        result = runner.invoke(
            main,
            ["tile", str(workspace / "checker.json"), "--find-periodic", "--certify-untileable"],
        )
        assert result.exit_code == 2


class TestPipeline:
    def test_checkerboard_end_to_end(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pipeline", str(workspace / "checker.json")]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["verified"] is True
        assert manifest["periodic_tiling"]["p"] == 2
        for name in ("P.sp", "Pprime.sp", "G.nt", "mu.json", "tiling.json"):
            assert (tmp_path / name).exists()
        # witness files match the standalone witness command
        assert (tmp_path / "G.nt").read_bytes() == (workspace / "wit" / "G.nt").read_bytes()

    def test_untileable_reports_certificate_and_exits_3(self, runner, workspace, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pipeline", str(workspace / "empty.json")]
        )
        assert result.exit_code == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["verified"] is None
        assert manifest["periodic_tiling"] is None
        assert manifest["untileable_certificate"] == 2


class TestReductionBuiltOnce:
    @pytest.mark.parametrize("command", ["reduce", "witness", "pipeline"])
    def test_each_pattern_built_once(self, runner, workspace, tmp_path, monkeypatch, command):
        calls = []
        for name in ("build_p", "build_p_prime"):
            real = getattr(reduction, name)
            monkeypatch.setattr(
                reduction, name, lambda inst, name=name, real=real: calls.append(name) or real(inst)
            )
        result = runner.invoke(
            main, ["--out", str(tmp_path), command, str(workspace / "checker.json")]
        )
        assert result.exit_code == 0, result.output
        assert sorted(calls) == ["build_p", "build_p_prime"]

    def test_opt_node_count_matches_occurrences(self):
        rng = random.Random(81)
        for _ in range(20):
            chain = reduction.build_p_prime(rand_instance(rng))
            opts = [path for path, node in _occurrences(chain) if isinstance(node, Opt)]
            assert cli._opt_nodes(chain) == len(opts)


OUT_OF_RANGE = [
    *(
        ([command, "p.sp", "p.sp"], option, "-1")
        for command in ("subsumes", "contains", "equiv")
        for option in ("--max-triples", "--max-fresh", "--max-candidates")
    ),
    *(
        (args, option, value)
        for args in (
            ["witness", "checker.json"],
            ["tile", "checker.json", "--find-periodic"],
            ["tile", "empty.json", "--certify-untileable"],
            ["pipeline", "empty.json"],
        )
        for option in ("--max-period", "--max-n")
        if option == "--max-period" or args[0] != "witness"
        for value in ("0", "-1")
    ),
]


class TestOutOfRangeBounds:
    """A bound below its range is a usage error (exit 2), also in a mode
    that does not read it, never an internal failure."""

    @pytest.mark.parametrize(
        "args, option, value",
        OUT_OF_RANGE,
        ids=[" ".join([args[0], *(a for a in args if a[:2] == "--"), option, value])
             for args, option, value in OUT_OF_RANGE],
    )
    def test_usage_error(self, runner, tmp_path, monkeypatch, args, option, value):
        (tmp_path / "p.sp").write_text("{ ?x p ?y }")
        (tmp_path / "checker.json").write_text(CHECKERBOARD_JSON)
        (tmp_path / "empty.json").write_text(ONE_TILE_EMPTY_JSON)
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, ["--out", "out", *args, option, value])
        assert result.exit_code == 2
        assert "internal:" not in result.stderr
        assert f"Invalid value for '{option}'" in result.stderr


class TestInternalFailure:
    @pytest.fixture()
    def broken_eval(self, monkeypatch, tmp_path):
        def boom(p, g):
            raise RuntimeError("engine\nfailure")

        monkeypatch.setattr(cli, "evaluate", boom)
        (tmp_path / "g.nt").write_text("a p b .\n")
        (tmp_path / "p.sp").write_text("{ ?x p ?y }")
        return ["eval", str(tmp_path / "g.nt"), str(tmp_path / "p.sp")]

    def test_exits_2_with_one_line(self, runner, broken_eval):
        result = runner.invoke(main, broken_eval)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: internal: RuntimeError: engine failure\n"
        assert "Traceback" not in result.output

    def test_exits_2_without_standalone_mode(self, broken_eval, capsys):
        with pytest.raises(SystemExit) as caught:
            main.main(broken_eval, standalone_mode=False)
        assert caught.value.code == 2
        assert capsys.readouterr().err == "error: internal: RuntimeError: engine failure\n"



class TestFileAccess:
    """Files are read unbuffered and written in binary; the results must be
    those of text-mode `open` with UTF-8."""

    @pytest.mark.parametrize("name", ["nope.sp", "adir"])
    def test_unreadable_path_message_names_it(self, runner, tmp_path, name):
        (tmp_path / "adir").mkdir()
        path = str(tmp_path / name)
        result = runner.invoke(main, ["classify", path])
        assert result.exit_code == 2
        with pytest.raises(OSError) as caught:
            open(path, encoding="utf-8").read()
        assert result.stderr == f"error: {caught.value}\n"

    def test_read_matches_text_mode(self, tmp_path):
        # Mixed newlines, non-ASCII, and more than one read's worth of bytes.
        texts = ["a\r\nb\rc\nd", "é\r\r\n" * 3, "{ ?x p ?y }\r\n" * 10_000, ""]
        for i, text in enumerate(texts):
            path = tmp_path / f"t{i}.sp"
            path.write_bytes(text.encode("utf-8"))
            assert cli._read_text(str(path)) == open(path, encoding="utf-8").read()

    def test_write_files_in_order_utf8_truncating(self, tmp_path):
        out = tmp_path / "new" / "dir"
        cli._write_files(str(out), {"a.nt": "x" * 100})
        files = {"b.json": "é\n", "a.nt": "short\n", "empty": ""}
        paths = cli._write_files(str(out), files)
        assert paths == [str(out / name) for name in files]
        for name, data in files.items():
            assert (out / name).read_bytes() == data.encode("utf-8")


GOLDEN_INPUTS = {
    "p.sp": "{ ?x p ?x }\n",
    "p2.sp": "{ ?x q ?y }\n",
    "g.nt": "a p a .\n",
    "checker.json": CHECKERBOARD_JSON,
    "empty.json": ONE_TILE_EMPTY_JSON,
}
GOLDEN_RUNS = {
    "subsumes-violated": ["subsumes", "p.sp", "p2.sp"],
    "subsumes-no-counterexample": ["subsumes", "p.sp", "p.sp"],
    "subsumes-holds-on-graph": ["subsumes", "p.sp", "p.sp", "--on-graph", "g.nt"],
    "reduce-checkerboard": ["reduce", "checker.json"],
    "witness-checkerboard": ["witness", "checker.json"],
    "pipeline-checkerboard": ["pipeline", "checker.json"],
    "pipeline-untileable": ["pipeline", "empty.json"],
}


def run_golden(case: str, mode: str):
    """Run one golden case from the current directory, with GOLDEN_INPUTS in it."""
    flags = ["--json"] if mode == "json" else []
    result = CliRunner().invoke(main, [*flags, "--out", "out", *GOLDEN_RUNS[case]])
    return {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


class TestGoldenOutput:
    """Exact exit code, stdout and stderr of the commands that write files,
    in text and --json mode. The `wrote` lines go to stdout in text mode and
    to stderr in JSON mode; tests/golden_cli.json holds the recorded runs."""

    @pytest.mark.parametrize("mode", ["text", "json"])
    @pytest.mark.parametrize("case", list(GOLDEN_RUNS))
    def test_output_is_unchanged(self, case, mode, tmp_path, monkeypatch):
        golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
        for name, text in GOLDEN_INPUTS.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert run_golden(case, mode) == golden[f"{case} {mode}"]


DETERMINISM_RUNS = [
    ["--json", "--out", "wit", "witness", "checker.json"],
    ["--out", "red", "reduce", "checker.json"],
    ["eval", "wit/G.nt", "red/Pprime.sp"],
    ["--out", "sub", "subsumes", "p.sp", "p2.sp"],
    ["--json", "equiv", "w1.sp", "w1.sp"],
    ["--json", "--out", "pipe", "pipeline", "checker.json"],
]


class TestCrossProcessDeterminism:
    """Set iteration order depends on PYTHONHASHSEED and, through the
    identity hashes of interned terms, on object addresses; no output may."""

    def test_two_hash_seeds_print_and_write_the_same_bytes(self, tmp_path):
        inputs = {**GOLDEN_INPUTS, "w1.sp": "({ ?x p ?y } OPT { ?y q ?z })\n"}
        roots = [tmp_path / seed for seed in ("0", "1")]
        for root in roots:
            root.mkdir()
            for name, text in inputs.items():
                (root / name).write_text(text)
        src = str(Path(optpat.__file__).resolve().parents[1])
        for args in DETERMINISM_RUNS:
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "optpat.cli", *args], cwd=root,
                    env={**os.environ, "PYTHONHASHSEED": root.name, "PYTHONPATH": src},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                for root in roots
            ]
            runs = [(*proc.communicate(timeout=60), proc.returncode) for proc in procs]
            assert runs[0] == runs[1], args
            assert runs[0][2] in (0, 1) and runs[0][0], args

        def written(root):
            return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

        first, second = map(written, roots)
        assert len(first) == len(inputs) + 14  # 3 witness, 3 reduce, 2 subsumes, 6 pipeline files
        assert first == second
