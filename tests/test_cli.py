"""Command line interface: exit codes, output text, JSON reports."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qszegedy import __version__, cli
from qszegedy.cli import _vector_lines, main
from qszegedy.instances import (
    bundled_names,
    instance_to_dict,
    load_bundled,
    parse_graph_spec,
    random_instance_dict,
)
from qszegedy.qmatrix import QMatrix
from qszegedy.quaternion import format_quaternion
from qszegedy.szegedy import WeightMap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_imports_no_private_names():
    # The CLI only formats: everything it takes from the library is public.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("qszegedy"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


class TestSpectrum:
    def test_bundled_pass(self, capsys):
        code, out, err = run(capsys, "spectrum", "k3_loops")
        assert code == 0
        assert err == ""
        assert out.startswith(f"qszegedy {__version__} :: spectrum")
        assert "sha256 15326ab117a6" in out
        assert "unitarity condition (tol 1e-10): PASS" in out
        assert "tree case: non-tree" in out
        assert "-0.666666666667 x2" in out
        assert "1.33333333333 x4" in out
        assert "-1                       multiplicity 3" in out
        assert "-0.333333+0.942809i      multiplicity 2" in out
        assert "0.666667+0.745356i       multiplicity 4" in out
        assert out.rstrip().endswith("result: PASS")

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "spectrum", "c5", "--oracle")
        _, second, _ = run(capsys, "spectrum", "c5", "--oracle")
        assert first == second

    def test_oracle_section(self, capsys):
        code, out, _ = run(capsys, "spectrum", "p3_tree", "--oracle")
        assert code == 0
        assert "oracle comparison" in out
        assert "max pair distance" in out

    def test_eigenvectors_section(self, capsys):
        code, out, _ = run(capsys, "spectrum", "k3_loops", "--eigenvectors")
        assert code == 0
        assert "eigenvectors" in out
        assert "lift" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, "spectrum", "k3_loops", "--output", str(path))
        assert code == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["tool"] == "qszegedy"
        assert report["version"] == __version__
        assert report["command"] == "spectrum"
        assert report["passed"] is True
        assert report["instance"]["name"] == "k3_loops"
        assert len(report["instance"]["sha256"]) == 64
        classes = report["spectrum"]["classes"]
        assert [c["multiplicity"] for c in classes] == [3, 2, 4]
        assert sum(c["multiplicity"] for c in classes) == 9
        assert len(report["spectrum"]["psi_u_spectrum"]) == 18
        # The file must round-trip through json untouched.
        assert json.loads(json.dumps(report)) == report

    def test_non_unitary_instance_fails(self, capsys, tmp_path):
        raw = load_bundled("p3_tree").to_dict()
        raw["weights"]["0->1"] = [0.9, 0.0, 0.0, 0.0]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run(capsys, "spectrum", str(path))
        assert code == 1
        assert "FAIL" in out
        assert "weights are not unitary" in out

    def test_force_reports_direct_spectrum(self, capsys, tmp_path):
        raw = load_bundled("p3_tree").to_dict()
        raw["weights"]["0->1"] = [0.9, 0.0, 0.0, 0.0]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run(capsys, "spectrum", str(path), "--force")
        assert code == 1
        assert "direct" in out
        assert "right spectrum" in out

    @pytest.mark.parametrize(
        "argv",
        [("spectrum",), ("spectrum", "--force"), ("verify",)],
        ids=["spectrum", "spectrum-force", "verify"],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_is_invalid(self, capsys, tmp_path, argv, bad):
        raw = load_bundled("p3_tree").to_dict()
        raw["weights"]["0->1"][0] = bad
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert "weights['0->1'][0]: expected a finite number" in err

    def test_linalg_error_exits_one(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        code, out, err = run(capsys, "spectrum", "p3_tree", "--oracle")
        assert code == 1
        assert err == "error: Eigenvalues did not converge\n"
        assert "Traceback" not in out + err

    def test_unknown_instance(self, capsys):
        code, out, err = run(capsys, "spectrum", "nope")
        assert code == 2
        assert out == ""
        assert "neither an existing file" in err

    def test_malformed_file_reports_field_path(self, capsys, tmp_path):
        raw = load_bundled("p3_tree").to_dict()
        raw["graph"]["edges"][0] = [0, 1, 2]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "graph.edges[0]" in err

    def test_invalid_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_bad_tol_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "k3_loops", "--tol", "wide"])
        capsys.readouterr()

    def test_tol_env_used(self, capsys, monkeypatch):
        monkeypatch.setenv("QWALK_TOL", "1e-6")
        code, out, _ = run(capsys, "spectrum", "k3_loops")
        assert code == 0
        assert "tolerance: 1e-06" in out

    def test_tol_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QWALK_TOL", "1e-6")
        code, out, _ = run(capsys, "spectrum", "k3_loops", "--tol", "1e-9")
        assert code == 0
        assert "tolerance: 1e-09" in out

    def test_tol_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("QWALK_TOL", "banana")
        code, _, err = run(capsys, "spectrum", "k3_loops")
        assert code == 2
        assert "QWALK_TOL" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--tol", "QWALK_TOL"])
    def test_tol_out_of_range_is_invalid(self, capsys, monkeypatch, source,
                                         value):
        argv = ["spectrum", "k3_loops"]
        if source == "--tol":
            argv.append(f"--tol={value}")
        else:
            monkeypatch.setenv("QWALK_TOL", value)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert source in err

    def test_zero_tol_allowed(self, capsys):
        code, out, _ = run(capsys, "spectrum", "k3_loops", "--tol", "0")
        assert code == 0
        assert "tolerance: 0" in out


class TestVerify:
    def test_bundled_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "k3_loops")
        assert code == 0
        assert "structure identities" in out
        assert "quaternionic" in out
        assert "sylvester" in out
        assert "skipped: graph has loops" in out
        assert out.rstrip().endswith("result: PASS")

    def test_loopless_runs_ihara(self, capsys):
        code, out, _ = run(capsys, "verify", "k4")
        assert code == 0
        assert "ihara" in out
        assert "second-weighted" in out
        assert "skipped" not in out

    def test_random_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "P3", "--seed", "4", "--count", "2")
        assert code == 0
        assert "--- seed 4 ---" in out
        assert "--- seed 5 ---" in out
        assert out.rstrip().endswith("result: PASS")

    @pytest.mark.parametrize("spec", ["P30", "star20+loop"])
    def test_sylvester_holds_on_trees(self, capsys, spec):
        # alpha = 2 sits on (or next to) an eigenvalue of psi(L* K) for
        # tree-shaped graphs; the sample at 2i keeps clear of the real axis.
        code, out, _ = run(
            capsys, "verify", "--random", spec, "--count", "3", "--seed", "300"
        )
        assert code == 0
        assert "sylvester" in out
        assert out.rstrip().endswith("result: PASS")

    def test_random_is_seeded(self, capsys):
        _, first, _ = run(capsys, "verify", "--random", "K3", "--seed", "9")
        _, second, _ = run(capsys, "verify", "--random", "K3", "--seed", "9")
        assert first == second

    def test_instance_and_random_conflict(self, capsys):
        code, _, err = run(capsys, "verify", "k4", "--random", "K4")
        assert code == 2
        assert "either" in err

    def test_neither_instance_nor_random(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "k3_loops", "--output", str(path))
        assert code == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["command"] == "verify"
        assert report["passed"] is True


    @pytest.mark.parametrize("name", bundled_names())
    def test_eigenspaces_rank_identity_bundled(self, capsys, tmp_path, name):
        path = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", name, "--output", str(path))
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("eigenspaces"))
        assert line.endswith(" ok")
        section = json.loads(path.read_text(encoding="utf-8"))["eigenspaces"]
        assert section["passed"] is True
        assert [t["lambda"] for t in section["targets"]] == [1.0, -1.0]
        for target in section["targets"]:
            assert target["ok"]
            assert (
                target["birth"] + target["inherited"] == target["multiplicity"]
            )

    @pytest.mark.parametrize(
        "spec", ["C40", "K8", "K6+loops", "P30", "star20+loop"]
    )
    def test_eigenspaces_rank_identity_families(self, capsys, tmp_path, spec):
        path = tmp_path / "verify.json"
        run(capsys, "verify", "--random", spec, "--count", "2", "--seed", "7",
            "--output", str(path))
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        assert len(runs) == 2
        for item in runs:
            assert item["eigenspaces"]["passed"] is True, item["seed"]

    def test_eigenspaces_check_fires(self, capsys, tmp_path, monkeypatch):
        from qszegedy import szegedy

        h_rank = szegedy.h_rank
        # One more rank for P is one vector fewer in its kernel.
        monkeypatch.setattr(szegedy, "h_rank", lambda p: h_rank(p) + 1)
        path = tmp_path / "verify.json"
        # k3_loops has a 3-dimensional birth kernel at -1.
        code, out, _ = run(capsys, "verify", "k3_loops", "--output", str(path))
        assert code == 1
        assert "-1: 2 + 0 = 3" in out
        line = next(x for x in out.splitlines() if x.startswith("eigenspaces"))
        assert line.endswith(" FAIL")
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["eigenspaces"]["passed"] is False
        assert report["passed"] is False

    def test_eigenspaces_skipped(self, capsys, tmp_path):
        raw = load_bundled("p3_tree").to_dict()
        raw["weights"]["0->1"] = [0.9, 0.0, 0.0, 0.0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(broken))
        assert code == 1
        assert "eigenspaces skipped: weights violate" in out

        raw = {
            "metadata": {"name": "two-edges", "seed": None},
            "graph": {"n": 4, "edges": [[0, 1], [2, 3]], "loops": []},
            "weights": {
                key: [1.0, 0.0, 0.0, 0.0]
                for key in ("0->1", "1->0", "2->3", "3->2")
            },
        }
        split = tmp_path / "split.json"
        split.write_text(json.dumps(raw), encoding="utf-8")
        path = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", str(split), "--output", str(path))
        assert "eigenspaces skipped: graph is disconnected" in out
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["eigenspaces"] == {"skipped": "graph is disconnected"}


class TestLift:
    def test_single_mu(self, capsys):
        code, out, _ = run(capsys, "lift", "k3_loops", "--mu", "-0.6667")
        assert code == 0
        assert "mu = -0.666666666667" in out
        assert "lambda = -0.333333+0.942809i" in out
        assert "lift (relative residual" in out
        assert "lift-companion" in out
        assert "1->2:" in out

    def test_all_includes_boundary_extraction(self, capsys):
        code, out, _ = run(capsys, "lift", "k3_loops", "--all")
        assert code == 0
        assert "mu = -0.666666666667" in out
        assert "mu = 1.33333333333" in out
        assert "lambda = -1" in out
        assert "independent" in out

    def test_snapped_mu_extracts_its_boundary_value(self, capsys):
        # mu = 2 maps to lambda = 1, where the lift degenerates.
        code, out, _ = run(capsys, "lift", "c5", "--mu", "2")
        assert code == 0
        assert "lambda = 1 eigenvectors (direct extraction, 2 found)" in out
        assert "lambda = -1" not in out
        assert "base eigenvalue mu" not in out

    def test_unmatched_mu_lists_available(self, capsys):
        code, _, err = run(capsys, "lift", "k3_loops", "--mu", "0.9")
        assert code == 2
        assert "no base eigenvalue near" in err
        assert "-0.666666666667" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_mu_is_invalid(self, capsys, value):
        code, out, err = run(capsys, "lift", "k4", f"--mu={value}")
        assert code == 2
        assert out == ""
        assert "--mu" in err

    def test_mu_and_all_conflict(self, capsys):
        code, _, err = run(capsys, "lift", "k3_loops", "--mu", "1.3", "--all")
        assert code == 2

    def test_requires_mu_or_all(self, capsys):
        code, _, err = run(capsys, "lift", "k3_loops")
        assert code == 2

    @pytest.mark.parametrize("name", sorted(bundled_names()))
    def test_all_matches_spectrum_eigenvectors(self, capsys, tmp_path, name):
        lift_path = tmp_path / "lift.json"
        spectrum_path = tmp_path / "spectrum.json"
        code, _, _ = run(capsys, "lift", name, "--all",
                         "--output", str(lift_path))
        assert code == 0
        code, _, _ = run(capsys, "spectrum", name, "--eigenvectors",
                         "--output", str(spectrum_path))
        assert code == 0
        lifted = json.loads(lift_path.read_text())["eigenvectors"]
        listed = json.loads(spectrum_path.read_text())["spectrum"]["eigenvectors"]
        assert len(lifted) == len(listed)
        for a, b in zip(lifted, listed):
            for key in ("lambda", "mu", "origin", "vector"):
                assert a[key] == b[key], key


    def test_loose_tol_keeps_interior_eigenvalues(self, capsys, tmp_path):
        # mu = -1.618 on c5 lies within 0.5 of -2 but is no boundary value,
        # so --tol 0.5 must still lift it: 10 eigenvectors for 10 arcs.
        lift_path = tmp_path / "lift.json"
        spectrum_path = tmp_path / "spectrum.json"
        code, _, _ = run(capsys, "lift", "c5", "--all", "--tol", "0.5",
                         "--output", str(lift_path))
        assert code == 0
        code, _, _ = run(capsys, "spectrum", "c5", "--eigenvectors",
                         "--tol", "0.5", "--output", str(spectrum_path))
        assert code == 0
        lifted = json.loads(lift_path.read_text())["eigenvectors"]
        listed = json.loads(spectrum_path.read_text())["spectrum"]["eigenvectors"]
        assert len(lifted) == 10
        assert len(listed) == 10

    @pytest.mark.parametrize("spec, share", [("K4", 1 / 3), ("C6", 1 / 2)])
    def test_all_near_degenerate_clusters(self, capsys, tmp_path, spec,
                                          share):
        # Vertex 0 at sqrt(share +- 1e-8) splits a base eigenvalue into
        # clusters 1e-8 apart, each lifting only its own vectors.
        payload = instance_to_dict(
            parse_graph_spec(spec), WeightMap.uniform(parse_graph_spec(spec))
        )
        first, second = [
            key for key in payload["weights"] if key.startswith("0->")
        ][:2]
        payload["weights"][first][0] = math.sqrt(share + 1e-8)
        payload["weights"][second][0] = math.sqrt(share - 1e-8)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(payload))
        for argv in (["lift", "--all"], ["spectrum", "--eigenvectors"]):
            out_path = tmp_path / "out.json"
            code, _, err = run(capsys, argv[0], str(path), *argv[1:],
                               "--output", str(out_path))
            assert code == 0, err
            report = json.loads(out_path.read_text())
            listed = report.get("eigenvectors") or report["spectrum"]["eigenvectors"]
            assert len(listed) == 2 * len(payload["graph"]["edges"])


@pytest.mark.parametrize("rows", [3, 4])  # vertexwise and arcwise labels
def test_vector_lines_match_entry_formatting(rows):
    graph = parse_graph_spec("P3")  # n = 3, m' = 4
    a = np.array([-0.0, 1.5e-7 - 0.25j, complex(-0.0, 2.0), -3.0])
    b = np.array([complex(0.0, -0.0), -0.5j, complex(-1.0, 0.0), 2.0 + 1j])
    vec = QMatrix(a[:rows].reshape(-1, 1), b[:rows].reshape(-1, 1))
    lines = _vector_lines(graph, vec, indent="  ")
    expected = [format_quaternion(vec.entry(r, 0)) for r in range(rows)]
    assert [line.split(": ", 1)[1] for line in lines] == expected
    assert expected[:3] == ["0", "1.5e-07-0.25i+0.5k", "2i-1j"]
    assert lines[0].startswith("  v1: " if rows == 3 else "  1->2: ")


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert out.count("  ok  ") == 17
        assert "result: PASS (17/17)" in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "examples")
        _, second, _ = run(capsys, "examples")
        assert first == second

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "examples.json"
        code, _, _ = run(capsys, "examples", "--output", str(path))
        assert code == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert len(report["checks"]) == 17
        assert all(c["ok"] for c in report["checks"])


class TestGenerate:
    def test_bundled_emits_shipped_weights(self, capsys):
        code, out, _ = run(capsys, "generate", "k3_loops")
        assert code == 0
        assert json.loads(out) == load_bundled("k3_loops").to_dict()

    def test_family_requires_determinism(self, capsys):
        code, first, _ = run(capsys, "generate", "K4", "--seed", "3")
        assert code == 0
        _, second, _ = run(capsys, "generate", "K4", "--seed", "3")
        assert first == second
        assert json.loads(first) == random_instance_dict("K4", 3)

    def test_bundled_with_seed_draws_its_family(self, capsys):
        code, out, _ = run(capsys, "generate", "k4", "--seed", "3")
        assert code == 0
        assert json.loads(out) == random_instance_dict("K4", 3)

    def test_generated_file_round_trips(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run(capsys, "generate", "star3+loop", "--seed", "2", "--output", str(path))
        assert code == 0
        code2, out, _ = run(capsys, "spectrum", str(path))
        assert code2 == 0
        assert "result: PASS" in out

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "generate", "Q7")
        assert code == 2
        assert "cannot parse graph spec" in err

    def test_family_without_seed_rejected(self, capsys):
        code, _, err = run(capsys, "generate", "K4")
        assert code == 2
        assert "--seed" in err


class TestArgumentRanges:
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_is_invalid(self, capsys, count):
        code, out, err = run(capsys, "verify", "--random", "K4", "--count", count)
        assert code == 2
        assert out == ""
        assert f"--count must be at least 1, got {count}" in err

    @pytest.mark.parametrize(
        "argv",
        [("generate", "K4", "--seed", "-1"),
         ("verify", "--random", "K4", "--seed", "-1")],
    )
    def test_negative_seed_flag_is_invalid(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_negative_file_seed_is_invalid(self, capsys, tmp_path, command):
        raw = load_bundled("k4").to_dict()
        raw["metadata"]["seed"] = -5
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert "metadata.seed: expected a non-negative integer, got -5" in err

    @pytest.mark.parametrize(
        "argv",
        [("spectrum", "k4"), ("generate", "K4", "--seed", "1"), ("examples",)],
    )
    def test_unwritable_output_is_invalid(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()
