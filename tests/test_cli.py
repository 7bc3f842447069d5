"""Command line interface: exit codes, output text, JSON reports."""

import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qszegedy import (
    __version__, cli, commands, examples, qmatrix, quaternion, szegedy, zeta,
)
from qszegedy.cli import main
from qszegedy.commands import _row_labels, _vector_texts
from qszegedy.errors import ValidationError
from qszegedy.graph import build_graph
from qszegedy.instances import (
    bundled_names,
    instance_to_dict,
    load_bundled,
    load_instance_file,
    parse_graph_spec,
    random_instance_dict,
)
from qszegedy.qmatrix import QMatrix
from qszegedy.quaternion import format_quaternion
from qszegedy.szegedy import (
    LiftedVector,
    SpectrumReport,
    full_spectrum,
    random_instance,
    uniform_weights,
    vector_components,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_imports_no_private_names():
    # The CLI only formats: everything it takes from the library is public.
    trees = [ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
             for module in (cli, commands)]
    private = [
        alias.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("qszegedy"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_commands_define_no_computation_of_their_own():
    # The library computes: commands.py takes nothing from qmatrix, only
    # the entry formatter from quaternion, and defines no tolerance
    # besides DEFAULT_TOL (each library decision has its constant).
    tree = ast.parse(Path(commands.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
    assert "qmatrix" not in imported
    assert imported["quaternion"] == {"format_components"}
    floats = [
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
    ]
    assert floats == ["DEFAULT_TOL"]


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
    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), pytest.param(10**400, id="huge-int"),
    ])
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--tol"])
    def test_tol_out_of_range_is_invalid(self, capsys, source, value):
        code, out, err = run(capsys, "spectrum", "k3_loops",
                             f"{source}={value}")
        assert code == 2
        assert out == ""
        assert source in err

    def test_tol_is_the_only_tolerance_setting(self, capsys, monkeypatch,
                                               tmp_path):
        # The environment sets no tolerance: the same report whatever
        # QWALK_TOL holds, a number or not.
        path = tmp_path / "k4.json"
        runs = []
        for value in (None, "1e-6", "banana"):
            if value is None:
                monkeypatch.delenv("QWALK_TOL", raising=False)
            else:
                monkeypatch.setenv("QWALK_TOL", value)
            code, out, err = run(capsys, "spectrum", "k4", "--oracle",
                                 "--output", str(path))
            runs.append((code, out, err, path.read_bytes()))
        assert runs[0][0] == 0
        assert runs[0][2] == ""
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        # Nor does a library parameter: each decision has one constant.
        removed = [
            (qmatrix.right_eigenvalues, "tol"),
            (qmatrix.right_eigenbasis, "rank_tol"),
            (qmatrix.h_rank, "rank_tol"),
            (qmatrix.h_linear_independent, "rank_tol"),
            (qmatrix.minimal_polynomial, "cluster_tol"),
            (qmatrix.minimal_polynomial, "rank_tol"),
            (qmatrix.root_subspaces, "cluster_tol"),
            (qmatrix.root_subspaces, "rank_tol"),
            (qmatrix.is_unitary, "tol"),
            (zeta.sylvester_det_property, "tol"),
            (quaternion.format_quaternion, "digits"),
            (quaternion.format_components, "digits"),
            (quaternion.Quaternion.is_zero, "tol"),
            (quaternion.same_class, "tol"),
            (quaternion.ConjugacyClass.matches, "tol"),
            (szegedy.check_unitary_condition, "tol"),
            (zeta.ihara_identity, "polynomial"),
            (zeta.second_weighted_identity, "polynomial"),
            (zeta.quaternionic_identity, "polynomial"),
            (zeta._bass_identity, "polynomial"),
        ]
        for func, name in removed:
            assert name not in inspect.signature(func).parameters, name

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

    @pytest.mark.parametrize("flag", ["--seed", "--count"])
    def test_random_flags_rejected_with_an_instance(self, capsys, flag):
        # An INSTANCE carries its own weights and seed.
        code, out, err = run(capsys, "verify", "k4", flag, "2")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} goes with --random only\n"

    def test_deviation_the_condition_accepts_passes(self, capsys, tmp_path):
        # Arc 0->1 scaled by sqrt(1 + 3e-12): vertex 1 deviates by 1e-12,
        # well inside the unitarity tolerance, and nothing else reads it.
        raw = load_bundled("k4").to_dict()
        scale = math.sqrt(1 + 3e-12)
        raw["weights"]["0->1"] = [scale * x for x in raw["weights"]["0->1"]]
        tight = tmp_path / "k4_tight.json"
        tight.write_text(json.dumps(raw), encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(tight))
        assert code == 0
        assert "vertex 1: sum 1 (deviation 1e-12) ok" in out
        checks = [line for line in out.splitlines()
                  if line.startswith("  ") or line.startswith("eigenspaces")]
        assert checks and all(line.endswith(" ok") for line in checks)
        assert out.rstrip().endswith("result: PASS")

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

    @pytest.mark.parametrize("name", ["k4", "k3_loops", "non-unitary"])
    def test_report_is_the_library_record(self, capsys, tmp_path, name):
        # cmd_verify only formats zeta.verify_walk's record.
        from qszegedy.zeta import verify_walk

        if name == "non-unitary":
            raw = load_bundled("p3_tree").to_dict()
            raw["weights"]["0->1"] = [0.9, 0.0, 0.0, 0.0]
            name = str(tmp_path / "broken.json")
            Path(name).write_text(json.dumps(raw), encoding="utf-8")
        path = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", name, "--output", str(path))
        report = json.loads(path.read_text(encoding="utf-8"))
        inst = load_instance_file(name) if "/" in name else load_bundled(name)
        result = verify_walk(inst.graph, inst.weights, tol=1e-8, samples=8,
                             seed=report["seeds"][0])
        section = result.to_dict()
        assert list(section) == [
            "unitarity", "structure", "identities", "sylvester", "eigenspaces",
        ]
        assert {key: report[key] for key in section} == section
        assert code == (0 if result.passed else 1)

    def test_random_runs_are_the_library_records(self, capsys, tmp_path):
        from qszegedy.zeta import verify_walk

        path = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "--random", "K4", "--count", "2",
                         "--seed", "5", "--output", str(path))
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
        graph = parse_graph_spec("K4")
        assert [item.pop("seed") for item in runs] == [5, 6]
        results = [
            verify_walk(graph, random_instance(graph, seed), tol=1e-8,
                        samples=8, seed=seed)
            for seed in (5, 6)
        ]
        assert runs == [result.to_dict() for result in results]
        assert code == (0 if all(r.passed for r in results) else 1)

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
        # A disconnected graph is a direct sum: nothing is skipped.
        assert code == 0
        assert "skipped" not in out
        assert "eigenspaces (birth + inherited = multiplicity): " in out
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["eigenspaces"]["passed"] is True


class TestDisconnected:
    """Two disjoint triangles: a direct sum that every command accepts."""

    @pytest.fixture
    def triangles(self, tmp_path):
        graph = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        raw = instance_to_dict(graph, random_instance(graph, 3))
        path = tmp_path / "triangles.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    def test_spectrum_oracle_and_eigenvectors(self, capsys, tmp_path,
                                              triangles):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "spectrum", triangles, "--oracle",
                           "--eigenvectors", "--output", str(path))
        assert code == 0
        assert "diff empty" in out
        assert "eigenvectors (12):" in out
        spectrum = json.loads(path.read_text(encoding="utf-8"))["spectrum"]
        assert spectrum["oracle"]["matched"] is True
        assert len(spectrum["eigenvectors"]) == 12

    def test_verify_runs_every_check(self, capsys, triangles):
        code, out, _ = run(capsys, "verify", triangles)
        assert code == 0
        assert "skipped" not in out
        rows = {line.split()[0]: line for line in out.splitlines() if line}
        for name in ("ihara", "second-weighted", "eigenspaces"):
            assert rows[name].endswith(" ok"), name


@pytest.mark.parametrize(
    "command, flags", [("spectrum", ()), ("lift", ("--all",))]
)
def test_duplicate_weight_key_is_invalid(capsys, tmp_path, command, flags):
    text = json.dumps(load_bundled("k4").to_dict())
    path = tmp_path / "doubled.json"
    path.write_text(
        text.replace('"0->1": ', '"0->1": [0.5, 0.5, 0.5, 0.5], "0->1": '),
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, str(path), *flags)
    assert (code, out) == (2, "")
    assert err == "error: weights: duplicate key '0->1'\n"


@pytest.mark.parametrize(
    "command, flags", [("verify", ()), ("spectrum", ("--force",))]
)
def test_overflowing_weights_are_invalid(capsys, tmp_path, command, flags):
    # Finite components whose squared norms overflow: once NaN
    # determinants read as "max rel error 0 ok"; now a precise input error.
    raw = load_bundled("k4").to_dict()
    for key, comps in raw["weights"].items():
        raw["weights"][key] = [c * 1e160 for c in comps]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, command, str(path), *flags)
    assert (code, out) == (2, "")
    assert err == (
        "error: weight on arc (0,1) has a squared norm that overflows\n"
    )


@pytest.mark.parametrize("scale", [10.0, 100.0, 1e8])
@pytest.mark.parametrize(
    "command, flags", [("verify", ()), ("spectrum", ("--force",))],
    ids=["verify", "spectrum-force"],
)
def test_weights_far_from_unit_scale_get_a_report(capsys, tmp_path, command,
                                                  flags, scale):
    # One arc of norm s: the rounding of U's entries grows with s, and the
    # cross-check of its constructions scales its bound with them, so
    # the job reports the unitarity failure instead of stopping on it.
    raw = load_bundled("k3_loops").to_dict()
    raw["weights"]["0->1"] = [scale, 0.3, 0.2, 0.1]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, command, str(path), *flags)
    assert (code, err) == (1, "")
    assert "unitarity condition (tol 1e-10): FAIL" in out
    assert out.endswith("result: FAIL\n")


@pytest.mark.parametrize("n", [1, 3])
def test_arcless_instances_get_the_unitarity_report(capsys, tmp_path, n):
    # No arcs: no vertex can meet the condition, and the weights are the
    # empty (0, 4) array.  Once every command stopped on "expected 0
    # entries of four real components; got shape (0,)".
    path = tmp_path / "arcless.json"
    path.write_text(json.dumps({"graph": {"n": n, "edges": []},
                                "weights": {}}), encoding="utf-8")
    offending = ", ".join(str(v + 1) for v in range(n))
    for flags in (("spectrum",), ("spectrum", "--force"), ("verify",)):
        report = tmp_path / "report.json"
        code, out, err = run(capsys, flags[0], str(path), *flags[1:],
                             "--output", str(report))
        assert (code, err) == (1, ""), flags
        assert "unitarity condition (tol 1e-10): FAIL" in out
        assert f"  offending vertices: {offending}\n" in out
        assert json.loads(report.read_text(encoding="utf-8"))[
            "unitarity"]["passed"] is False
    code, out, err = run(capsys, "lift", str(path), "--all")
    assert (code, out) == (2, "")
    assert err == ("error: weights violate the unitarity condition at "
                   f"vertices {list(range(1, n + 1))}\n")


@pytest.mark.parametrize(
    "edit, vertices",
    [
        (lambda raw: raw["weights"].update({"1->0": [0.9, 0, 0, 0]}), "[2]"),
        # A vertex without arcs can never meet the condition.
        (lambda raw: raw["graph"].update(n=5), "[5]"),
    ],
)
def test_library_and_lift_share_unitarity_message(
    capsys, tmp_path, edit, vertices
):
    raw = load_bundled("k4").to_dict()
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "lift", str(path), "--all")
    instance = load_instance_file(path)
    with pytest.raises(ValidationError) as info:
        full_spectrum(instance.graph, instance.weights)
    assert code == 2
    assert err == f"error: {info.value}\n"
    assert f"unitarity condition at vertices {vertices}" in err


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
            parse_graph_spec(spec), uniform_weights(parse_graph_spec(spec))
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
    vertices, arcs = _row_labels(graph)
    lines = _vector_lines(arcs if rows == 4 else vertices, vec)
    expected = [format_quaternion(vec.entry(r, 0)) for r in range(rows)]
    assert [line.split(": ", 1)[1] for line in lines] == expected
    assert expected[:3] == ["0", "1.5e-07-0.25i+0.5k", "2i-1j"]
    assert lines[0].startswith("    v1: " if rows == 3 else "    1->2: ")


def _vector_lines(labels, vec: QMatrix) -> list[str]:
    """The lines ``_vector_texts`` prints for the single vector ``vec``."""
    text, = _vector_texts(labels, vector_components([vec]))
    return text.split("\n")


class TestRowLabels:
    """Walk vectors print arc labels even where n = m' (the graphs whose
    components are all P2 or a single looped vertex)."""

    @pytest.fixture(params=["P2", "looped vertex"])
    def instance(self, request, tmp_path):
        path = tmp_path / "instance.json"
        if request.param == "P2":
            assert main(["generate", "P2", "--seed", "1",
                         "--output", str(path)]) == 0
            return str(path), ["1->2", "2->1"]
        graph = build_graph(1, [], [0])
        raw = instance_to_dict(graph, random_instance(graph, 1))
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path), ["1->1"]

    @pytest.mark.parametrize("argv", [("spectrum", "--eigenvectors"),
                                      ("lift", "--all")])
    def test_walk_vectors_carry_arc_labels(self, capsys, instance, argv):
        path, arcs = instance
        code, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert code == 0
        labels = [line.split(":")[0].strip() for line in out.splitlines()
                  if line.startswith("    ")]
        assert labels and labels == arcs * (len(labels) // len(arcs))


EXAMPLE_CHECKS = [
    "i*j = k and j*i = -k",
    "x * x^-1 = 1",
    "diag(1,k): classes {class of i, class of 1}",
    "diag(1,k): minimal polynomial (y^2+1)(y-1)",
    "diag(1,k): eigenvector for i proportional to (0, 1-j)",
    "[[0,i],[j,0]]: classes {(+-1+i)/sqrt2}",
    "[[0,i],[j,0]]: minimal polynomial (y^2+sqrt2 y+1)(y^2-sqrt2 y+1)",
    "[[0,i],[j,0]]: eigenvector for (1+i)/sqrt2 matches the known span",
    "k3_loops: doubly weighted matrix has 2/3 diagonal, -2/3 off",
    "k3_loops: transition matrix spot entries",
    "k3_loops: base spectrum {-2/3 x2, 4/3 x4}",
    "k3_loops: classes {-1 x3, (-1+2sqrt2 i)/3 x2, (2+sqrt5 i)/3 x4}",
    "k3_loops: theorem spectrum matches direct diagonalization",
    "k3_loops: minimal polynomial (y+1)(y^2+2/3 y+1)(y^2-4/3 y+1)",
    "k3_loops: root subspace dimensions (3, 2, 4) summing to 9",
    "k3_loops: lift of (1,1,1) at mu=-2/3 is proportional to the known "
    "eigenvector",
    "k3_loops: three independent eigenvectors at lambda=-1",
]


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert out.count("  ok  ") == 17
        assert "result: PASS (17/17)" in out

    def test_checks_in_order(self, capsys):
        # The descriptions are literals: a rename, reorder or drop shows.
        _, out, _ = run(capsys, "examples")
        checks = [line for line in out.splitlines() if line.startswith("  ")]
        assert checks == [f"  ok  {desc}" for desc in EXAMPLE_CHECKS]

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

    def test_failing_check_is_formatted(self, capsys, monkeypatch, tmp_path):
        # The command only formats the library's records: one failing
        # record gives its FAIL line with the detail, the count and exit 1.
        checks = examples.run_examples()
        checks[2] = checks[2]._replace(ok=False, detail="got 0 x9")
        monkeypatch.setattr(examples, "run_examples", lambda: checks)
        path = tmp_path / "examples.json"
        code, out, err = run(capsys, "examples", "--output", str(path))
        assert code == 1
        assert err == ""
        assert f"  FAIL {EXAMPLE_CHECKS[2]}  (got 0 x9)\n" in out
        assert out.count("  ok  ") == 16
        assert out.endswith("result: FAIL (16/17)\n")
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["passed"] is False
        assert report["checks"][2] == {"description": EXAMPLE_CHECKS[2],
                                       "ok": False, "detail": "got 0 x9"}


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

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_is_invalid(self, capsys, samples):
        code, out, err = run(capsys, "verify", "k4", "--samples", samples)
        assert code == 2
        assert out == ""
        assert f"--samples must be at least 1, got {samples}" in err

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
        [("spectrum", "k4"), ("generate", "K4", "--seed", "1"), ("examples",),
         # The vector text streams only after the file has opened.
         ("spectrum", "k4", "--eigenvectors"), ("lift", "k4", "--all")],
    )
    def test_unwritable_output_is_invalid(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "k4", "--oracle", "--eigenvectors"],
    ["lift", "c5", "--all"],
])
def test_json_payload_is_built_only_for_output(capsys, monkeypatch, argv):
    code, expected, err = run(capsys, *argv)
    assert (code, err) == (0, "")

    def refuse(self):
        raise AssertionError("to_dict called without --output")

    monkeypatch.setattr(SpectrumReport, "to_dict", refuse)
    monkeypatch.setattr(LiftedVector, "to_dict", refuse)
    assert run(capsys, *argv) == (0, expected, "")
