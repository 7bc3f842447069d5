"""Instance files: parsing, validation paths, hashing, bundled data."""

import hashlib
import json
import sys
from importlib import resources

import pytest

from qszegedy.cli import main
from qszegedy.errors import ValidationError
from qszegedy.instances import (
    bundled_names,
    instance_from_dict,
    instance_hash,
    instance_to_dict,
    load_bundled,
    load_instance_file,
    parse_graph_spec,
    random_instance_dict,
    resolve_instance,
)
from qszegedy.qmatrix import is_unitary
from qszegedy.szegedy import build_walk, check_unitary_condition


# Frozen so silent changes to canonical serialization are caught.
K3_LOOPS_SHA = "15326ab117a6f88ab45ed903fae6f715b4e3130d705dd709b206dbee28cc9069"


def test_bundled_names_frozen():
    assert bundled_names() == ("c5", "k3_loops", "k4", "p3_tree", "star_loop")


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_instances_load_and_are_unitary(name):
    inst = load_bundled(name)
    assert inst.name == name
    report = check_unitary_condition(inst.graph, inst.weights)
    assert report.passed
    assert is_unitary(build_walk(inst.graph, inst.weights).U)


def test_bundled_unknown_name():
    with pytest.raises(ValidationError, match="unknown bundled"):
        load_bundled("k9")


def test_instance_hash_frozen():
    inst = load_bundled("k3_loops")
    assert inst.sha256 == K3_LOOPS_SHA
    assert instance_hash(inst.graph, inst.weights) == K3_LOOPS_SHA


@pytest.mark.parametrize(
    "argv",
    [["generate", name] for name in bundled_names()]
    + [["generate", spec, "--seed", "1"]
       for spec in ("K4", "C5", "P3", "K3+loops")],
)
def test_instance_hash_is_hashlib_sha256_of_canonical_json(capsys, argv):
    # The builtin SHA-256 that instance_hash uses gives hashlib's digest,
    # and so does hashlib, which serves interpreters without it.
    assert main(argv) == 0
    inst = instance_from_dict(json.loads(capsys.readouterr().out))
    payload = instance_to_dict(inst.graph, inst.weights)
    del payload["metadata"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert instance_hash(inst.graph, inst.weights) == digest == inst.sha256
    with pytest.MonkeyPatch.context() as patch:  # no builtin SHA-256
        patch.setitem(sys.modules, "_sha2", None)
        patch.setitem(sys.modules, "_sha256", None)
        assert instance_hash(inst.graph, inst.weights) == digest


def test_instance_hash_ignores_metadata():
    inst = load_bundled("k3_loops")
    raw = inst.to_dict()
    raw["metadata"]["name"] = "renamed"
    raw["metadata"]["seed"] = 99
    assert instance_from_dict(raw).sha256 == K3_LOOPS_SHA


def test_instance_hash_sees_weight_changes():
    inst = load_bundled("k3_loops")
    raw = inst.to_dict()
    raw["weights"]["0->1"][1] += 1e-9
    assert instance_from_dict(raw).sha256 != K3_LOOPS_SHA


def test_round_trip_dict():
    inst = load_bundled("star_loop")
    raw = inst.to_dict()
    again = instance_from_dict(raw)
    assert again.to_dict() == raw
    assert again.sha256 == inst.sha256
    assert again.graph.n == inst.graph.n
    assert [a.key for a in again.graph.arcs] == [a.key for a in inst.graph.arcs]


def test_to_dict_layout():
    inst = load_bundled("p3_tree")
    raw = inst.to_dict()
    assert sorted(raw) == ["graph", "metadata", "weights"]
    assert raw["metadata"] == {"name": "p3_tree", "seed": None}
    assert raw["graph"]["n"] == 3
    assert raw["graph"]["edges"] == [[0, 1], [1, 2]]
    assert set(raw["weights"]) == {"0->1", "1->0", "1->2", "2->1"}
    assert all(len(v) == 4 for v in raw["weights"].values())


def _valid_raw():
    return load_bundled("p3_tree").to_dict()


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(extra=1), "unknown top-level keys"),
        (lambda r: r.pop("weights"), "missing block 'weights'"),
        (lambda r: r.pop("graph"), "missing block 'graph'"),
        (lambda r: r["graph"].update(color="red"), "graph: unknown keys"),
        (lambda r: r["graph"].pop("n"), "needs keys 'n' and 'edges'"),
        (lambda r: r["graph"].update(n="3"), "graph.n: expected an integer"),
        (lambda r: r["graph"].update(edges="nope"), "graph.edges: expected a list"),
        (
            lambda r: r["graph"]["edges"].__setitem__(0, [0, 1, 2]),
            r"graph.edges\[0\]: expected a two-element list",
        ),
        (
            lambda r: r["graph"]["edges"].__setitem__(1, [1, "2"]),
            r"graph.edges\[1\]\[1\]: expected an integer",
        ),
        (lambda r: r["graph"].update(loops=5), "graph.loops: expected a list"),
        (
            lambda r: r["graph"].update(loops=[True]),
            r"graph.loops\[0\]: expected an integer",
        ),
        (lambda r: r["weights"].update({"0-1": [0, 0, 0, 0]}), "origin->terminus"),
        (lambda r: r["weights"].update({"2->0": [1, 0, 0, 0]}), "not an arc"),
        (
            lambda r: r["weights"].update({"0->1": [1.0, 0.0]}),
            "four real components",
        ),
        (
            lambda r: r["weights"].update({"0->1": [1.0, 0.0, "x", 0.0]}),
            r"weights\['0->1'\]\[2\]: expected a number",
        ),
        (lambda r: r["weights"].pop("1->2"), r"missing weights for arcs \[\(1, 2\)\]"),
        (lambda r: r.update(metadata={"name": "x", "author": "y"}), "metadata: unknown keys"),
        (lambda r: r.update(metadata={"name": 5}), "metadata.name: expected a string"),
        (lambda r: r.update(metadata={"seed": "7"}), "metadata.seed: expected an integer"),
    ],
)
def test_malformed_instances_rejected_with_field_path(mutate, fragment):
    raw = _valid_raw()
    mutate(raw)
    with pytest.raises(ValidationError, match=fragment):
        instance_from_dict(raw)


def test_instance_from_dict_rejects_non_mapping():
    with pytest.raises(ValidationError, match="expected an object"):
        instance_from_dict([1, 2, 3])


def test_metadata_optional_defaults():
    raw = _valid_raw()
    del raw["metadata"]
    inst = instance_from_dict(raw)
    assert inst.name == "instance"
    assert inst.seed is None


class TestParseGraphSpec:
    def test_complete(self):
        g = parse_graph_spec("K4")
        assert g.n == 4
        assert g.m0 == 6
        assert g.m1 == 0

    def test_path(self):
        g = parse_graph_spec("P3")
        assert (g.n, g.m0, g.m1) == (3, 2, 0)
        assert g.is_tree_core()

    def test_cycle(self):
        g = parse_graph_spec("C5")
        assert (g.n, g.m0, g.m1) == (5, 5, 0)

    def test_cycle_core_is_not_a_tree(self):
        assert not parse_graph_spec("C5").is_tree_core()

    def test_star_with_single_loop(self):
        g = parse_graph_spec("star3+loop")
        assert (g.n, g.m0, g.m1) == (4, 3, 1)
        assert g.loops == (0,)

    def test_loops_on_every_vertex(self):
        g = parse_graph_spec("K3+loops")
        assert g.loops == (0, 1, 2)

    def test_case_insensitive_and_whitespace(self):
        g = parse_graph_spec("  c3 ")
        assert (g.n, g.m0) == (3, 3)

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("Q3", "cannot parse graph spec"),
            ("K", "cannot parse graph spec"),
            ("K1", "needs n >= 2"),
            ("P1", "needs n >= 2"),
            ("C2", "needs n >= 3"),
            ("star0", "at least one leaf"),
            ("K3+++loops", "cannot parse graph spec"),
        ],
    )
    def test_rejects(self, spec, fragment):
        with pytest.raises(ValidationError, match=fragment):
            parse_graph_spec(spec)


def test_random_instance_dict_deterministic_and_unitary():
    first = random_instance_dict("K4", 11)
    second = random_instance_dict("K4", 11)
    assert first == second
    assert first["metadata"] == {"name": "k4-seed11", "seed": 11}
    inst = instance_from_dict(first)
    assert check_unitary_condition(inst.graph, inst.weights).passed


def test_random_instance_dict_seed_sensitivity():
    assert random_instance_dict("P3", 1) != random_instance_dict("P3", 2)


def test_random_instance_dict_custom_name():
    raw = random_instance_dict("C5", 3, name="ring")
    assert raw["metadata"]["name"] == "ring"


def test_load_instance_file_round_trip(tmp_path):
    raw = random_instance_dict("star3+loop", 5)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    inst = load_instance_file(path)
    assert inst.name == "star3+loop-seed5"
    assert inst.seed == 5
    assert inst.to_dict() == raw


def test_load_instance_file_bad_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"graph": [,]}', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"broken\.json:1:\d+: invalid JSON"):
        load_instance_file(path)


def test_load_instance_file_missing(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_instance_file(tmp_path / "absent.json")


def test_resolve_instance_prefers_path(tmp_path):
    raw = random_instance_dict("P3", 8, name="from-file")
    path = tmp_path / "k3_loops"  # same text as a bundled name
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert resolve_instance(str(path)).name == "from-file"
    assert resolve_instance("k3_loops").name == "k3_loops"


def test_resolve_instance_unknown():
    with pytest.raises(ValidationError, match="neither an existing file"):
        resolve_instance("no_such_thing")


def test_instance_to_dict_requires_total_weights():
    inst = load_bundled("p3_tree")
    partial = dict(inst.weights.values)
    del partial[(0, 1)]
    from qszegedy.szegedy import WeightMap

    with pytest.raises(ValidationError, match="0"):
        instance_to_dict(inst.graph, WeightMap(partial))


def test_duplicate_keys_rejected_with_field_path(tmp_path):
    # json keeps the last of two equal keys; the loader must not.
    text = json.dumps(load_bundled("k4").to_dict())
    doubled = text.replace('"0->1": ', '"0->1": [0.5, 0.5, 0.5, 0.5], "0->1": ')
    path = tmp_path / "weights.json"
    path.write_text(doubled, encoding="utf-8")
    with pytest.raises(ValidationError, match="^weights: duplicate key '0->1'$"):
        load_instance_file(path)
    # A second graph block would otherwise win and misreport the weights.
    path.write_text(text[:-1] + ', "graph": {"n": 2, "edges": [[0, 1]]}}',
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=": duplicate key 'graph'$"):
        load_instance_file(path)


@pytest.fixture(scope="module")
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    ref = resources.files("qszegedy").joinpath("schema/instance.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_files_match_schema(schema_validator, name):
    ref = resources.files("qszegedy").joinpath(f"instances/{name}.json")
    schema_validator.validate(json.loads(ref.read_text(encoding="utf-8")))


@pytest.mark.parametrize("spec", ["K4", "P3", "C5", "star3+loop", "K3+loops"])
def test_generated_files_match_schema(schema_validator, capsys, spec):
    assert main(["generate", spec, "--seed", "1"]) == 0
    schema_validator.validate(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["metadata"].update(seed=-1),
        lambda r: r["weights"].update({"0->1": [1.0, 0.0, 0.0]}),
        lambda r: r.update(extra=1),
        lambda r: r["weights"].update({"0-1": r["weights"].pop("0->1")}),
    ],
    ids=["negative-seed", "three-components", "unknown-key", "arc-key"],
)
def test_schema_and_loader_reject_alike(schema_validator, mutate):
    raw = _valid_raw()
    mutate(raw)
    assert not schema_validator.is_valid(raw)
    with pytest.raises(ValidationError):
        instance_from_dict(raw)
