"""Instance files: parsing, validation paths, hashing, bundled data."""

import hashlib
import json
import sys
from importlib import resources

import numpy as np
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
from qszegedy.szegedy import arc_weights, build_walk, check_unitary_condition


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
    assert again.graph.origin.tolist() == inst.graph.origin.tolist()
    assert again.graph.terminus.tolist() == inst.graph.terminus.tolist()


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
        assert g.m0 == g.n - 1 and g.is_connected()

    def test_cycle(self):
        g = parse_graph_spec("C5")
        assert (g.n, g.m0, g.m1) == (5, 5, 0)

    def test_cycle_core_is_not_a_tree(self):
        g = parse_graph_spec("C5")
        assert not (g.m0 == g.n - 1 and g.is_connected())

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


#: sha256 of ``generate SPEC --seed SEED`` stdout, frozen so that a change
#: to the draw order of ``random_instance`` cannot pass unnoticed.
GENERATED_SHA = {
    ("K4", 0): "0dea04327ed970f648d6b54872a390eb82689ea95372d3f2fed01c93441ac58e",
    ("K4", 1): "fa62fdbcb7636b0d60de210f1913fd2c0328de608e322015d9adea5b28be5574",
    ("K4", 7): "8b79aa9bec058f7caef31bde3f1566c4db1d46a1ff4ee2b3250c06a188b73c9f",
    ("C5", 0): "ef0ae687b456ef62e7967013d90d96729358c8e7d46d271bc5b699cacbbf1caa",
    ("C5", 1): "d0c0265c9a10b5f6e40919c03bfd4a86830203050681c2fc95c13e8fa9f3fb0d",
    ("C5", 7): "09165fcef4879a45de9dc231997cb3c7a3c8d74730688af48e207144efc20e2f",
    ("P3", 0): "b130a7c04992676e12089bd0ae0850d19eb4945b7016be1771bc4e348362fa25",
    ("P3", 1): "3c0c0f6b8d251232b3b3b9e2c823cc47eaaa6428d5841ae22a2e03083dfa088c",
    ("P3", 7): "93f2b7df8672f015eef7f08e85dcced504d80213af456377f453177bb269a242",
    ("K3+loops", 0):
        "cf9df578611249f015efebcc8a6bdd5c384c69aababea6bd2abfeedd25e9fef8",
    ("K3+loops", 1):
        "91d7f4bebf371cae77586e48e4e15c59a97d2778164c03e569dcb53f7b982ae6",
    ("K3+loops", 7):
        "594b6ac73e3a598b1232031c99232c197614da527a90c11b17232eae7d6dcd00",
    ("star3+loop", 0):
        "4c79ea3b97de96b3e411846d71187ee171bdbff2cc82c0e7354a6999515dac10",
    ("star3+loop", 1):
        "c2f14447cd38d95c42c381c5a5d655d99ffa4a8cc03bc125e79a39d6f8499fa4",
    ("star3+loop", 7):
        "23d01450fb07ef115b74c18265bf32e78c2910afd34807e826c6e2875945db0c",
    ("K12", 0): "8b4a33daf82c4e4b0c47ade0c0ec4e4a7cd74c07ba095b1d3a6cf4565ba47ce0",
    ("K12", 1): "d65f21345d88e06fbcbc36860ceba7422c0ee8675c208e0bca8fd7d772e6912e",
    ("K12", 7): "bbe9109d17cecc0acf46ebba5f48f3334b5b9936228eb1d6e06217893111f528",
}


@pytest.mark.parametrize("spec, seed", sorted(GENERATED_SHA))
def test_generated_weights_are_frozen(capsys, spec, seed):
    assert main(["generate", spec, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GENERATED_SHA[spec, seed]


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


@pytest.mark.parametrize("text, message", [
    # One integer component of 5,000 digits, past Python's parse limit.
    ('{"weights": {"0->1": [1' + "0" * 4999 + ', 0, 0, 0]}}',
     r"^.*big\.json: invalid JSON: Exceeds the limit"),
    (b"\xff{}", r"^.*big\.json: invalid JSON: 'utf-8' codec can't decode"),
], ids=["huge-int-literal", "not-utf8"])
def test_unparsable_file_is_invalid_json(capsys, tmp_path, text, message):
    path = tmp_path / "big.json"
    if isinstance(text, str):
        path.write_text(text, encoding="utf-8")
    else:
        path.write_bytes(text)
    with pytest.raises(ValidationError, match=message):
        load_instance_file(path)
    assert main(["spectrum", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_oversized_integer_names_the_limit_in_file_terms(
    capsys, monkeypatch, tmp_path
):
    # Python's own message ends "use sys.set_int_max_str_digits() to
    # increase the limit", advice that no instance file can follow.
    text = '{"weights": {"0->1": [1' + "0" * 4999 + ', 0, 0, 0]}}'
    message = (
        "invalid JSON: Exceeds the limit of 4300 digits for an integer "
        "literal: one has 5000 digits"
    )
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert main(["spectrum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n"
    # Bundled files take the same parser.
    (tmp_path / "instances").mkdir()
    (tmp_path / "instances" / "k4.json").write_text(text, encoding="utf-8")
    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    with pytest.raises(ValidationError) as raised:
        load_bundled("k4")
    assert str(raised.value) == f"bundled:k4: {message}"


@pytest.mark.parametrize("key", ["00->1", "\u0660->1"])
def test_each_arc_takes_one_weight_key(capsys, tmp_path, key):
    # A second spelling of arc 0->1 (leading zero, or a Unicode digit)
    # must not replace the weight given under '0->1'.
    raw = load_bundled("k4").to_dict()
    q = raw["weights"]["0->1"]
    raw["weights"][key] = [q[1], q[0], q[2], q[3]]  # also of unit norm
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    assert main(["spectrum", str(path)]) == 2
    err = capsys.readouterr().err
    if key == "00->1":
        assert "'00->1']: arc (0,1) already has a weight under '0->1'" in err
    else:
        assert "keys must look like 'origin->terminus'" in err


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
    with pytest.raises(ValidationError, match=r"expected 4 entries"):
        instance_to_dict(inst.graph, inst.weights[1:])
    rows = dict(zip(zip(inst.graph.origin.tolist(),
                        inst.graph.terminus.tolist()), inst.weights))
    del rows[(0, 1)]
    with pytest.raises(ValidationError,
                       match=r"missing weights for arcs \[\(0, 1\)\]"):
        arc_weights(inst.graph, rows)
    rows[(0, 1)] = rows[(2, 0)] = inst.weights[0]
    with pytest.raises(ValidationError,
                       match=r"weights given for non-arcs \[\(2, 0\)\]"):
        arc_weights(inst.graph, rows)
    rows.pop((2, 0))
    assert np.array_equal(arc_weights(inst.graph, rows), inst.weights)


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
        # An Arabic-Indic zero is a Unicode digit, not one of [0-9].
        lambda r: r["weights"].update({"\u0660->1": r["weights"].pop("0->1")}),
    ],
    ids=["negative-seed", "three-components", "unknown-key", "arc-key",
         "unicode-digit"],
)
def test_schema_and_loader_reject_alike(schema_validator, mutate):
    raw = _valid_raw()
    mutate(raw)
    assert not schema_validator.is_valid(raw)
    with pytest.raises(ValidationError):
        instance_from_dict(raw)
