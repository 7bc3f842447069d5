"""Walk instance files: parsing, validation, hashing, bundled examples.

An instance file is JSON with three blocks::

    {
      "metadata": {"name": "k3_loops", "seed": null},
      "graph":    {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]],
                   "loops": [0, 1, 2]},
      "weights":  {"0->1": [0.0, 0.577, 0.0, 0.0], ...}
    }

Vertices are 0-based in files (1-based in human-readable reports).  The
edge list order fixes the canonical arc order, and every arc, including
the reverse of each edge and each loop, needs exactly one weight keyed
``"origin->terminus"`` with four real components.  ``metadata`` is
optional; unknown keys anywhere, and keys a file repeats, are rejected
so typos surface early.  Errors carry the JSON field path of the offender.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import NamedTuple

from .errors import ValidationError
from .graph import Graph, build_graph
from .quaternion import Quaternion
from .szegedy import WeightMap, random_instance

__all__ = [
    "Instance",
    "bundled_names",
    "bundled_spec",
    "instance_from_dict",
    "instance_to_dict",
    "instance_hash",
    "load_bundled",
    "load_instance_file",
    "parse_graph_spec",
    "random_instance_dict",
    "resolve_instance",
]

_BUNDLED_SPECS = {
    "k3_loops": "K3+loops",
    "p3_tree": "P3",
    "star_loop": "star3+loop",
    "k4": "K4",
    "c5": "C5",
}

_ARC_KEY = re.compile(r"^(\d+)->(\d+)$")
_SPEC = re.compile(r"^(k|p|c|star)(\d+)(\+loops|\+loop)?$", re.IGNORECASE)


class Instance(NamedTuple):
    """A parsed instance: graph, weights, and identifying metadata."""

    name: str
    graph: Graph
    weights: WeightMap
    seed: int | None
    sha256: str

    def to_dict(self) -> dict:
        return instance_to_dict(
            self.graph, self.weights, name=self.name, seed=self.seed
        )


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a family spec like ``K4``, ``P3`` or ``C5``.

    Families: ``K<n>`` complete, ``P<n>`` path, ``C<n>`` cycle,
    ``star<k>`` a center joined to k leaves.  Suffix ``+loops`` puts a
    loop on every vertex, ``+loop`` only on vertex 0.
    """
    match = _SPEC.match(spec.strip())
    if not match:
        raise ValidationError(
            f"cannot parse graph spec {spec!r}; expected K<n>, P<n>, C<n>, "
            "or star<k>, optionally followed by +loop or +loops"
        )
    family = match.group(1).lower()
    size = int(match.group(2))
    suffix = (match.group(3) or "").lower()
    if family == "k":
        if size < 2:
            raise ValidationError("complete graph spec needs n >= 2")
        n = size
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "p":
        if size < 2:
            raise ValidationError("path spec needs n >= 2")
        n = size
        edges = [(u, u + 1) for u in range(n - 1)]
    elif family == "c":
        if size < 3:
            raise ValidationError("cycle spec needs n >= 3")
        n = size
        edges = [(u, (u + 1) % n) for u in range(n)]
    else:
        if size < 1:
            raise ValidationError("star spec needs at least one leaf")
        n = size + 1
        edges = [(0, u) for u in range(1, n)]
    if suffix == "+loops":
        loops = list(range(n))
    elif suffix == "+loop":
        loops = [0]
    else:
        loops = []
    return build_graph(n, edges, loops)


class _JSONObject(dict):
    """A parsed JSON object; ``repeated`` is the first key it repeats."""

    def __init__(self, pairs):
        super().__init__()
        self.repeated = None
        for key, value in pairs:
            if key in self and self.repeated is None:
                self.repeated = key
            self[key] = value


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object")
    if getattr(value, "repeated", None) is not None:
        raise ValidationError(f"{path}: duplicate key {value.repeated!r}")
    return value


def _expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def instance_from_dict(raw: dict, source: str = "<instance>") -> Instance:
    """Validate a raw instance dictionary into graph plus weights."""
    raw = _expect_mapping(raw, source)
    unknown = set(raw) - {"graph", "weights", "metadata"}
    if unknown:
        raise ValidationError(
            f"{source}: unknown top-level keys {sorted(unknown)}"
        )
    for required in ("graph", "weights"):
        if required not in raw:
            raise ValidationError(f"{source}: missing block {required!r}")

    gblock = _expect_mapping(raw["graph"], "graph")
    unknown = set(gblock) - {"n", "edges", "loops"}
    if unknown:
        raise ValidationError(f"graph: unknown keys {sorted(unknown)}")
    if "n" not in gblock or "edges" not in gblock:
        raise ValidationError("graph: needs keys 'n' and 'edges'")
    n = _expect_int(gblock["n"], "graph.n")
    edges_raw = gblock["edges"]
    if not isinstance(edges_raw, list):
        raise ValidationError("graph.edges: expected a list of pairs")
    edges = []
    for idx, pair in enumerate(edges_raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError(
                f"graph.edges[{idx}]: expected a two-element list"
            )
        edges.append(
            (
                _expect_int(pair[0], f"graph.edges[{idx}][0]"),
                _expect_int(pair[1], f"graph.edges[{idx}][1]"),
            )
        )
    loops_raw = gblock.get("loops", [])
    if not isinstance(loops_raw, list):
        raise ValidationError("graph.loops: expected a list of vertices")
    loops = [
        _expect_int(v, f"graph.loops[{idx}]") for idx, v in enumerate(loops_raw)
    ]
    graph = build_graph(n, edges, loops)

    wblock = _expect_mapping(raw["weights"], "weights")
    values: dict[tuple[int, int], Quaternion] = {}
    for key, comps in wblock.items():
        path = f"weights[{key!r}]"
        match = _ARC_KEY.match(key) if isinstance(key, str) else None
        if not match:
            raise ValidationError(
                f"{path}: keys must look like 'origin->terminus'"
            )
        u, v = int(match.group(1)), int(match.group(2))
        if not graph.has_arc(u, v):
            raise ValidationError(f"{path}: ({u},{v}) is not an arc")
        if not isinstance(comps, list) or len(comps) != 4:
            raise ValidationError(
                f"{path}: expected four real components"
            )
        for cidx, c in enumerate(comps):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise ValidationError(
                    f"{path}[{cidx}]: expected a number, got {c!r}"
                )
            if not math.isfinite(c):
                raise ValidationError(
                    f"{path}[{cidx}]: expected a finite number, got {c!r}"
                )
        values[(u, v)] = Quaternion(*(float(c) for c in comps))
    weights = WeightMap(values)
    weights.aligned(graph)  # totality check with arc-level messages

    name = "instance"
    seed = None
    if "metadata" in raw:
        mblock = _expect_mapping(raw["metadata"], "metadata")
        unknown = set(mblock) - {"name", "seed"}
        if unknown:
            raise ValidationError(f"metadata: unknown keys {sorted(unknown)}")
        if "name" in mblock:
            if not isinstance(mblock["name"], str):
                raise ValidationError("metadata.name: expected a string")
            name = mblock["name"]
        if "seed" in mblock and mblock["seed"] is not None:
            seed = _expect_int(mblock["seed"], "metadata.seed")
            if seed < 0:
                raise ValidationError(
                    f"metadata.seed: expected a non-negative integer, got {seed}"
                )

    return Instance(
        name=name,
        graph=graph,
        weights=weights,
        seed=seed,
        sha256=instance_hash(graph, weights),
    )


def instance_to_dict(
    graph: Graph, weights: WeightMap, name: str = "instance", seed=None
) -> dict:
    aligned = weights.aligned(graph)
    return {
        "metadata": {"name": name, "seed": seed},
        "graph": graph.to_dict(),
        "weights": {
            f"{arc.origin}->{arc.terminus}": list(aligned[arc.index].components)
            for arc in graph.arcs
        },
    }


def instance_hash(graph: Graph, weights: WeightMap) -> str:
    """SHA-256 of the canonical JSON of graph and weights.

    Metadata is excluded so renaming an instance keeps its identity.
    The digest comes from CPython's builtin SHA-256, which needs no
    OpenSSL; ``hashlib``, which loads it, serves only an interpreter
    built without that module.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    payload = instance_to_dict(graph, weights)
    del payload["metadata"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def load_instance_file(path) -> Instance:
    """Parse and validate a JSON instance file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_JSONObject)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    return instance_from_dict(raw, source=str(path))


def bundled_names() -> tuple[str, ...]:
    return tuple(sorted(_BUNDLED_SPECS))


def bundled_spec(name: str) -> str:
    """The graph family spec of a bundled instance (``k4`` -> ``K4``)."""
    if name not in _BUNDLED_SPECS:
        raise ValidationError(
            f"unknown bundled instance {name!r}; available: "
            f"{', '.join(bundled_names())}"
        )
    return _BUNDLED_SPECS[name]


def load_bundled(name: str) -> Instance:
    """Load one of the instances shipped with the package."""
    from importlib import resources  # not needed by file instances

    bundled_spec(name)  # rejects unknown names
    ref = resources.files("qszegedy").joinpath(f"instances/{name}.json")
    text = ref.read_text(encoding="utf-8")
    raw = json.loads(text, object_pairs_hook=_JSONObject)
    return instance_from_dict(raw, source=f"bundled:{name}")


def resolve_instance(arg: str) -> Instance:
    """Interpret a CLI argument as a file path or a bundled name."""
    import os

    if os.path.exists(arg):
        return load_instance_file(arg)
    if arg in _BUNDLED_SPECS:
        return load_bundled(arg)
    raise ValidationError(
        f"{arg!r} is neither an existing file nor a bundled instance "
        f"(available: {', '.join(bundled_names())})"
    )


def random_instance_dict(spec: str, seed: int, name: str | None = None) -> dict:
    """Random unitary instance for a graph family spec, as a raw dict."""
    graph = parse_graph_spec(spec)
    weights = random_instance(graph, seed)
    return instance_to_dict(
        graph, weights, name=name or f"{spec.lower()}-seed{seed}", seed=seed
    )
