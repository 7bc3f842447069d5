"""Workload definitions and seeded instance generation.

Every instance file is generated here from the workload seed with this
package's own numpy Generator, so the inputs do not change when the
program's ``random_instance`` changes.  Graph families follow the CLI's
documented spec grammar: ``K<n>`` complete, ``P<n>`` path, ``C<n>``
cycle, ``star<k>`` a centre joined to k leaves; ``+loops`` puts a loop on
every vertex and ``+loop`` only on vertex 0.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SPEC = re.compile(r"^(K|P|C|star)(\d+)(\+loops|\+loop)?$")

#: Families of the instances bundled with the package, by bundled name.
BUNDLED = {
    "k3_loops": "K3+loops",
    "p3_tree": "P3",
    "star_loop": "star3+loop",
    "k4": "K4",
    "c5": "C5",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``instance`` names the instance whose reference the report is checked
    against: a generated spec, a bundled name, or None.  ``{file}`` and
    ``{seed}`` in ``argv`` are filled in when the workload is set up.
    """

    label: str
    kind: str  # spectrum | lift | verify | verify-random | examples
    argv: tuple[str, ...]
    instance: str | None = None
    oracle: bool = False
    eigenvectors: bool = False
    count: int = 1


def _spectrum(spec, *flags, bundled=False):
    target = spec if bundled else "{file}"
    label = " ".join(("spectrum", spec) + flags)
    return Job(label, "spectrum", ("spectrum", target) + flags, spec,
               oracle="--oracle" in flags,
               eigenvectors="--eigenvectors" in flags)


def _lift(spec, bundled=False):
    target = spec if bundled else "{file}"
    return Job(f"lift {spec} --all", "lift", ("lift", target, "--all"), spec)


def _verify(spec):
    return Job(f"verify {spec}", "verify", ("verify", "{file}"), spec)


def _verify_random(family):
    argv = ("verify", "--random", family, "--count", "3", "--seed", "{seed}")
    return Job(f"verify --random {family} --count 3", "verify-random", argv,
               count=3)


_DENSE_ORACLE = ("K8+loops", "K10", "K10+loops", "K12")

#: Jobs of one cycle of each workload, in the order they run.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "theorem-path": tuple(
        _spectrum(spec)
        for spec in ("C120", "P100", "star60+loop", "K20", "K24+loops")
    ),
    "oracle-dense": tuple(
        [_spectrum(spec, "--oracle") for spec in _DENSE_ORACLE]
        + [_spectrum(spec, "--oracle", "--eigenvectors")
           for spec in _DENSE_ORACLE]
        + [_lift(spec) for spec in _DENSE_ORACLE]
    ),
    "verify-mix": tuple(
        [_verify(spec)
         for spec in ("C40", "K8", "K6+loops", "P30", "star20+loop")]
        + [_verify_random(family) for family in BUNDLED.values()]
        + [Job("examples", "examples", ("examples",))]
        + [_spectrum(name, "--oracle", bundled=True) for name in BUNDLED]
        + [_lift(name, bundled=True) for name in BUNDLED]
    ),
}

#: Whole cycles per run at ``--seconds 25``, scaled linearly with
#: ``--seconds``.  A fixed count makes every run of a workload measure the
#: same jobs, so the tail percentile is the same on both sides of a
#: comparison.  With the code this benchmark was defined on, on a 2-vCPU
#: x86-64 virtual machine at the speed where the reference job takes
#: 0.2 s, a cycle with its reference jobs takes about 3.8 s, 7.4 s and
#: 4.0 s respectively, so a run measures 16 s to 22 s.
CYCLES_AT_25_S = {"theorem-path": 5, "oracle-dense": 3, "verify-mix": 4}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(CYCLES_AT_25_S[workload] * seconds / 25.0))


#: Jobs that fail with the code this benchmark was defined on, and why.  They stay in
#: the workload and count as failed; see BENCHMARK.json.
KNOWN_DEFECTS = {
    "verify P30": "sylvester check at alpha = 2, an exact eigenvalue of L*K "
                  "on tree-shaped graphs",
    "verify star20+loop": "sylvester check at alpha = 2, an exact eigenvalue "
                          "of L*K on tree-shaped graphs",
    "verify C40": "sylvester check's relative error lands just above 1e-10 "
                  "on some seeds (1.43e-10 on seed 303)",
}


@dataclass(frozen=True)
class GraphSpec:
    n: int
    edges: tuple[tuple[int, int], ...]
    loops: tuple[int, ...]

    @property
    def arcs(self) -> list[tuple[int, int]]:
        """Arcs in the canonical order of the instance format."""
        out = []
        for u, v in self.edges:
            out.extend([(u, v), (v, u)])
        out.extend((u, u) for u in self.loops)
        return out


def parse_spec(spec: str) -> GraphSpec:
    match = _SPEC.match(spec)
    if not match:
        raise ValueError(f"bad graph spec {spec!r}")
    family, size, suffix = match.group(1), int(match.group(2)), match.group(3)
    if family == "K":
        n = size
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "P":
        n = size
        edges = [(u, u + 1) for u in range(n - 1)]
    elif family == "C":
        n = size
        edges = [(u, (u + 1) % n) for u in range(n)]
    else:
        n = size + 1
        edges = [(0, u) for u in range(1, n)]
    loops = list(range(n)) if suffix == "+loops" else [0] if suffix else []
    return GraphSpec(n, tuple(edges), tuple(loops))


def random_weights(graph: GraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Quaternion weights, one row of four components per arc.

    Each arc gets four standard normal components; the arcs leaving a
    vertex are then scaled together so their squared norms sum to one,
    which is the walk's unitarity condition.
    """
    arcs = graph.arcs
    comps = rng.standard_normal((len(arcs), 4))
    origin = np.array([u for u, _ in arcs])
    totals = np.bincount(origin, weights=np.einsum("ij,ij->i", comps, comps),
                         minlength=graph.n)
    return comps / np.sqrt(totals[origin])[:, None]


def instance_dict(name: str, graph: GraphSpec, weights: np.ndarray,
                  seed: int) -> dict:
    return {
        "metadata": {"name": name, "seed": seed},
        "graph": {
            "n": graph.n,
            "edges": [list(e) for e in graph.edges],
            "loops": list(graph.loops),
        },
        "weights": {
            f"{u}->{v}": [float(x) for x in row]
            for (u, v), row in zip(graph.arcs, weights)
        },
    }


def load_validator(root: Path):
    """A callable validating instance dicts against the package schema,
    or None when the ``jsonschema`` module is not installed."""
    try:
        import jsonschema
    except ImportError:
        return None
    schema_path = root / "src" / "qszegedy" / "schema" / "instance.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema).validate


def generated_specs(workload: str) -> list[str]:
    """Graph specs whose instance files the workload generates."""
    seen = []
    for job in WORKLOADS[workload]:
        if "{file}" in job.argv and job.instance not in seen:
            seen.append(job.instance)
    return seen

