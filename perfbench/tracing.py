"""Traced in-process replay of a workload's jobs.

Each job is replayed as ``cli.main(argv)`` followed by the sequence of
public library calls the command makes, one span per call.  Layers that
``full_spectrum`` calls internally (``build_walk``, the ``psi(W)`` and
``psi(U)`` eigensolves, ``match_multisets``, the eigenvector pipeline)
are timed by calling them directly on the same inputs.  Only names in a
module's ``__all__`` are used, plus ``cli.main``.  Spans stay in memory
and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

from reference import TOL
from workloads import BUNDLED, Job

#: Per-layer metrics: name -> unit.  ``_s`` metrics are self time
#: per replay cycle; counts are per cycle and repeat exactly.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "instances.load_instance_file_s": "s",
    "graph.build_graph_s": "s",
    "szegedy.check_unitary_condition_s": "s",
    "szegedy.build_walk_s": "s",
    "szegedy.full_spectrum_s": "s",
    "szegedy.full_spectrum_oracle_s": "s",
    "szegedy.full_spectrum_eigenvectors_s": "s",
    "szegedy.match_multisets_s": "s",
    "szegedy.lift_eigenvector_s": "s",
    "szegedy.lift_eigenvector.calls": "count",
    "szegedy.verify_structure_s": "s",
    "qmatrix.right_eigenvalues_W_s": "s",
    "qmatrix.right_eigenvalues_U_s": "s",
    "qmatrix.right_eigenbasis_s": "s",
    "qmatrix.right_eigenbasis.useful_ratio": "ratio",
    "qmatrix.h_linear_independent_s": "s",
    "qmatrix.minimal_polynomial_s": "s",
    "zeta.quaternionic_identity_s": "s",
    "zeta.ihara_identity_s": "s",
    "zeta.second_weighted_identity_s": "s",
    "zeta.sylvester_det_property_s": "s",
    "work.arcs": "count",
    "work.psi_w_flops": "flop",
    "work.psi_u_flops": "flop",
    "szegedy.build_walk.dense_u_bytes": "B",
    "trace.overhead_frac": "frac",
}

IMPORT_PROBES = 5


def load_library(src):
    """Import the program from ``src``; only public names are used."""
    sys.path.insert(0, str(src))
    from qszegedy import cli, errors, graph, instances, qmatrix, quaternion
    from qszegedy import szegedy, zeta

    return SimpleNamespace(cli=cli, errors=errors, graph=graph,
                           instances=instances, qmatrix=qmatrix,
                           quaternion=quaternion, szegedy=szegedy, zeta=zeta)


class Tracer:
    """Spans ``[name, start, end, parent index, job label]`` in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return totals


def _distinct(values) -> list[float]:
    out: list[float] = []
    for value in sorted(values):
        if not out or abs(value - out[-1]) > TOL * max(1.0, abs(value)):
            out.append(value)
    return out


class Replay:
    """Public library calls of one command, each under a span."""

    def __init__(self, lib, tracer: Tracer):
        self.lib = lib
        self.t = tracer

    def run(self, job: Job, path) -> None:
        getattr(self, "_" + job.kind.replace("-", "_"))(job, path)

    # -- shared steps

    def _instance(self, job: Job, path):
        lib, t = self.lib, self.t
        if job.instance in BUNDLED:
            inst = t.call("instances.load_bundled",
                          lib.instances.load_bundled, job.instance)
        else:
            inst = t.call("instances.load_instance_file",
                          lib.instances.load_instance_file, path)
        self._graph(inst.graph)
        return inst

    def _graph(self, g) -> None:
        self.t.call("graph.build_graph", self.lib.graph.build_graph,
                    g.n, g.edges, g.loops)

    def _walk(self, g, w):
        def build():
            ops = self.lib.szegedy.build_walk(g, w)
            ops.U, ops.W  # first access is part of the cost
            return ops

        ops = self.t.call("szegedy.build_walk", build)
        self.t.count("work.arcs", g.m_prime)
        self.t.count("szegedy.build_walk.dense_u_bytes",
                     3 * 2 * g.m_prime ** 2 * 16)
        return ops

    def _unitary_walk(self, g, w):
        self.t.call("szegedy.check_unitary_condition",
                    self.lib.szegedy.check_unitary_condition, g, w)
        return self._walk(g, w)

    def _eig_w(self, ops):
        self.t.count("work.psi_w_flops", (2 * ops.graph.n) ** 3)
        return self.t.call("qmatrix.right_eigenvalues_W",
                           self.lib.qmatrix.right_eigenvalues, ops.W)

    def _oracle(self, ops, report):
        lib, t = self.lib, self.t
        t.count("work.psi_u_flops", (2 * ops.graph.m_prime) ** 3)
        t.call("qmatrix.right_eigenvalues_U", lib.qmatrix.right_eigenvalues,
               ops.U)
        t.call("szegedy.match_multisets", lib.szegedy.match_multisets,
               report.psi_u_spectrum, report.oracle.direct_spectrum, TOL)

    def _basis(self, m, lam):
        self.t.count("qmatrix.right_eigenbasis.calls")
        basis = self.t.call("qmatrix.right_eigenbasis",
                            self.lib.qmatrix.right_eigenbasis, m, complex(lam))
        self.t.count("qmatrix.right_eigenbasis.found")
        return basis

    def _eigenvectors(self, ops, mus, boundary, independence: bool) -> None:
        lib, t = self.lib, self.t
        j = lib.quaternion.Quaternion(0, 0, 1, 0)
        for mu in _distinct(mus):
            if abs(abs(mu) - 2.0) <= TOL:
                continue
            lam, _ = lib.szegedy.spectral_map(mu)
            group = []
            for v in self._basis(ops.W, mu):
                for vec in (v, v.right_scalar(j)):
                    t.count("szegedy.lift_eigenvector.calls")
                    group.append(t.call("szegedy.lift_eigenvector",
                                        lib.szegedy.lift_eigenvector,
                                        ops, vec, lam))
            if independence:
                t.call("qmatrix.h_linear_independent",
                       lib.qmatrix.h_linear_independent, group)
        for target in boundary:
            try:
                self._basis(ops.U, target)
            except lib.errors.ValidationError:
                pass  # the value is absent; the CLI pays for the probe too

    # -- commands

    def _spectrum(self, job: Job, path) -> None:
        inst = self._instance(job, path)
        g, w = inst.graph, inst.weights
        ops = self._unitary_walk(g, w)
        self._eig_w(ops)
        name = ("szegedy.full_spectrum_eigenvectors" if job.eigenvectors
                else "szegedy.full_spectrum_oracle" if job.oracle
                else "szegedy.full_spectrum")
        report = self.t.call(name, self.lib.szegedy.full_spectrum, g, w,
                             want_oracle=job.oracle,
                             want_eigenvectors=job.eigenvectors, tol=TOL)
        if job.oracle:
            self._oracle(ops, report)
        if job.eigenvectors:
            boundary = [target for target in (1.0, -1.0)
                        if any(abs(c.rep - target) <= TOL and c.rep.imag == 0
                               for c in report.classes)]
            self._eigenvectors(ops, report.mu_spectrum, boundary, False)

    def _lift(self, job: Job, path) -> None:
        inst = self._instance(job, path)
        ops = self._unitary_walk(inst.graph, inst.weights)
        mus = [cls.rep.real for cls, _mult in self._eig_w(ops)]
        self._eigenvectors(ops, mus, (1.0, -1.0), True)

    def _verify(self, job: Job, path) -> None:
        inst = self._instance(job, path)
        seed = (inst.seed if inst.seed is not None
                else int(inst.sha256[:8], 16))
        self._verify_one(inst.graph, inst.weights, seed)

    def _verify_random(self, job: Job, seed) -> None:
        lib, t = self.lib, self.t
        family = job.argv[job.argv.index("--random") + 1]
        g = t.call("instances.parse_graph_spec", lib.instances.parse_graph_spec,
                   family)
        self._graph(g)
        for s in range(seed, seed + job.count):
            w = t.call("szegedy.random_instance", lib.szegedy.random_instance,
                       g, s)
            self._verify_one(g, w, s)

    def _verify_one(self, g, w, seed: int) -> None:
        lib, t = self.lib, self.t
        zeta = lib.zeta
        ops = self._unitary_walk(g, w)
        t.call("szegedy.verify_structure", lib.szegedy.verify_structure, ops)
        samples = zeta.default_samples(8)
        a = [value * math.sqrt(2.0) for value in ops.q]
        b = [ops.q[g.inverse_index(i)] * math.sqrt(2.0)
             for i in range(g.m_prime)]
        t.call("zeta.quaternionic_identity", zeta.quaternionic_identity,
               g, a, b, samples, TOL)
        if g.m1 == 0 and g.is_connected():
            t.call("zeta.ihara_identity", zeta.ihara_identity, g, samples, TOL)
            rng = np.random.default_rng(seed)
            n = g.n
            wm = np.where(g.arc_mask(), rng.standard_normal((n, n))
                          + 1j * rng.standard_normal((n, n)), 0.0)
            t.call("zeta.second_weighted_identity",
                   zeta.second_weighted_identity, g, wm, samples, TOL)
        k = lib.qmatrix.psi(ops.K)
        lh = lib.qmatrix.psi(ops.L).conj().T
        for alpha in [complex(2.0)] + zeta.default_samples(8, radius=1.0):
            t.call("zeta.sylvester_det_property", zeta.sylvester_det_property,
                   k, lh, alpha)

    def _examples(self, job: Job, path) -> None:
        lib, t = self.lib, self.t
        q, qm = lib.quaternion.Quaternion, lib.qmatrix
        small = [
            qm.QMatrix.diag([q(1.0), q(0, 0, 0, 1)]),
            qm.QMatrix.from_rows([[q(), q(0, 1, 0, 0)], [q(0, 0, 1, 0), q()]]),
        ]
        for m in small:
            t.call("qmatrix.right_eigenvalues", qm.right_eigenvalues, m)
            t.call("qmatrix.minimal_polynomial", qm.minimal_polynomial, m)
        inst = t.call("instances.load_bundled", lib.instances.load_bundled,
                      "k3_loops")
        g, w = inst.graph, inst.weights
        ops = self._walk(g, w)
        self._eig_w(ops)
        report = t.call("szegedy.full_spectrum_oracle",
                        lib.szegedy.full_spectrum, g, w, want_oracle=True,
                        tol=1e-9)
        self._oracle(ops, report)
        t.call("qmatrix.minimal_polynomial", qm.minimal_polynomial, ops.U)
        t.call("qmatrix.root_subspaces", qm.root_subspaces, ops.U)
        lam, _ = lib.szegedy.spectral_map(-2.0 / 3.0)
        t.count("szegedy.lift_eigenvector.calls")
        t.call("szegedy.lift_eigenvector", lib.szegedy.lift_eigenvector,
               ops, qm.qvec([1.0, 1.0, 1.0]), lam)


def import_time(python: str, env: dict) -> float:
    """Median time for ``import qszegedy.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import qszegedy.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([python, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _replay_job(lib, job, cli_args, target, tracer: Tracer, check):
    tracer.job = job.label
    with tracer.span("job"):
        with tracer.span("cli.main"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = lib.cli.main(cli_args)
        outcome = check(job, code)
        try:
            Replay(lib, tracer).run(job, target)
        except lib.errors.QWalkError as exc:
            outcome.problems.append(f"replay raised {exc!r}")
    return outcome


def run_cycle(lib, prepared, tracer: Tracer, check, flip: bool):
    """Replay every job twice, traced and untraced, in alternating order.

    ``check(job, exit_code)`` judges each ``cli.main`` report.  Returns the
    cycle's traced and untraced wall times and the outcome of every
    ``cli.main`` call.
    """
    plain = Tracer(False)
    walls = {True: 0.0, False: 0.0}
    outcomes = []
    for index, (job, cli_args, target) in enumerate(prepared):
        order = (True, False) if (index + flip) % 2 else (False, True)
        for enabled in order:
            start = time.perf_counter()
            outcomes.append(_replay_job(lib, job, cli_args, target,
                                        tracer if enabled else plain, check))
            walls[enabled] += time.perf_counter() - start
    return walls[True], walls[False], outcomes


def layer_metrics(traced: list[Tracer], traced_walls, plain_walls,
                  import_s: float) -> dict[str, float]:
    """Per-layer metrics: medians over traced cycles."""
    per_cycle = []
    for tracer in traced:
        values = {f"{name}_s": total
                  for name, total in tracer.self_times().items()}
        values.update(tracer.counts)
        calls = tracer.counts.get("qmatrix.right_eigenbasis.calls", 0)
        values["qmatrix.right_eigenbasis.useful_ratio"] = (
            tracer.counts.get("qmatrix.right_eigenbasis.found", 0) / calls
            if calls else 0.0)
        per_cycle.append(values)
    metrics = {name: statistics.median(v.get(name, 0.0) for v in per_cycle)
               for name in PER_LAYER}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    return metrics
