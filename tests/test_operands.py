"""The dense operands keep their bits: K, L, W, psi(W) and the oracle's
psi(U).

The walk scatters L from the arc map ``(sqrt(2) q)[J0]`` and gathers K
from it, ``build_walk`` forms ``W = L* K`` from L's own parts converted
in place, ``psi`` writes its four blocks into one array, and the oracle
scatters ``psi(U)`` from U's support.  Each must equal, byte for byte
and signed zeros included, the form it replaces: the K and L of
``build_kl(graph, sqrt(2) q, (sqrt(2) q)[J0])``, ``L.H @ K``, the
``np.block`` embedding and ``psi(ops.U)``.  The instances are the
bundled ones, uniform weights on their families and on a few more, the
benchmark's graph specs at two seeds, and the drawn graphs of
``test_graph_space``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qszegedy import szegedy
from qszegedy.instances import bundled_names, load_bundled, parse_graph_spec
from qszegedy.qmatrix import QMatrix, psi
from qszegedy.szegedy import build_walk, random_instance, uniform_weights
from test_graph_space import _weights, graphs

#: The graph specs of the benchmark's three workloads.
BENCHMARK_SPECS = (
    "C120", "P100", "star60+loop", "K20", "K24+loops",
    "K8+loops", "K10", "K10+loops", "K12",
    "C40", "K8", "K6+loops", "P30", "star20+loop",
)


def _block_psi(m: QMatrix) -> np.ndarray:
    return np.block([[m.a, -np.conj(m.b)], [m.b, np.conj(m.a)]])


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and (
        x.tobytes() == y.tobytes()
    )


def _assert_operand_bits(ops) -> None:
    a = ops.q * np.sqrt(2.0)
    K, L = szegedy.build_kl(ops.graph, a, a[ops.graph.inverse])
    for got, want in ((ops.K, K), (ops.L, L)):
        assert _same_bytes(got.a, want.a) and _same_bytes(got.b, want.b)
    w = ops.L.H @ ops.K
    assert _same_bytes(ops.W.a, w.a) and _same_bytes(ops.W.b, w.b)
    assert _same_bytes(psi(ops.W), _block_psi(ops.W))
    assert _same_bytes(ops.psi_W, _block_psi(ops.W))
    u = _block_psi(ops.U)
    assert _same_bytes(psi(ops.U), u)
    assert _same_bytes(szegedy._psi_u(ops.graph, ops.q), u)


#: Uniform weights: real, so most of K's and L's components are zeros.
UNIFORM_SPECS = ("K3+loops", "P3", "star3+loop", "K4", "C5",
                 "K5", "C7", "P4", "K4+loops")


@pytest.mark.parametrize("name, seed", [
    *((name, None) for name in bundled_names()),
    *((spec, seed) for spec in BENCHMARK_SPECS for seed in (1, 1009)),
    *((spec, "uniform") for spec in UNIFORM_SPECS),
])
def test_operands_keep_their_bits(name, seed):
    if seed is None:
        instance = load_bundled(name)
        graph, weights = instance.graph, instance.weights
    else:
        graph = parse_graph_spec(name)
        weights = (uniform_weights(graph) if seed == "uniform"
                   else random_instance(graph, seed))
    _assert_operand_bits(build_walk(graph, weights))


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), seed=st.none() | st.integers(0, 2**32 - 1))
def test_operands_keep_their_bits_over_graph_space(graph, seed):
    _assert_operand_bits(build_walk(graph, _weights(graph, seed)))


@pytest.mark.parametrize("shape", [(3, 5), (4, 4), (1, 1), (0, 3), (2, 0)])
def test_psi_keeps_signed_zeros_and_shapes(shape):
    rng = np.random.default_rng(len(shape) + shape[0] + 7 * shape[1])
    parts = []
    for _ in range(2):
        part = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # Entries of each signed-zero kind, as structural zeros give.
        flat = part.reshape(-1)
        for k, z in enumerate((0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                               complex(-0.0, -0.0))):
            if k < flat.size:
                flat[k] = z
        parts.append(part)
    m = QMatrix(*parts)
    assert _same_bytes(psi(m), _block_psi(m))


def test_psi_allocates_only_its_result(monkeypatch):
    # The blocks go straight into the result.  The strided writes take
    # numpy's ufunc buffer, at most 8,192 entries (128 KiB), on top of it.
    # On C120's W (n = 120) the peak is 1.05 MB for a 0.92 MB result with
    # numpy 2.4, against 2.31 MB when np.block built both block rows
    # and the conjugate blocks first.  The input is the contiguous W that
    # build_walk embeds, as _adjoint_product returns it.
    graph = parse_graph_spec("C120")
    adjoint_product, products = szegedy._adjoint_product, []

    def kept(L, K):
        products.append(adjoint_product(L, K))
        return products[-1]

    monkeypatch.setattr(szegedy, "_adjoint_product", kept)
    build_walk(graph, random_instance(graph, 7))
    w = products.pop()
    tracemalloc.start()
    try:
        out = psi(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024
