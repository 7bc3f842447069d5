"""Finite graphs as symmetric digraphs with a canonical arc order.

A graph is simple apart from at most one loop per vertex.  Each of the
``m0`` non-loop edges contributes the arc pair ``(u, v), (v, u)``; each
of the ``m1`` loops contributes a single self-inverse arc.  The arc
order is canonical: edge ``r`` (0-based, input order) yields arcs
``2r`` and ``2r + 1`` with ``arc[2r+1] = inverse(arc[2r])``, and the
loops follow in input order.  The inversion permutation ``J0`` is then
``m0`` swap blocks ``[[0, 1], [1, 0]]`` followed by an identity block
of size ``m1``; it is symmetric and squares to the identity.

Arcs exist only as the read-only integer arrays ``origin``, ``terminus``
and ``inverse``, indexed by arc position, so arc matrices are numpy
gathers and scatters and ``J0 @ M`` is the row gather ``M[inverse]``;
``arc_index`` and ``has_arc`` read a lookup built from them.
"""

from __future__ import annotations

import numpy as np

from .errors import Frozen, ValidationError

__all__ = ["Graph", "build_graph"]


class Graph(Frozen):
    """An undirected graph with loops, exposed through its arc set.

    Immutable.  Equality, hash and repr read ``n``, ``edges`` and
    ``loops`` only; the arc arrays and lookup follow from them.
    """

    _FIELDS = ("n", "edges", "loops")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 loops: tuple[int, ...], _arc_lookup: dict,
                 origin: np.ndarray, terminus: np.ndarray,
                 inverse: np.ndarray):
        vars(self).update(
            n=n, edges=edges, loops=loops, _arc_lookup=_arc_lookup,
            origin=origin, terminus=terminus, inverse=inverse,
        )

    @property
    def m0(self) -> int:
        return len(self.edges)

    @property
    def m1(self) -> int:
        return len(self.loops)

    @property
    def m_prime(self) -> int:
        """Number of arcs: 2*m0 + m1."""
        return 2 * self.m0 + self.m1

    def arc_index(self, origin: int, terminus: int) -> int:
        try:
            return self._arc_lookup[(origin, terminus)]
        except KeyError:
            raise ValidationError(
                f"({origin},{terminus}) is not an arc of the graph"
            ) from None

    def has_arc(self, origin: int, terminus: int) -> bool:
        return (origin, terminus) in self._arc_lookup

    def inverse_index(self, index: int) -> int:
        """Index of the inverse arc; loops are self-inverse."""
        return int(self.inverse[index])

    def j0_matrix(self) -> np.ndarray:
        """The arc-inversion permutation as a complex matrix."""
        return np.eye(self.m_prime, dtype=complex)[self.inverse]

    def adjacency(self) -> np.ndarray:
        """0/1 adjacency matrix over non-loop edges."""
        a = np.zeros((self.n, self.n), dtype=complex)
        k = 2 * self.m0
        a[self.origin[:k], self.terminus[:k]] = 1.0
        return a

    def arc_mask(self) -> np.ndarray:
        """Boolean n x n mask that is True exactly on arcs."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask[self.origin, self.terminus] = True
        return mask

    def degrees(self) -> np.ndarray:
        """Vertex degrees; a loop contributes 2 as usual."""
        # A loop is one arc but adds 2, so loop arcs are counted twice.
        arcs = np.concatenate([self.origin, self.origin[2 * self.m0:]])
        return np.bincount(arcs, minlength=self.n)

    def components(self) -> int:
        """Connected components, isolated vertices included (loops join
        none)."""
        parent = list(range(self.n))

        def root(v: int) -> int:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]  # path halving
            return v

        for u, v in self.edges:
            parent[root(u)] = root(v)
        return sum(parent[v] == v for v in range(self.n))

    def is_connected(self) -> bool:
        return self.components() == 1

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "loops": list(self.loops),
        }


def build_graph(n: int, edges, loops=()) -> Graph:
    """Validate and build a graph with its canonical arc order.

    Parameters
    ----------
    n : int
        Number of vertices, labelled ``0 .. n-1``.
    edges : iterable of (int, int)
        Non-loop edges; order fixes the arc order.  Duplicates (in
        either orientation) are rejected.
    loops : iterable of int
        Vertices carrying a loop, at most one each.

    Raises
    ------
    ValidationError
        On out-of-range ids, duplicate edges or loops, or an edge of the
        form ``(u, u)`` (loops must be declared via ``loops``).
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"vertex count must be a positive int, got {n!r}")

    def check_vertex(v, what):
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise ValidationError(f"{what}: vertex {v!r} not in 0..{n - 1}")

    edge_list: list[tuple[int, int]] = []
    seen_pairs: set[frozenset] = set()
    for pos, edge in enumerate(edges):
        edge = tuple(edge)
        if len(edge) != 2:
            raise ValidationError(f"edge #{pos}: expected a pair, got {edge!r}")
        u, v = edge
        check_vertex(u, f"edge #{pos}")
        check_vertex(v, f"edge #{pos}")
        if u == v:
            raise ValidationError(
                f"edge #{pos} is ({u},{v}); declare loops via the loops list"
            )
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise ValidationError(f"duplicate edge ({u},{v})")
        seen_pairs.add(pair)
        edge_list.append((u, v))

    loop_list: list[int] = []
    seen_loops: set[int] = set()
    for pos, u in enumerate(loops):
        check_vertex(u, f"loop #{pos}")
        if u in seen_loops:
            raise ValidationError(f"duplicate loop at vertex {u}")
        seen_loops.add(u)
        loop_list.append(u)

    ends = np.array(edge_list, dtype=np.intp).reshape(-1, 2)
    loop_arcs = np.array(loop_list, dtype=np.intp)
    origin = np.concatenate([ends.ravel(), loop_arcs])
    terminus = np.concatenate([ends[:, ::-1].ravel(), loop_arcs])
    inverse = np.arange(len(origin))
    inverse[:2 * len(edge_list)] ^= 1
    for values in (origin, terminus, inverse):
        values.flags.writeable = False
    return Graph(
        n=n,
        edges=tuple(edge_list),
        loops=tuple(loop_list),
        _arc_lookup={
            arc: index
            for index, arc in enumerate(
                zip(origin.tolist(), terminus.tolist())
            )
        },
        origin=origin,
        terminus=terminus,
        inverse=inverse,
    )
