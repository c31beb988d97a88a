"""Graph reduction for 2-dimensional piercing partitions.

A k-piercing partition of a square gives a graph with one vertex per box:
join two boxes with a red edge when some vertical line meets both (their
x-factors intersect) and a blue edge when some horizontal line meets both.
Disjointness of the boxes forces each pair into at most one color, and the
piercing property puts every vertex inside a red K_k and a blue K_k.  The
minimum number N(k) of vertices of a two-colored graph with that clique
property is therefore a lower bound question for partition size.

This module builds the reduction, checks the clique property by exact
(budgeted) search, constructs the extremal 4(k-1)-vertex graph achieving
the property (and its 2t(k-1)-vertex t-color generalization), and
evaluates the closed-form lower bound

    N >= max_i 4 * 2^{-1/2^{i+1}} * (1 - i/(k-1))^{1 - 1/2^{i+1}} * (k-1)

obtained from the greedy clique-peeling recursion, which approaches
4(k-1) as k grows.
"""

from __future__ import annotations

import itertools
import math

from .bounds import BoundValue
from .geometry import BoxFamily, GeometryError, _check_cells, _Record, verify_cover

__all__ = [
    "TwoColoredGraph",
    "CliquePropertyReport",
    "partition_to_graph",
    "clique_property_check",
    "fig9_graph",
    "prop43_lower",
]

def _norm_edge(e) -> tuple[int, int]:
    a, b = e
    if a == b:
        raise GeometryError("self-loop")
    return (a, b) if a < b else (b, a)


class TwoColoredGraph(_Record):
    """Vertices 0..n-1 with one edge set per color."""

    __slots__ = ("vertex_count", "colored_edges")

    def __init__(
        self, vertex_count: int, colored_edges: tuple[frozenset[tuple[int, int]], ...]
    ) -> None:
        if vertex_count < 1:
            raise GeometryError("graph needs at least one vertex")
        seen: dict[tuple[int, int], int] = {}
        for color, edges in enumerate(colored_edges):
            for e in edges:
                e = _norm_edge(e)
                if not (0 <= e[0] < e[1] < vertex_count):
                    raise GeometryError(f"edge {e} out of range")
                if e in seen:
                    raise GeometryError(f"edge {e} colored twice")
                seen[e] = color
        self._set(vertex_count, colored_edges)

    @property
    def colors(self) -> int:
        return len(self.colored_edges)

    def neighbors(self, v: int, color: int) -> set[int]:
        out = set()
        for a, b in self.colored_edges[color]:
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return out


class CliquePropertyReport(_Record):
    __slots__ = ("holds", "witnesses", "failing_vertex", "failing_color")

    def __init__(
        self,
        holds: bool,
        witnesses: tuple[tuple[tuple[int, ...], ...], ...],  # [color][vertex] -> clique
        failing_vertex: int | None,
        failing_color: int | None,
    ) -> None:
        self._set(holds, witnesses, failing_vertex, failing_color)


def partition_to_graph(p: BoxFamily) -> TwoColoredGraph:
    """The two-colored reduction of a 2D partition: red edge when the
    x-factors of two boxes intersect, blue when the y-factors do.  Boxes
    sharing an x value and a y value would share a point, so in a partition
    no pair gets both colors."""
    if p.ambient.dim != 2:
        raise GeometryError("graph reduction is defined for dimension 2")
    report = verify_cover(p)
    if not report.is_partition:
        raise GeometryError("graph reduction expects a verified partition")
    colored = []
    for a, side in enumerate(p.ambient.sides):
        # owners[x]: the boxes holding axis-a coordinate x + 1, in increasing order
        owners: list[list[int]] = [[] for _ in range(side)]
        for b, box in enumerate(p.boxes):
            for x in box.factors[a]:
                owners[x - 1].append(b)
        colored.append(
            frozenset(e for group in owners for e in itertools.combinations(group, 2))
        )
    return TwoColoredGraph(len(p.boxes), tuple(colored))


def _find_clique_with(v: int, nbr: list[int], k: int, budget: list[int]) -> tuple[int, ...] | None:
    """A k-clique containing v in the graph given by neighbour bitmasks, or
    None.  Plain branch-and-bound on the neighborhood, walked with an
    explicit stack: ``left[i]`` masks the vertices still to try after
    ``clique[i]``, lowest first.  Each node decrements the shared budget and
    raises when it is exhausted."""
    clique, left = [v], [nbr[v]]
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise GeometryError("clique search budget exhausted")
        if len(clique) == k:
            return tuple(clique)
        if len(clique) + left[-1].bit_count() < k:
            left[-1] = 0  # too few left: try no child
        while not left[-1]:
            left.pop()
            clique.pop()
            if not left:
                return None
        low = left[-1] & -left[-1]
        left[-1] ^= low
        u = low.bit_length() - 1
        clique.append(u)
        left.append(left[-1] & nbr[u])


def _bitmasks(rows, width: int) -> list[int]:
    """One int per row with bit i set for each index i (< ``width``) in it,
    read from binary digits, in time linear in the rows and the width."""
    masks = []
    for row in rows:
        digits = bytearray(b"0") * (width + 1)  # one more: never empty
        for i in row:
            digits[i] = 49  # "1"
        masks.append(int(digits[::-1], 2))
    return masks


def clique_property_check(
    g: TwoColoredGraph, k: int, max_nodes: int = 2_000_000
) -> CliquePropertyReport:
    """Check that every vertex lies in a monochromatic K_k of every color,
    by exact search.  Witness cliques are reported per vertex and color; on
    failure the first vertex/color without a K_k is identified."""
    if k < 1:
        raise GeometryError("k must be >= 1")
    budget = [max_nodes]
    all_witnesses = []
    for color in range(g.colors):
        adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
        for a, b in g.colored_edges[color]:
            adj[a].append(b)
            adj[b].append(a)
        nbr = _bitmasks(adj, g.vertex_count)
        witnesses: list[tuple[int, ...] | None] = [None] * g.vertex_count
        for v in range(g.vertex_count):
            if witnesses[v] is not None:
                continue
            clique = _find_clique_with(v, nbr, k, budget)
            if clique is None:
                witnessed = tuple(w or () for w in all_witnesses)
                return CliquePropertyReport(False, witnessed, v, color)
            for u in clique:  # one witness serves all its members
                if witnesses[u] is None:
                    witnesses[u] = clique
        all_witnesses.append(tuple(witnesses))
    return CliquePropertyReport(True, tuple(all_witnesses), None, None)


def fig9_graph(k: int, colors: int = 2) -> TwoColoredGraph:
    """The extremal graph: 2*colors groups of k-1 vertices, every vertex in
    a monochromatic K_k of every color, and only 2*colors*(k-1) vertices.

    Groups 2c and 2c+1 are internal cliques of color c.  A pair of groups
    with distinct internal colors is joined completely in the color of the
    higher-indexed group when the group indices share parity, in the color
    of the lower-indexed group otherwise; partner groups (2c, 2c+1) are not
    joined.  For two colors this is exactly the four-group picture: two
    diagonal red cliques joined to their row-neighbors in red, the other
    diagonal in blue joined along columns.  A graph whose edge count,
    C(n, 2) - colors*(k-1)^2 for n = 2*colors*(k-1), passes the cell limit
    is refused before any edge is built.
    """
    if k < 2:
        raise GeometryError("k must be >= 2")
    if colors < 2:
        raise GeometryError("need at least two colors")
    m = k - 1
    n = 2 * colors * m
    _check_cells([math.comb(n, 2) - colors * m * m], f"the edges of a {colors}-color fig9 graph")
    group = lambda g: range(g * m, (g + 1) * m)
    edges: list[set[tuple[int, int]]] = [set() for _ in range(colors)]
    for g in range(2 * colors):
        c = g // 2
        for a, b in itertools.combinations(group(g), 2):
            edges[c].add((a, b))
    for g, h in itertools.combinations(range(2 * colors), 2):
        if g // 2 == h // 2:
            continue
        c = h // 2 if g % 2 == h % 2 else g // 2
        for a in group(g):
            for b in group(h):
                edges[c].add(_norm_edge((a, b)))
    return TwoColoredGraph(n, tuple(frozenset(e) for e in edges))


def prop43_lower(k: int) -> BoundValue:
    """Best lower bound on the vertex count N(k) from the clique-peeling
    recursion, maximizing the closed form over the peeling depth i."""
    if k < 3:
        raise GeometryError("k must be >= 3")
    best = 0.0
    for i in range(1, k - 1):
        shrink = 1.0 - i / (k - 1)
        expo = 1.0 - 0.5 ** (i + 1)
        c_i = 4.0 * 2.0 ** (-(0.5 ** (i + 1))) * shrink**expo
        best = max(best, c_i * (k - 1))
    return BoundValue("two_colored_clique_lower", best)
