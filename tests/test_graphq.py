import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import geometry, graphq
from boxkit.constructions import grid_partition, quadrant_construction
from boxkit.geometry import Ambient, BoxFamily, DiscreteBox, GeometryError
from boxkit.graphq import (
    CliquePropertyReport,
    TwoColoredGraph,
    clique_property_check,
    fig9_graph,
    partition_to_graph,
    prop43_lower,
)


class TestTwoColoredGraph:
    def test_rejects_doubly_colored_edges(self):
        with pytest.raises(GeometryError):
            TwoColoredGraph(
                2, (frozenset({(0, 1)}), frozenset({(0, 1)}))
            )

    def test_rejects_self_loops_and_range(self):
        with pytest.raises(GeometryError):
            TwoColoredGraph(2, (frozenset({(1, 1)}), frozenset()))
        with pytest.raises(GeometryError):
            TwoColoredGraph(2, (frozenset({(0, 5)}), frozenset()))

    def test_neighbors(self):
        g = TwoColoredGraph(3, (frozenset({(0, 1), (1, 2)}), frozenset()))
        assert g.neighbors(1, 0) == {0, 2}
        assert g.neighbors(1, 1) == set()


class TestReduction:
    def test_grid_graph(self):
        g = partition_to_graph(grid_partition(2, 3))
        # rows and columns each give triangles: 2 * 3 * C(3,2) edges
        assert g.vertex_count == 9
        assert len(g.colored_edges[0]) == 9
        assert len(g.colored_edges[1]) == 9
        assert clique_property_check(g, 3).holds

    def test_side_by_side_slabs_single_color(self):
        fam = BoxFamily(
            Ambient.cube(2, 2),
            (DiscreteBox.of([1], [1, 2]), DiscreteBox.of([2], [1, 2])),
        )
        g = partition_to_graph(fam)
        assert g.colored_edges[0] == frozenset()
        assert g.colored_edges[1] == frozenset({(0, 1)})

    def test_requires_2d_partition(self):
        with pytest.raises(GeometryError):
            partition_to_graph(grid_partition(3, 2))
        broken = BoxFamily(
            Ambient.cube(2, 2), (DiscreteBox.of([1], [1]),)
        )
        with pytest.raises(GeometryError):
            partition_to_graph(broken)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_quadrant_reduction_sound(self, k):
        g = partition_to_graph(quadrant_construction(2, k))
        assert clique_property_check(g, k).holds


@st.composite
def guillotine_partitions(draw):
    """2-D brick partitions from random guillotine cuts, boxes shuffled."""
    sides = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    parts = [tuple(tuple(range(1, n + 1)) for n in sides)]
    for _ in range(draw(st.integers(0, 20))):
        i = draw(st.integers(0, len(parts) - 1))
        axis = draw(st.integers(0, 1))
        f = parts[i][axis]
        if len(f) < 2:
            continue
        cut = draw(st.integers(1, len(f) - 1))
        parts[i : i + 1] = [
            parts[i][:axis] + (piece,) + parts[i][axis + 1 :]
            for piece in (f[:cut], f[cut:])
        ]
    parts = draw(st.permutations(parts))
    return BoxFamily(Ambient(sides), tuple(DiscreteBox(p) for p in parts))


@given(guillotine_partitions())
@settings(max_examples=150, deadline=None)
def test_reduction_matches_pairwise_oracle(fam):
    g = partition_to_graph(fam)
    for axis in (0, 1):
        expected = {
            (i, j)
            for (i, a), (j, b) in itertools.combinations(enumerate(fam.boxes), 2)
            if set(a.factors[axis]) & set(b.factors[axis])
        }
        assert g.colored_edges[axis] == expected


class TestCliqueCheck:
    def test_witnesses_returned(self):
        g = fig9_graph(4)
        report = clique_property_check(g, 4)
        assert report.holds
        for color in range(2):
            for v in range(g.vertex_count):
                w = report.witnesses[color][v]
                assert len(w) == 4 and v in w
                for a in w:
                    for b in w:
                        if a < b:
                            assert (a, b) in g.colored_edges[color]

    def test_missing_blue_side_fails(self):
        g = TwoColoredGraph(
            3,
            (frozenset({(0, 1), (0, 2), (1, 2)}), frozenset()),
        )
        report = clique_property_check(g, 3)
        assert not report.holds
        assert report.failing_color == 1

    def test_budget_error(self):
        g = fig9_graph(6)
        with pytest.raises(GeometryError, match="budget"):
            clique_property_check(g, 6, max_nodes=3)


def _reference_find_clique_with(v, adj, k, budget):
    """The recursive search ``_find_clique_with`` walks with an explicit
    stack, on adjacency sets: a k-clique containing v, or None."""

    def extend(clique, allowed):
        budget[0] -= 1
        if budget[0] < 0:
            raise GeometryError("clique search budget exhausted")
        if len(clique) == k:
            return tuple(clique)
        if len(clique) + len(allowed) < k:
            return None
        for idx, u in enumerate(allowed):
            clique.append(u)
            narrowed = [w for w in allowed[idx + 1 :] if w in adj[u]]
            found = extend(clique, narrowed)
            if found is not None:
                return found
            clique.pop()
        return None

    return extend([v], sorted(adj[v]))


def _reference_clique_property_check(g, k, max_nodes):
    """``clique_property_check`` over ``_reference_find_clique_with``."""
    budget = [max_nodes]
    all_witnesses = []
    for color in range(g.colors):
        adj = [g.neighbors(v, color) for v in range(g.vertex_count)]
        witnesses = [None] * g.vertex_count
        for v in range(g.vertex_count):
            if witnesses[v] is not None:
                continue
            clique = _reference_find_clique_with(v, adj, k, budget)
            if clique is None:
                witnessed = tuple(w or () for w in all_witnesses)
                return CliquePropertyReport(False, witnessed, v, color)
            for u in clique:
                if witnesses[u] is None:
                    witnesses[u] = clique
        all_witnesses.append(tuple(witnesses))
    return CliquePropertyReport(True, tuple(all_witnesses), None, None)


@st.composite
def colored_graphs(draw):
    """Random graphs of up to 14 vertices, each pair in one of 1-3 colors or
    in none."""
    n, colors = draw(st.integers(1, 14)), draw(st.integers(1, 3))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.integers(-1, colors - 1), min_size=len(pairs), max_size=len(pairs)))
    edges = [frozenset(e for e, c in zip(pairs, picks) if c == color) for color in range(colors)]
    return TwoColoredGraph(n, tuple(edges))


def _outcome(check, g, k, max_nodes):
    try:
        return check(g, k, max_nodes)
    except GeometryError as exc:
        return str(exc)


@given(colored_graphs(), st.integers(1, 5), st.integers(1, 300) | st.just(10**6))
@settings(max_examples=300, deadline=None)
def test_clique_check_follows_the_reference(g, k, max_nodes):
    assert _outcome(clique_property_check, g, k, max_nodes) == _outcome(
        _reference_clique_property_check, g, k, max_nodes
    )
    # the same nodes: every vertex's search spends the reference's budget
    for color in range(g.colors):
        adj = [g.neighbors(v, color) for v in range(g.vertex_count)]
        nbr = [sum(1 << u for u in a) for a in adj]
        for v in range(g.vertex_count):
            ours, theirs = [10**6], [10**6]
            found = graphq._find_clique_with(v, nbr, k, ours)
            assert (found, ours) == (_reference_find_clique_with(v, adj, k, theirs), theirs)


def test_deep_clique_needs_no_recursion():
    """K_300 found 300 levels deep under a recursion limit of 200."""
    g = TwoColoredGraph(300, (frozenset(itertools.combinations(range(300), 2)),))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        report = clique_property_check(g, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert report.holds
    assert report.witnesses == ((tuple(range(300)),) * 300,)


class TestFig9:
    @pytest.mark.parametrize("k", range(3, 7))
    def test_size_and_property(self, k):
        g = fig9_graph(k)
        assert g.vertex_count == 4 * (k - 1)
        assert clique_property_check(g, k).holds

    @pytest.mark.parametrize("k", range(3, 7))
    def test_tight(self, k):
        assert not clique_property_check(fig9_graph(k), k + 1).holds

    def test_k2(self):
        g = fig9_graph(2)
        assert g.vertex_count == 4
        assert clique_property_check(g, 2).holds

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_many_colors(self, t):
        g = fig9_graph(3, colors=t)
        assert g.vertex_count == 2 * t * 2
        assert clique_property_check(g, 3).holds

    def test_k8_unchanged(self):
        """Groups of 7: a group is a clique of its color, partner groups are
        not joined, other pairs take the color the docstring names."""
        g = fig9_graph(8)
        expected = [set(), set()]
        for a, b in itertools.combinations(range(28), 2):
            ga, gb = a // 7, b // 7
            if ga == gb:
                expected[ga // 2].add((a, b))
            elif ga // 2 != gb // 2:
                expected[gb // 2 if ga % 2 == gb % 2 else ga // 2].add((a, b))
        assert (g.vertex_count, list(g.colored_edges)) == (28, expected)

    def test_unbounded_graph_refused_before_building(self, monkeypatch):
        with pytest.raises(GeometryError, match="cell limit"):
            fig9_graph(3, colors=10**8)
        # fig9_graph(8) has C(28, 2) - 2 * 7^2 = 280 edges
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 280)
        fig9_graph(8)
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 279)
        with pytest.raises(GeometryError, match="279-cell limit"):
            fig9_graph(8)

    def test_errors(self):
        with pytest.raises(GeometryError):
            fig9_graph(1)
        with pytest.raises(GeometryError):
            fig9_graph(3, colors=1)


class TestProp43:
    def test_large_k_ratio(self):
        b = prop43_lower(10**4)
        assert b.value / 10**4 >= 3.5
        assert b.value <= 4 * (10**4 - 1) + 1

    @pytest.mark.parametrize("k", [3, 10, 100, 1000])
    def test_never_beats_construction(self, k):
        assert prop43_lower(k).value <= 4 * (k - 1) + 1

    def test_ratio_growing(self):
        ratios = [prop43_lower(k).value / k for k in (10, 100, 1000, 10**4)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_small_k_rejected(self):
        with pytest.raises(GeometryError):
            prop43_lower(2)
