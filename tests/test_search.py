import hashlib
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxkit import geometry, search
from boxkit.bounds import lower_odd_proper
from boxkit.geometry import Ambient, BoxFamily, DiscreteBox, GeometryError, verify_cover
from boxkit.search import (
    CoverInstance,
    SearchBudget,
    _axis_masks,
    _cand_masks,
    _cards,
    _number_masks,
    _point_pool,
    _pool_axes,
    _pt_masks,
    anneal_cover,
    enumerate_candidates,
    export_model,
    solve_cover,
)


def instance(sides, predicate, t=1, mode="exact"):
    amb = Ambient(tuple(sides))
    return CoverInstance(
        amb, tuple(enumerate_candidates(amb, predicate)), t, mode
    )


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_candidates(Ambient.cube(5, 1), "odd_proper_box")) == 15
        assert len(enumerate_candidates(Ambient.cube(5, 1), "odd_proper_brick")) == 8
        assert len(enumerate_candidates(Ambient.cube(3, 3), "odd_proper_box")) == 27
        assert len(enumerate_candidates(Ambient.cube(3, 3), "proper_box")) == 216

    def test_sorted_and_unique(self):
        cands = enumerate_candidates(Ambient.cube(4, 2), "proper_brick")
        keys = [c.factors for c in cands]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_cap(self):
        with pytest.raises(GeometryError):
            enumerate_candidates(Ambient.cube(10, 1), "proper_box")

    def test_unknown_predicate(self):
        with pytest.raises(GeometryError):
            enumerate_candidates(Ambient.cube(3, 1), "odd_box")

    @pytest.mark.parametrize(
        "limit, sides, predicate, message, count",
        [
            # 2^6 boxes x 6 axes = 384; 2^6 incidence cells
            (384, (2,) * 6, "proper_box", "a 6-axis candidate pool", 64),
            # 15^2 boxes x 2 axes = 450; 35^2 = 1225 incidence cells
            (1225, (5, 5), "odd_proper_box", "the incidence of a 2-axis candidate pool", 225),
        ],
        ids=["boxes-times-axes", "incidence-cells"],
    )
    def test_oversized_pool_refused_before_any_box(
        self, monkeypatch, limit, sides, predicate, message, count
    ):
        monkeypatch.setattr(geometry, "_CELL_LIMIT", limit - 1)
        with monkeypatch.context() as m:
            m.setattr(search, "DiscreteBox", None)  # building a box would fail
            with pytest.raises(GeometryError) as exc:
                enumerate_candidates(Ambient(sides), predicate)
        assert str(exc.value) == f"{message} exceeds the {limit - 1}-cell limit"
        monkeypatch.setattr(geometry, "_CELL_LIMIT", limit)
        assert len(enumerate_candidates(Ambient(sides), predicate)) == count


class TestSolveCover:
    def test_forced_singletons(self):
        r = solve_cover(instance((3, 3, 3), "odd_proper_box"), SearchBudget())
        assert r.best_size == 27 and r.proven_optimal

    def test_5_1_optimum(self):
        r = solve_cover(instance((5,), "odd_proper_brick"), SearchBudget())
        assert r.best_size == 3 and r.proven_optimal

    def test_5_2_optimum(self):
        r = solve_cover(instance((5, 5), "odd_proper_brick"), SearchBudget())
        assert r.best_size == 9 and r.proven_optimal
        rep = verify_cover(r.best)
        assert rep.is_partition and rep.all_odd and rep.all_proper

    def test_respects_parity_lower_bound(self):
        r = solve_cover(instance((5, 5), "odd_proper_brick"), SearchBudget())
        assert r.best_size >= lower_odd_proper(5, 2).value

    def test_infeasible(self):
        amb = Ambient.cube(2, 1)
        inst = CoverInstance(amb, (DiscreteBox.of([1]),))
        r = solve_cover(inst, SearchBudget())
        assert r.best is None and r.proven_optimal
        assert r.best_size == math.inf

    def test_budget_exhaustion_reported(self):
        r = solve_cover(
            instance((5, 5), "odd_proper_box"), SearchBudget(max_nodes=5)
        )
        assert not r.proven_optimal

    def test_double_cover_3_2(self):
        r = solve_cover(instance((3, 3), "proper_box", t=2), SearchBudget())
        assert r.best_size == 6 and r.proven_optimal  # frozen oracle value
        assert verify_cover(r.best, 2, "exact").multiplicity_ok

    def test_at_least_mode(self):
        r = solve_cover(
            instance((3, 3), "proper_box", t=2, mode="at_least"), SearchBudget()
        )
        assert r.proven_optimal
        assert verify_cover(r.best, 2, "at_least").multiplicity_ok
        assert r.best_size <= 6


def _brute_force_optimum(inst):
    points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
    best = None
    for r in range(len(inst.candidates) + 1):
        for combo in itertools.combinations(range(len(inst.candidates)), r):
            counts = {p: 0 for p in points}
            for ci in combo:
                for p in itertools.product(*inst.candidates[ci].factors):
                    counts[p] += 1
            values = counts.values()
            if inst.mode == "exact":
                ok = all(v == inst.multiplicity for v in values)
            else:
                ok = all(v >= inst.multiplicity for v in values)
            if ok:
                return r
        if best is not None:
            return best
    return None


@st.composite
def tiny_instances(draw):
    d = draw(st.integers(1, 2))
    sides = tuple(draw(st.integers(2, 3)) for _ in range(d))
    amb = Ambient(sides)
    pool = enumerate_candidates(amb, "proper_box")
    idx = draw(
        st.sets(st.integers(0, len(pool) - 1), min_size=1, max_size=12)
    )
    t = draw(st.integers(1, 2))
    mode = draw(st.sampled_from(["exact", "at_least"]))
    return CoverInstance(amb, tuple(pool[i] for i in sorted(idx)), t, mode)


@given(tiny_instances())
@settings(max_examples=40, deadline=None)
def test_solver_agrees_with_brute_force(inst):
    r = solve_cover(inst, SearchBudget(wall_seconds=30))
    assert r.proven_optimal
    brute = _brute_force_optimum(inst)
    if brute is None:
        assert r.best is None
    else:
        assert r.best_size == brute


def _reference_solve_cover(inst, max_nodes):
    """The branch-and-bound tree of ``solve_cover``, recounting every deficit
    point's usable candidates at every node and recursing: returns (chosen
    candidate indices, best size, proven optimal, nodes)."""
    points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
    index = {p: i for i, p in enumerate(points)}
    cand_pts = [
        tuple(index[p] for p in itertools.product(*c.factors))
        for c in inst.candidates
    ]
    t = inst.multiplicity
    exact = inst.mode == "exact"
    covers_point = [[] for _ in points]
    for ci, pts in enumerate(cand_pts):
        for p in pts:
            covers_point[p].append(ci)
    max_card = max((len(p) for p in cand_pts), default=1)
    counts = [0] * len(points)
    banned = [False] * len(cand_pts)
    chosen = []
    best = {"size": math.inf, "sel": None, "nodes": 0, "exhausted": True}

    def usable(ci):
        if banned[ci]:
            return False
        return not (exact and any(counts[p] >= t for p in cand_pts[ci]))

    def dfs():
        best["nodes"] += 1
        if best["nodes"] >= max_nodes:
            best["exhausted"] = False
            return
        demand = sum(max(0, t - c) for c in counts)
        if demand == 0:
            if len(chosen) < best["size"]:
                best["size"], best["sel"] = len(chosen), list(chosen)
            return
        if len(chosen) + math.ceil(demand / max_card) >= best["size"]:
            return
        options = None
        for p in range(len(points)):
            if counts[p] < t:
                opts = [ci for ci in covers_point[p] if usable(ci)]
                if options is None or len(opts) < len(options):
                    options = opts
                    if not opts:
                        break
        newly_banned = []
        for ci in options:
            banned[ci] = True
            newly_banned.append(ci)
            chosen.append(ci)
            for p in cand_pts[ci]:
                counts[p] += 1
            dfs()
            for p in cand_pts[ci]:
                counts[p] -= 1
            chosen.pop()
            if not best["exhausted"]:
                break
        for ci in newly_banned:
            banned[ci] = False

    dfs()
    return best["sel"], best["size"], best["exhausted"], best["nodes"]


@st.composite
def random_pools(draw):
    d = draw(st.integers(1, 3))
    sides = tuple(draw(st.integers(2, 4 if d < 3 else 3)) for _ in range(d))
    amb = Ambient(sides)
    pool = enumerate_candidates(
        amb, draw(st.sampled_from(["proper_box", "proper_brick", "odd_proper_box"]))
    )
    random.Random(draw(st.integers(0, 2**16))).shuffle(pool)
    picked = pool[: draw(st.integers(1, 120))]
    # a t past the pool size covers no point t times: every level above the
    # pool size stays empty, and 10^20 levels would not fit a tuple
    n = len(picked)
    t = draw(st.one_of(st.integers(1, 3), st.sampled_from([n, n + 1, n + 2, 10**20])))
    mode = draw(st.sampled_from(["exact", "at_least"]))
    return CoverInstance(amb, tuple(picked), t, mode)


@given(random_pools(), st.integers(1, 2000))
@settings(max_examples=150, deadline=None)
def test_solver_walks_the_reference_tree(inst, max_nodes):
    r = solve_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600))
    sel, size, proven, nodes = _reference_solve_cover(inst, max_nodes)
    assert (r.nodes, r.proven_optimal, r.best_size) == (nodes, proven, size)
    if sel is None:
        assert r.best is None
    else:
        assert r.best == BoxFamily(inst.ambient, tuple(inst.candidates[i] for i in sel))


@pytest.mark.parametrize(
    "t, mode", [(3, "exact"), (2, "at_least")], ids=["t3-exact", "t2-at-least"]
)
def test_every_node_cap_walks_the_reference_tree(t, mode):
    """Every cap from 1 to 400 on [3,3] proper boxes: pruned children are
    counted in runs, and a cap that falls inside a run stops the search at
    exactly that many nodes, with the reference's incumbent."""
    inst = instance((3, 3), "proper_box", t, mode)
    for max_nodes in range(1, 401):
        r = solve_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600))
        sel, size, proven, nodes = _reference_solve_cover(inst, max_nodes)
        assert (r.nodes, r.proven_optimal, r.best_size) == (nodes, proven, size), max_nodes
        want = None if sel is None else tuple(inst.candidates[i] for i in sel)
        assert (r.best and r.best.boxes) == want, max_nodes


@st.composite
def any_pools(draw):
    """Arbitrary boxes (not only proper ones), possibly none, 1-D included."""
    d = draw(st.integers(1, 3))
    sides = tuple(draw(st.integers(2, 4)) for _ in range(d))
    factor = lambda n: st.sets(st.integers(1, n), min_size=1, max_size=n)
    boxes = draw(st.lists(st.tuples(*(factor(n) for n in sides)), max_size=8))
    return CoverInstance(Ambient(sides), tuple(DiscreteBox.of(*b) for b in boxes))


@given(any_pools(), st.sampled_from([(1, "exact"), (2, "exact"), (1, "at_least")]), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_solver_on_arbitrary_pools_walks_the_reference_tree(inst, demand, max_nodes):
    """Arbitrary and repeated factors, with every singleton added so that a
    cover exists: at t=1 exact, the candidates that meet a chosen one (read
    off the per-axis masks) are those through its cells."""
    points = itertools.product(*(range(1, n + 1) for n in inst.ambient.sides))
    singletons = tuple(DiscreteBox.of(*([c] for c in p)) for p in points)
    inst = CoverInstance(inst.ambient, inst.candidates + singletons, *demand)
    r = solve_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600))
    sel, size, proven, nodes = _reference_solve_cover(inst, max_nodes)
    assert (r.nodes, r.proven_optimal, r.best_size) == (nodes, proven, size)
    assert (r.best and r.best.boxes) == (sel and tuple(inst.candidates[i] for i in sel))


def _pool_oracle(inst):
    """Per candidate its points, per point its candidates, both as masks,
    and per candidate its cardinality, from ``DiscreteBox.contains`` alone."""
    points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
    holds = [[c.contains(pt) for pt in points] for c in inst.candidates]
    pt_mask = [sum(1 << p for p, h in enumerate(row) if h) for row in holds]
    cand_mask = [sum(1 << ci for ci, row in enumerate(holds) if row[p]) for p in range(len(points))]
    return pt_mask, cand_mask, [row.count(True) for row in holds]


def _members(mask):
    """The set bits of a mask, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _check_point_pool(inst, cand_mask):
    """``_point_pool``'s count and pick at every point against the
    candidate masks; whether the pool was read as masks (dense)."""
    through, count, pick = _point_pool(inst, *_pool_axes(inst))
    assert len(through) == len(cand_mask)
    for entry, m in zip(through, cand_mask):
        assert count(entry) == m.bit_count()
        assert list(pick(range(len(inst.candidates)), entry)) == _members(m)
    return all(isinstance(entry, int) for entry in through)


@given(any_pools())
@settings(max_examples=150, deadline=None)
def test_pool_incidence_matches_contains(inst):
    """The per-axis algebra against ``DiscreteBox.contains``: each
    candidate's points (the product of its spreads), each point's
    candidates (the AND of the axes' masks, and ``_point_pool`` on either
    side of its density rule) and each candidate's cardinality (the
    product of its factors' lengths)."""
    pt_mask, cand_mask, card = _pool_oracle(inst)
    axes, incidence = _pool_axes(inst, masks=True)
    assert list(_pt_masks(inst, axes)) == pt_mask
    assert list(_cards(axes)) == card and incidence == sum(card)
    assert _cand_masks(_axis_masks(inst, axes)) == cand_mask
    _check_point_pool(inst, cand_mask)


@pytest.mark.parametrize(
    "sides, predicate, dense",
    [((3, 3, 3), "proper_box", True), ((3, 3, 3, 3), "proper_box", False), ((2,) * 6, "proper_box", False),
     ((4, 4), "proper_brick", True), ((5,), "odd_proper_box", True), ((2, 5, 3), "odd_proper_brick", False)],
)
def test_point_pool_on_either_side_of_its_density_rule(sides, predicate, dense):
    """Pools whose masks take at most (dense) or more (sparse) bytes than
    their incidence has cells give each point's candidates as
    ``DiscreteBox.contains`` does."""
    inst = instance(sides, predicate)
    assert _check_point_pool(inst, _pool_oracle(inst)[1]) is dense


@pytest.mark.parametrize("sides", [(9,), (3, 9)])
def test_pool_incidence_past_256_factors_matches_contains(sides):
    """An axis with 510 distinct factors (the proper boxes of [9]) builds its
    masks from two blocks of factor numbers, 255 to a block."""
    inst = instance(sides, "proper_box")
    axes, _ = _pool_axes(inst)
    assert max(len(distinct) for distinct, _ in axes) == 510
    pt_mask, cand_mask, _ = _pool_oracle(inst)
    assert list(_pt_masks(inst, axes)) == pt_mask
    assert _cand_masks(_axis_masks(inst, axes)) == cand_mask


@st.composite
def numbered_items(draw):
    """Numbers below a count of 0-700 (block edges likely), one per item,
    and groups of them: arbitrary subsets and ranges."""
    count = draw(st.one_of(st.sampled_from([0, 1, 254, 255, 256, 510, 511]), st.integers(0, 700)))
    if not count:
        return [], 0, draw(st.lists(st.just(set()), max_size=2))
    number = st.one_of(
        st.integers(0, count - 1),
        st.sampled_from([v for v in (0, 254, 255, 256, 509, 510) if v < count]),
    )
    group = st.one_of(
        st.sets(number),
        st.builds(range, st.integers(0, count), st.integers(0, count)),
        st.builds(range, st.integers(0, count)),
    )
    return draw(st.lists(number, max_size=40)), count, draw(st.lists(group, max_size=5))


@given(numbered_items())
@example(([], 510, [range(510), {0, 509}]))
@example(([254, 255, 256, 509, 0, 255], 510, [{255}, range(254, 256), range(256, 510), set()]))
@settings(max_examples=300, deadline=None)
def test_number_masks_match_a_naive_loop(case):
    numbers, count, groups = case
    want = [sum(1 << i for i, x in enumerate(numbers) if x in group) for group in groups]
    assert _number_masks(numbers, count, groups) == want


def _reference_model(inst, format):
    """The LP or CNF text of ``export_model``, built from
    ``DiscreteBox.contains`` point by point."""
    points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
    through = [[ci + 1 for ci, c in enumerate(inst.candidates) if c.contains(pt)] for pt in points]
    n_vars = len(inst.candidates)
    if format == "lp":
        rel = "=" if inst.mode == "exact" else ">="
        names = [f"x_{i}" for i in range(1, n_vars + 1)]
        lines = ["Minimize", " obj: " + " + ".join(names), "Subject To"]
        for pt, vs in zip(points, through):
            terms = " + ".join(f"x_{v}" for v in vs)
            lines.append(f" p_{'_'.join(map(str, pt))}: {terms} {rel} {inst.multiplicity}")
        lines += ["Binary", " " + " ".join(names), "End"]
    else:
        clauses = []
        for vs in through:
            clauses.append(vs)
            clauses.extend([-a, -b] for a, b in itertools.combinations(vs, 2))
        lines = [f"p cnf {n_vars} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "".join(line + "\n" for line in lines)


@given(any_pools(), st.sampled_from([(1, "exact"), (2, "exact"), (2, "at_least")]))
@settings(max_examples=150, deadline=None)
def test_export_matches_a_reference_built_from_contains(inst, demand):
    """LP for every demand and CNF for t=1 exact, byte for byte as a naive
    writer over ``DiscreteBox.contains`` spells them, on arbitrary pools
    (repeated candidates, 1-D, empty)."""
    inst = CoverInstance(inst.ambient, inst.candidates, *demand)
    assert export_model(inst, "lp") == _reference_model(inst, "lp")
    if demand == (1, "exact"):
        assert export_model(inst, "cnf") == _reference_model(inst, "cnf")


@pytest.mark.parametrize("format", ["lp", "cnf"])
def test_export_of_a_sparse_pool_at_full_size(format):
    """The 65,536 one-cell proper boxes of [2]^16, in row-major order, have
    a point each: candidate masks would take 512 MiB, so the model is built
    from the candidates' cells, within the 65,536-cell incidence."""
    inst = instance((2,) * 16, "proper_box")
    n = 1 << 16
    points = itertools.product(*([1, 2],) * 16)
    if format == "lp":
        names = [f"x_{i}" for i in range(1, n + 1)]
        rows = [f" p_{'_'.join(map(str, pt))}: {x} = 1\n" for pt, x in zip(points, names)]
        want = "".join(["Minimize\n", f" obj: {' + '.join(names)}\n", "Subject To\n", *rows,
                        "Binary\n", f" {' '.join(names)}\n", "End\n"])
    else:
        want = f"p cnf {n} {n}\n" + "".join(f"{i} 0\n" for i in range(1, n + 1))
    assert export_model(inst, format) == want


def test_oversized_masks_refused_before_the_incidence(monkeypatch):
    """40 singletons of [40]^2: 40 x 1,600 bits, 8,000 bytes of masks, against
    an ambient of 1,600 cells and an incidence of 40.  One byte under that,
    ``solve_cover`` refuses before any mask is built."""
    inst = CoverInstance(Ambient((40, 40)), tuple(DiscreteBox.of([i], [i]) for i in range(1, 41)))
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 8000)
    result = solve_cover(inst, SearchBudget())
    assert (result.best, result.proven_optimal) == (None, True)
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 7999)
    monkeypatch.setattr(search, "_axis_masks", None)
    monkeypatch.setattr(search, "_pt_masks", None)
    with pytest.raises(GeometryError) as exc:
        solve_cover(inst, SearchBudget())
    assert str(exc.value) == "the masks of a 2-axis candidate pool exceeds the 7999-cell limit"


def test_anneal_refuses_oversized_masks(monkeypatch):
    """The annealer keeps a bit per point for each candidate, as
    ``solve_cover`` does: the 40 singletons of [40]^2 (8,000 bytes of
    masks) are annealed at an 8,000-cell limit and refused one under it,
    with ``solve_cover``'s message, before any mask is built.  The meet
    masks of t=1 exact, which only ``solve_cover`` keeps, do not count."""
    inst = CoverInstance(Ambient((40, 40)), tuple(DiscreteBox.of([i], [i]) for i in range(1, 41)))
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 8000)
    assert anneal_cover(inst, SearchBudget(max_nodes=10)).nodes == 10
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 7999)
    with monkeypatch.context() as m:
        m.setattr(search, "_axis_masks", None)
        m.setattr(search, "_pt_masks", None)
        with pytest.raises(GeometryError) as exc:
            anneal_cover(inst, SearchBudget(max_nodes=10))
    assert str(exc.value) == "the masks of a 2-axis candidate pool exceeds the 7999-cell limit"
    # the 510 proper boxes of [9]: 1,020 bytes of point masks, 32,640 of meet masks
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 510 * 64 - 1)
    assert anneal_cover(instance((9,), "proper_box"), SearchBudget(max_nodes=10)).nodes == 10


def test_anneal_refuses_the_one_cell_boxes_of_a_sparse_pool(monkeypatch):
    """The 65,536 one-cell proper boxes of [2]^16, which the export writes
    from their cells, would take 512 MiB of point masks: the annealer
    refuses them before any mask is built."""
    inst = instance((2,) * 16, "proper_box")
    monkeypatch.setattr(search, "_pt_masks", None)
    with pytest.raises(GeometryError) as exc:
        anneal_cover(inst, SearchBudget(max_nodes=10))
    assert str(exc.value) == "the masks of a 16-axis candidate pool exceeds the 134217728-cell limit"


def test_meet_masks_refused_before_any_mask():
    """The 510 proper boxes of [9]: 510 x 2 bytes of point masks and 2,295
    incidence cells, but at t=1 exact a meet mask per distinct factor, 510
    x 64 bytes.  One byte under that, t=1 exact is refused before any mask
    is built, and t=2 is not."""
    inst = instance((9,), "proper_box")
    with mock.patch.object(geometry, "_CELL_LIMIT", 510 * 64):
        result = solve_cover(inst, SearchBudget())
        assert (result.best_size, result.proven_optimal) == (2, True)
    with mock.patch.object(geometry, "_CELL_LIMIT", 510 * 64 - 1):
        result = solve_cover(instance((9,), "proper_box", t=2), SearchBudget(max_nodes=50))
        assert result.best is not None
        with mock.patch.object(search, "_axis_masks", None), mock.patch.object(search, "_pt_masks", None):
            with pytest.raises(GeometryError) as exc:
                solve_cover(inst, SearchBudget())
    assert str(exc.value) == "the masks of a 1-axis candidate pool exceeds the 32639-cell limit"


def test_pool_over_a_huge_ambient_refused_at_once(monkeypatch):
    """A one-box pool over [10^5]^2 is refused before any mask or any box's
    cells are built, by every engine."""
    inst = CoverInstance(Ambient((10**5, 10**5)), (DiscreteBox.of([1], [1]),))
    monkeypatch.setattr(search, "_axis_masks", None)
    monkeypatch.setattr(search, "_pt_masks", None)
    monkeypatch.setattr(search, "_flat_cells", None)
    message = "the ambient of a 2-axis candidate pool exceeds the"
    with pytest.raises(GeometryError, match=message):
        _pool_axes(inst)
    with pytest.raises(GeometryError, match=message):
        solve_cover(inst, SearchBudget())
    with pytest.raises(GeometryError, match=message):
        anneal_cover(inst, SearchBudget(max_nodes=10))
    with pytest.raises(GeometryError, match=message):
        export_model(inst, "lp")


def test_pool_incidence_cell_limit(monkeypatch):
    """Two full boxes of [4]^2 make 32 incidence cells over a 16-cell
    ambient: one under that, every engine refuses before any mask is
    built; at it, the masks are the full ones."""
    full = DiscreteBox.of(range(1, 5), range(1, 5))
    inst = CoverInstance(Ambient((4, 4)), (full, full))
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 31)
    message = "the incidence of a 2-axis candidate pool exceeds the 31-cell limit"
    with monkeypatch.context() as m:
        m.setattr(search, "_axis_masks", None)
        m.setattr(search, "_pt_masks", None)
        m.setattr(search, "_flat_cells", None)
        for refused in (
            lambda: _pool_axes(inst),
            lambda: solve_cover(inst, SearchBudget()),
            lambda: anneal_cover(inst, SearchBudget(max_nodes=10)),
            lambda: export_model(inst, "lp"),
        ):
            with pytest.raises(GeometryError) as exc:
                refused()
            assert str(exc.value) == message
    monkeypatch.setattr(geometry, "_CELL_LIMIT", 32)
    axes, _ = _pool_axes(inst)
    assert list(_pt_masks(inst, axes)) == [(1 << 16) - 1] * 2
    assert _cand_masks(_axis_masks(inst, axes)) == [0b11] * 16


@pytest.mark.parametrize(
    "sides, predicate, t, size, nodes",
    [
        ((5, 5), "odd_proper_brick", 1, 9, 1711),
        ((3, 9), "odd_proper_brick", 1, 9, 3549),
        ((2, 3, 4), "proper_brick", 1, 8, 6237),
        ((3, 5), "proper_brick", 2, 8, 10403),
        ((3, 3), "proper_box", 3, 9, 3723),
    ],
)
def test_seed_order_node_counts(sides, predicate, t, size, nodes):
    r = solve_cover(instance(sides, predicate, t), SearchBudget())
    assert (r.best_size, r.proven_optimal, r.nodes) == (size, True, nodes)


def test_at_least_node_count():
    """In at_least mode a child keeps the demand of its points already
    covered t times, so some children pass the bulk prune and are pruned
    one by one."""
    r = solve_cover(instance((3, 3), "proper_box", 2, "at_least"), SearchBudget())
    assert (r.best_size, r.proven_optimal, r.nodes) == (5, True, 944)


# Large pools, cut by the node cap: 3,375 and 729 candidates over 125 and 64
# points, far past the random pools of the reference-tree test.
_OPB5X3_5000 = [
    0, 7, 11, 13, 14, 105, 165, 195, 210, 112, 116, 118, 119, 172, 176, 178,
    179, 202, 206, 208, 209, 217, 221, 223, 224, 1575, 2475, 2925, 3150, 1582,
    1586, 1588, 1589, 2482, 2486, 2488, 2489, 2932, 2936, 2938, 2939, 3157,
    3161, 3163, 3164, 1680, 1740, 1770, 1785, 2580, 2640, 2670, 2685, 3030,
    3090, 3120, 3135, 3255, 3315, 3345, 3360, 1687, 1691, 1693, 1694, 1747,
    1751, 1753, 1754, 1777, 1781, 1783, 1784, 1792, 1796, 1798, 1799, 2587,
    2591, 2593, 2594, 2647, 2651, 2653, 2654, 2677, 2681, 2683, 2684, 2692,
    2696, 2698, 2699, 3037, 3041, 3043, 3044, 3097, 3101, 3103, 3104, 3127,
    3132, 3142, 3147, 3262, 3267, 3337, 3342,
]
_PBR4X3_20000 = [
    0, 3, 6, 8, 27, 54, 72, 30, 33, 35, 57, 75, 60, 62, 79, 405, 410, 450, 455,
]


@pytest.mark.parametrize(
    "sides, predicate, max_nodes, selection",
    [
        ((5, 5, 5), "odd_proper_box", 5000, _OPB5X3_5000),
        ((4, 4, 4), "proper_brick", 20000, _PBR4X3_20000),
    ],
    ids=["opb5x3", "pbr4x3"],
)
def test_large_pool_node_capped_trees(sides, predicate, max_nodes, selection):
    inst = instance(sides, predicate)
    r = solve_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600))
    assert (r.best_size, r.proven_optimal, r.nodes) == (len(selection), False, max_nodes)
    assert r.best.boxes == tuple(inst.candidates[i] for i in selection)


def _milp_optimum(inst):
    """The instance's 0/1 program solved by HiGHS (``scipy.optimize.milp``),
    its rows built from ``DiscreteBox.contains``: the optimum, or None."""
    import numpy as np
    from scipy import optimize
    points = itertools.product(*(range(1, n + 1) for n in inst.ambient.sides))
    rows = np.array([[c.contains(pt) for c in inst.candidates] for pt in points], dtype=float)
    t = inst.multiplicity
    upper = t if inst.mode == "exact" else np.inf
    n = len(inst.candidates)
    res = optimize.milp(
        np.ones(n),
        constraints=optimize.LinearConstraint(rows, t, upper),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0, 1),
    )
    return None if res.status == 2 else round(res.fun)


@pytest.mark.parametrize(
    "sides, predicate, t",
    [
        # test_seed_order_node_counts and the benchmark's exact workload;
        # the first is also acceptance criterion 4's [5]^2
        ((5, 5), "odd_proper_brick", 1),
        ((3, 9), "odd_proper_brick", 1),
        ((2, 3, 4), "proper_brick", 1),
        ((3, 5), "proper_brick", 2),
        ((3, 3), "proper_box", 3),
        # acceptance criterion 4
        ((5,), "odd_proper_brick", 1),
    ],
)
def test_proven_optima_match_highs(sides, predicate, t):
    """An independent oracle for every optimum the engine proves: HiGHS
    solving the same 0/1 program, skipped when scipy is missing."""
    pytest.importorskip("scipy")
    inst = instance(sides, predicate, t)
    r = solve_cover(inst, SearchBudget())
    assert r.proven_optimal
    assert r.best_size == _milp_optimum(inst)


def test_depth_beyond_recursion_limit():
    amb = Ambient.cube(7, 4)
    singletons = tuple(
        DiscreteBox(tuple((x,) for x in pt))
        for pt in itertools.product(range(1, 8), repeat=4)
    )
    r = solve_cover(CoverInstance(amb, singletons), SearchBudget())
    assert r.best_size == 2401 and r.proven_optimal


def test_stop_reasons():
    """Each engine names the exit it took."""
    pair = instance((5, 5), "odd_proper_brick")
    big = instance((5, 5, 5), "odd_proper_box")
    assert solve_cover(pair, SearchBudget()).stop_reason == "exhausted"
    assert solve_cover(big, SearchBudget(max_nodes=50)).stop_reason == "node cap"
    assert solve_cover(big, SearchBudget(wall_seconds=1e-9)).stop_reason == "wall clock"
    assert anneal_cover(pair, SearchBudget(max_nodes=500)).stop_reason == "node cap"
    assert anneal_cover(big, SearchBudget(wall_seconds=1e-9)).stop_reason == "wall clock"
    empty = CoverInstance(Ambient((3,)), ())
    assert anneal_cover(empty, SearchBudget()).stop_reason == "exhausted"
    # a one-box cover cannot shrink: the annealer stops before its budget
    whole = CoverInstance(Ambient((3,)), (DiscreteBox.of([1, 2, 3]), DiscreteBox.of([1])))
    r = anneal_cover(whole, SearchBudget(max_nodes=10_000))
    assert (r.best_size, r.stop_reason) == (1, "exhausted") and r.nodes < 10_000


@pytest.mark.parametrize("seconds", [0.0, -1.0, math.nan])
def test_budget_seconds_must_be_positive(seconds):
    """NaN too: no elapsed time is ever past it, so no engine would stop."""
    with pytest.raises(GeometryError, match="budget fields must be positive"):
        SearchBudget(wall_seconds=seconds)


class TestAnneal:
    def test_finds_known_double_cover_optimum(self):
        r = anneal_cover(
            instance((3, 3), "proper_box", t=2),
            SearchBudget(max_nodes=200_000, wall_seconds=30, seed=1),
        )
        assert r.best_size == 6
        assert not r.proven_optimal
        assert verify_cover(r.best, 2, "exact").multiplicity_ok

    def test_deterministic_for_fixed_seed(self):
        budget = SearchBudget(max_nodes=50_000, wall_seconds=30, seed=9)
        r1 = anneal_cover(instance((3, 3), "proper_box", t=2), budget)
        r2 = anneal_cover(instance((3, 3), "proper_box", t=2), budget)
        assert r1.best == r2.best and r1.best_size == r2.best_size

    def test_empty_pool_takes_no_step(self):
        r = anneal_cover(CoverInstance(Ambient((3, 3)), ()), SearchBudget())
        assert (r.best, r.best_size, r.proven_optimal, r.nodes) == (None, math.inf, False, 0)
        assert solve_cover(CoverInstance(Ambient((3, 3)), ()), SearchBudget()).best is None

    def test_partition_instance(self):
        r = anneal_cover(
            instance((3, 3), "proper_brick"),
            SearchBudget(max_nodes=100_000, wall_seconds=30, seed=0),
        )
        assert verify_cover(r.best).is_partition


# (sides, predicate, t, mode, seed, max_nodes) -> (best_size, nodes, the
# selected pool indices in selection order, or None), as the annealer that
# _reference_anneal_cover copies returns them: a change to the random stream
# or to an accept decision shows here.
ANNEAL_PINS = [
    ((3, 3, 3), "proper_box", 2, "exact", 0, 100_000, 20, 100_000,
     [96, 138, 34, 149, 195, 7, 65, 201, 22, 2, 208, 141, 31, 108, 40, 182, 127, 170, 145, 135]),
    ((3, 3, 3), "proper_box", 2, "exact", 1, 100_000, 18, 100_000,
     [80, 167, 110, 35, 147, 193, 210, 37, 66, 207, 215, 11, 70, 131, 161, 163, 61, 9]),
    ((3, 3, 3), "proper_box", 2, "exact", 2, 100_000, 15, 100_000,
     [133, 145, 191, 134, 63, 213, 17, 40, 36, 98, 59, 73, 97, 201, 161]),
    ((3, 3, 3), "proper_box", 2, "exact", 3, 100_000, 18, 100_000,
     [13, 62, 77, 215, 144, 186, 205, 55, 148, 0, 166, 108, 175, 124, 75, 28, 209, 5]),
    ((3, 3), "proper_box", 2, "at_least", 0, 50_000, 5, 50_000, [16, 8, 25, 7, 26]),
    ((3, 3), "proper_box", 2, "at_least", 1, 50_000, 5, 50_000, [10, 14, 7, 25, 28]),
    ((3, 3, 3), "proper_brick", 1, "exact", 0, 100_000, 8, 100_000,
     [1, 76, 109, 116, 43, 29, 40, 124]),
    ((3, 3, 3), "proper_brick", 1, "exact", 1, 100_000, 8, 100_000,
     [44, 105, 108, 41, 124, 28, 121, 25]),
    ((5, 5, 5), "odd_proper_box", 1, "exact", 0, 300_000, math.inf, 300_000, None),
]


@pytest.mark.parametrize(
    "sides, predicate, t, mode, seed, max_nodes, size, nodes, selection", ANNEAL_PINS
)
def test_anneal_pinned_runs(sides, predicate, t, mode, seed, max_nodes, size, nodes, selection):
    inst = instance(sides, predicate, t, mode)
    r = anneal_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600, seed=seed))
    picked = None if r.best is None else [inst.candidates.index(b) for b in r.best.boxes]
    assert (picked, r.best_size, r.nodes) == (selection, size, nodes)


@pytest.mark.parametrize("pin", [ANNEAL_PINS[2], ANNEAL_PINS[4]], ids=["exact", "at_least"])
def test_anneal_reads_no_cells(pin, monkeypatch):
    """The annealer prices its moves from point masks: with no cell list to
    build, it walks its pinned runs."""
    monkeypatch.setattr(search, "_flat_cells", None)
    test_anneal_pinned_runs(*pin)


def _reference_anneal_cover(inst, max_nodes, seed):
    """The annealer of ``anneal_cover`` as first written, one closure call
    per point and no wall clock: returns (chosen candidate indices or None,
    best size, steps)."""
    points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
    index = {p: i for i, p in enumerate(points)}
    cand_pts = [
        tuple(index[p] for p in itertools.product(*c.factors))
        for c in inst.candidates
    ]
    rng = random.Random(seed)
    n_pts = len(points)
    n_cand = len(cand_pts)
    t = inst.multiplicity
    exact = inst.mode == "exact"
    steps = 0

    def out_of_budget():
        return steps >= max_nodes

    def point_violation(count):
        return abs(count - t) if exact else max(0, t - count)

    def find_feasible():
        nonlocal steps
        counts = [0] * n_pts
        used = [False] * n_cand
        viol = t * n_pts
        weight, temp = 3, 1.0
        while not out_of_budget():
            steps += 1
            ci = rng.randrange(n_cand)
            sign = -1 if used[ci] else 1
            dv = sum(
                point_violation(counts[p] + sign) - point_violation(counts[p])
                for p in cand_pts[ci]
            )
            delta = weight * dv + sign
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                for p in cand_pts[ci]:
                    counts[p] += sign
                used[ci] = not used[ci]
                viol += dv
                if viol == 0:
                    return [i for i in range(n_cand) if used[i]]
            temp *= 0.9995
            if temp < 0.02:
                temp = 1.0
        return None

    def shrink(selection):
        nonlocal steps
        size = len(selection) - 1
        if size == 0:
            return None
        sel = selection.copy()
        rng.shuffle(sel)
        sel = sel[:size]
        used = [False] * n_cand
        counts = [0] * n_pts
        for ci in sel:
            used[ci] = True
            for p in cand_pts[ci]:
                counts[p] += 1
        viol = sum(point_violation(c) for c in counts)
        temp, stagnation = 1.0, 0
        while not out_of_budget():
            steps += 1
            slot = rng.randrange(size)
            ci_out, ci_in = sel[slot], rng.randrange(n_cand)
            if used[ci_in]:
                continue
            dv = 0
            for p in cand_pts[ci_out]:
                dv += point_violation(counts[p] - 1) - point_violation(counts[p])
                counts[p] -= 1
            for p in cand_pts[ci_in]:
                dv += point_violation(counts[p] + 1) - point_violation(counts[p])
                counts[p] += 1
            if dv <= 0 or rng.random() < math.exp(-dv / max(temp, 1e-9)):
                used[ci_out], used[ci_in] = False, True
                sel[slot] = ci_in
                viol += dv
                if viol == 0:
                    return sel
                stagnation = 0 if dv < 0 else stagnation + 1
            else:
                for p in cand_pts[ci_in]:
                    counts[p] -= 1
                for p in cand_pts[ci_out]:
                    counts[p] += 1
                stagnation += 1
            temp *= 0.9999
            if stagnation > 15_000:
                temp, stagnation = 1.0, 0
        return None

    best = find_feasible()
    while best is not None and not out_of_budget():
        smaller = shrink(best)
        if smaller is None:
            break
        best = smaller
    return best, (math.inf if best is None else len(best)), steps


PREDICATES = ["proper_box", "proper_brick", "odd_proper_box", "odd_proper_brick"]


@st.composite
def anneal_instances(draw):
    d = draw(st.integers(1, 3))
    sides = tuple(draw(st.integers(2, 4)) for _ in range(d))
    amb = Ambient(sides)
    pool = enumerate_candidates(amb, draw(st.sampled_from(PREDICATES)))
    if draw(st.booleans()):  # a shuffled sub-pool; otherwise the whole pool
        random.Random(draw(st.integers(0, 2**16))).shuffle(pool)
        pool = pool[: draw(st.integers(1, len(pool)))]
    t = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["exact", "at_least"]))
    return CoverInstance(amb, tuple(pool), t, mode)


@given(anneal_instances(), st.integers(1, 20_000), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
# one candidate: each draw is getrandbits(1), and half of them are redrawn
@example(CoverInstance(Ambient((3,)), (DiscreteBox.of([2]),)), 500, 7)
# 64 = 2^6 candidates: getrandbits(7), and again half are redrawn
@example(instance((5, 5), "odd_proper_brick"), 20_000, 2)
# the first cover is {1}, {2}, so shrink draws its slot with size == 1 until
# it swaps in {1, 2}
@example(
    CoverInstance(
        Ambient((2,)), (DiscreteBox.of([1]), DiscreteBox.of([2]), DiscreteBox.of([1, 2]))
    ),
    200,
    8,
)
# point counts past 2t + 1, so more count planes than t has bits: 8 covers of
# a point at t=1 at_least, 10 at t=3 at_least, and in the two 1-D pools, whose
# pairs all pass through point 1, 8 at t=3 exact and 4 at t=1 exact; each
# in a shrink phase, and each run shrinks its first cover at least once
@example(instance((4, 3, 3), "proper_brick", 1, "at_least"), 2000, 737)
@example(instance((4, 3, 2), "proper_box", 3, "at_least"), 2000, 602)
@example(
    CoverInstance(
        Ambient((5,)),
        tuple(map(DiscreteBox.of, [[1, 2], [1, 3], [1, 4], [1, 5]] * 3 + [[1], [2], [3], [4], [5]] * 3
                  + [range(1, 6)] * 2)),
        3,
    ),
    10_000,
    10,
)
@example(
    CoverInstance(
        Ambient((6,)),
        tuple(map(DiscreteBox.of, [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6]] * 3
                  + [[1], [2], [3], [4], [5], [6]] * 2)),
    ),
    5000,
    89,
)
def test_anneal_follows_the_reference(inst, max_nodes, seed):
    r = anneal_cover(inst, SearchBudget(max_nodes=max_nodes, wall_seconds=600, seed=seed))
    sel, size, steps = _reference_anneal_cover(inst, max_nodes, seed)
    assert (r.best_size, r.nodes) == (size, steps)
    if sel is None:
        assert r.best is None
    else:
        assert r.best == BoxFamily(inst.ambient, tuple(inst.candidates[i] for i in sel))


class TestExport:
    def test_lp_shape(self):
        text = export_model(instance((3,), "odd_proper_box"), "lp")
        assert text.startswith("Minimize\n obj: x_1 + x_2 + x_3\n")
        assert text.endswith("Binary\n x_1 x_2 x_3\nEnd\n")
        assert text.count("p_") == 3

    def test_lp_row_and_var_counts(self):
        inst = instance((3, 3, 3), "proper_box", t=2)
        text = export_model(inst, "lp")
        assert text.count("p_") == 27
        assert text.count(" = 2") == 27
        assert f"x_{len(inst.candidates)}" in text

    def test_lp_rows_match_contains(self):
        """Each point's row lists exactly the candidates that contain it."""
        for inst in (
            instance((3,), "odd_proper_box"),
            instance((3, 3), "proper_box", t=2),
            instance((2, 2), "proper_box", t=1, mode="at_least"),
        ):
            lines = export_model(inst, "lp").splitlines()
            rows = lines[lines.index("Subject To") + 1:lines.index("Binary")]
            rel = "=" if inst.mode == "exact" else ">="
            points = list(itertools.product(*(range(1, n + 1) for n in inst.ambient.sides)))
            assert len(rows) == len(points)
            for row, pt in zip(rows, points):
                terms = " + ".join(
                    f"x_{ci + 1}" for ci, c in enumerate(inst.candidates) if c.contains(pt)
                )
                name = "p_" + "_".join(map(str, pt))
                assert row == f" {name}: {terms} {rel} {inst.multiplicity}"

    def test_cnf_counts(self):
        text = export_model(instance((3,), "odd_proper_box"), "cnf")
        header = text.splitlines()[0].split()
        assert header[:2] == ["p", "cnf"]
        assert int(header[2]) == 3
        text = export_model(instance((4, 4), "proper_box"), "cnf")
        assert text.startswith("p cnf 196 18832\n")

    def test_cnf_clauses_refused_before_building(self, monkeypatch):
        # 16 at-least-one clauses and 18,816 at-most-one pairs
        inst = instance((4, 4), "proper_box")
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 18832)
        assert export_model(inst, "cnf").startswith("p cnf 196 18832\n")
        monkeypatch.setattr(geometry, "_CELL_LIMIT", 18831)
        with mock.patch.object(search.itertools, "combinations", None):
            with pytest.raises(GeometryError, match="^the clauses of a cnf model exceeds"):
                export_model(inst, "cnf")

    def test_cnf_requires_t1_exact(self):
        with pytest.raises(GeometryError):
            export_model(instance((3, 3), "proper_box", t=2), "cnf")
        with pytest.raises(GeometryError):
            export_model(
                instance((3,), "odd_proper_box", mode="at_least"), "cnf"
            )

    def test_bad_arguments_refused_before_the_pool_is_read(self, monkeypatch):
        """An unknown format, and CNF for t > 1 or at-least mode, are refused
        before the pool's factors or masks are read."""
        monkeypatch.setattr(search, "_pool_axes", None)
        with pytest.raises(GeometryError, match="^unknown format 'mps'$"):
            export_model(instance((3,), "odd_proper_box"), "mps")
        for t, mode in [(2, "exact"), (1, "at_least")]:
            with pytest.raises(GeometryError, match="^cnf export supports only exact multiplicity 1"):
                export_model(instance((3, 3), "proper_box", t, mode), "cnf")

    def test_unknown_format(self):
        with pytest.raises(GeometryError):
            export_model(instance((3,), "odd_proper_box"), "mps")

    @pytest.mark.parametrize(
        "sides, t, mode, format, digest",
        [
            ((7, 7), 1, "exact", "lp", "18d6f18a2ae9215985c22e49f03a5e04144e2b0a7f15f0146a52b147479f772d"),
            ((3, 3, 3), 2, "at_least", "lp", "1cecbe2a878266e602fdc728c2fc708673bfdd5de14db6d6cf2a6ac18384d515"),
            ((4, 4), 1, "exact", "cnf", "cebe36b72ebb2d367bdca3893ec1e2e14976696ac203febf3f2fd51d4ef12578"),
        ],
    )
    def test_pinned_bytes(self, sides, t, mode, format, digest):
        """Proper-box models, byte for byte as the array-based pool
        incidence wrote them (sha256 of the text)."""
        text = export_model(instance(sides, "proper_box", t, mode), format)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
