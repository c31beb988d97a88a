"""Search for small covers and partitions of discrete cubes by boxes.

A cover instance fixes an ambient cube, a candidate pool of boxes, a target
multiplicity t and a mode: every ambient point must be covered exactly t
times ("exact") or at least t times ("at_least").  Partitions are the case
t=1 exact.  Three engines are provided:

* ``solve_cover``   -- complete branch-and-bound; branches on the deficit
  point with the fewest usable candidates, prunes with a cardinality bound,
  and proves optimality when the tree is exhausted; each node's state is a
  few Python-int bitmasks on its stack frame, built only for a node to expand;
* ``anneal_cover``  -- simulated annealing over candidate subsets, for
  instances out of reach of the exact engine (the 2-fold cover of [3]^3 by
  proper boxes has 216 candidates); its state is a few masks over the
  points, and results are always re-verified;
* ``export_model``  -- emits the equivalent 0/1 integer program (LP text) or
  SAT clauses (DIMACS CNF, t=1 exact only), one variable per candidate and
  one constraint per point.

No engine reads the pool through a cell list built per box.  Each builds
what it needs from the per-axis factors (``_pool_axes``): ``E[a][v - 1]``,
the mask of the candidates whose axis-a factor holds v, from their factor
numbers read in blocks of 255 (``_axis_masks``, ``_number_masks``); per
point, the candidates through it as the AND of ``E[a][p_a - 1]`` over the
axes (``_cand_masks``); per candidate, its points as the product over the
axes of its factors' spreads, whose row-major digits do not overlap, so
the product has no carries (``_pt_masks``), and its cardinality as the
product of its factors' lengths (``_cards``).  ``solve_cover`` keeps both
masks, and from ``_number_masks`` those of the candidates with at least k
points; at t=1 exact the candidates meeting a chosen one are the AND over
the axes of the ORs of ``E[a][v - 1]`` over its factors.  ``anneal_cover``
keeps the point masks and cardinalities, and each point's coverage count
as bit planes over the points; it prices a move from the candidate's mask
and the masks of the points below, at and above t, with no walk over
cells.  Both searches refuse point masks over the cell limit in bytes.
The export reads each point's candidates off its candidate mask when the
masks take no more bytes than the incidence has cells, and otherwise
scatters the candidates' cells, from geometry's one box-to-cells builder
(``_flat_cells``), into a list per point (``_point_pool``), so its work
and memory stay within the incidence; it is spelled line by line
(``_model_lines``), so the CLI writes it without holding it as one string.

Everything is single-threaded.  ``solve_cover`` walks the same tree and
returns the same result (selection, size, proof flag and node count) for the
same instance and ``max_nodes`` unless ``wall_seconds`` stops it first.
``anneal_cover`` returns the same selection and step count for the same
instance (pool order included), the same seed and a ``max_nodes`` that binds
before ``wall_seconds``; a run stopped by the wall clock ends after however
many steps the machine managed.  Its docstring lists the random draws each
step makes: a change to them changes the results.  Both search engines say
why they stopped (``SearchResult.stop_reason``): "exhausted", "node cap" or
"wall clock".
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import time
from typing import Literal, get_args

from .geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    Mode,
    Predicate,
    _Record,
    _check_cells,
    _check_demand,
    _columns,
    _distinct,
    _flat_cells,
    _gc_paused,
    _is_interval,
    _normalize_factor,
    _unchecked_boxes,
    _validate_boxes,
    verify_cover,
)

__all__ = [
    "CoverInstance",
    "SearchBudget",
    "SearchResult",
    "enumerate_candidates",
    "solve_cover",
    "anneal_cover",
    "export_model",
]

CANDIDATE_SIDE_CAP = 9

# why a search ended: it ran out of things to try, or of its node (step)
# budget, or of its wall-clock budget
StopReason = Literal["exhausted", "node cap", "wall clock"]


class CoverInstance(_Record):
    __slots__ = ("ambient", "candidates", "multiplicity", "mode")

    def __init__(
        self,
        ambient: Ambient,
        candidates: tuple[DiscreteBox, ...],
        multiplicity: int = 1,
        mode: Mode = "exact",
    ) -> None:
        _check_demand(multiplicity, mode)
        _validate_boxes(candidates, ambient)
        self._set(ambient, candidates, multiplicity, mode)


class SearchBudget(_Record):
    __slots__ = ("max_nodes", "wall_seconds", "seed")

    def __init__(
        self, max_nodes: int = 10_000_000, wall_seconds: float = 60.0, seed: int = 0
    ) -> None:
        if max_nodes < 1 or not (wall_seconds > 0):  # NaN too
            raise GeometryError("budget fields must be positive")
        self._set(max_nodes, wall_seconds, seed)


class SearchResult(_Record):
    __slots__ = ("best", "best_size", "proven_optimal", "nodes", "elapsed", "stop_reason")

    def __init__(
        self,
        best: BoxFamily | None,
        best_size: float,
        proven_optimal: bool,
        nodes: int,
        elapsed: float,
        stop_reason: StopReason,
    ) -> None:
        self._set(best, best_size, proven_optimal, nodes, elapsed, stop_reason)


@_gc_paused
def enumerate_candidates(ambient: Ambient, predicate: Predicate) -> list[DiscreteBox]:
    """All boxes in the ambient whose every factor satisfies the predicate,
    in lexicographic order (per-axis factor tuples, leftmost axis slowest),
    built with the cyclic garbage collector paused.  A pool whose boxes
    times axes, or whose total cells, would pass geometry's cell limit
    raises GeometryError before any box is built."""
    if any(n > CANDIDATE_SIDE_CAP for n in ambient.sides):
        raise GeometryError(
            f"side exceeds enumeration cap {CANDIDATE_SIDE_CAP}"
        )
    want_odd = predicate.startswith("odd_")
    want_brick = predicate.endswith("brick")
    if predicate not in get_args(Predicate):
        raise GeometryError(f"unknown predicate {predicate!r}")

    per_axis: list[list[tuple[int, ...]]] = []
    for n in ambient.sides:
        # proper: sizes below n; each factor is shared by every box below
        sizes = range(1, n, 2 if want_odd else 1)
        subsets = (s for k in sizes for s in itertools.combinations(range(1, n + 1), k))
        factors = (s for s in subsets if not want_brick or _is_interval(s))
        per_axis.append(sorted(map(_normalize_factor, factors)))
    what = f"a {ambient.dim}-axis candidate pool"
    _check_cells([*map(len, per_axis), ambient.dim], what)
    _check_cells([sum(map(len, fs)) for fs in per_axis], f"the incidence of {what}")
    # factors from _normalize_factor
    return list(_unchecked_boxes(itertools.product(*per_axis), math.prod(map(len, per_axis))))


def _pool_axes(instance: CoverInstance, masks: bool = False, meets: bool = False):
    """Per axis, the distinct factors of the candidates on it and each
    candidate's number among them (geometry's ``_distinct``), and the
    pool's incidence (the candidates' total cells).  Refuses with
    GeometryError, before any mask or cell is built, an ambient, the point
    masks when asked for (``masks``: both searches', a bit per point for
    each candidate), the meet masks when asked for (``meets``:
    ``solve_cover``'s at t=1 exact, a bit per candidate for each distinct
    factor on each axis) or an incidence over geometry's cell limit."""
    sides = instance.ambient.sides
    what = f"a {len(sides)}-axis candidate pool"
    n_pts = _check_cells(sides, f"the ambient of {what}")
    n_cand = len(instance.candidates)
    if masks:
        _check_cells([n_cand, -(-n_pts // 8)], f"the masks of {what}")
    axes = list(map(_distinct, _columns(instance.candidates, len(sides))))
    if meets:
        rows = sum(len(distinct) for distinct, _ in axes)
        _check_cells([rows, -(-n_cand // 8)], f"the masks of {what}")
    incidence = _check_cells([sum(_cards(axes))], f"the incidence of {what}")
    return axes, incidence


def _cards(axes):
    """Per candidate, as the iterator is read, its number of cells from
    ``_pool_axes``: the product of its factors' lengths."""
    lengths = [map([*map(len, distinct)].__getitem__, which) for distinct, which in axes]
    return functools.reduce(functools.partial(map, operator.mul), lengths)


def _number_masks(numbers: list[int], count: int, groups: list) -> list[int]:
    """Per group (a set or range of numbers below ``count``), the mask of the
    items whose number is in it.  The numbers are read 255 at a time, a byte
    per item: its number less the block's first, or 255 for another block's.
    Each block and group is then one ``bytes.translate`` to the binary digits
    of the group's mask there, so no item costs a Python step."""
    masks, digits = [0] * len(groups), bytes.maketrans(b"\0\1", b"01")
    for base in range(0, count, 255):
        spell = [255] * base + [*range(255)] + [255] * count
        block = bytes(map(spell.__getitem__, reversed(numbers)))  # the last item first
        for j, group in enumerate(groups):
            # a digit per number of the block, and "0" for 255
            table = bytes(map(group.__contains__, range(base, min(base + 255, count))))
            table = table.translate(digits).ljust(256, b"0")
            masks[j] |= int(block.translate(table) or b"0", 2)
    return masks


def _axis_masks(instance: CoverInstance, axes) -> list[list[int]]:
    """``E[a][v - 1]``: the mask of the candidates whose axis-a factor holds
    v, from ``_pool_axes``: ``_number_masks`` of their factor numbers, with a
    group per v, the factors that hold it."""
    masks = []
    for (distinct, which), n in zip(axes, instance.ambient.sides):
        holders: list[set[int]] = [set() for _ in range(n)]
        for i, f in enumerate(distinct):
            for v in f:
                holders[v - 1].add(i)
        masks.append(_number_masks(which, len(distinct), holders))
    return masks


def _cand_masks(axis_masks: list[list[int]]) -> list[int]:
    """Per point, row-major, the mask of the candidates through it: the AND
    over the axes of ``E[a][p_a - 1]``."""
    masks = axis_masks[0]
    for row in axis_masks[1:]:
        masks = [m & e for m in masks for e in row]
    return masks


def _pt_masks(instance: CoverInstance, axes):
    """Per candidate, in pool order and as the iterator is read, the mask of
    its points (bit p for row-major point p), from ``_pool_axes``: the
    product over the axes of ``spread(f) = sum of 2^((v - 1) * stride)``
    over its factor f.  The axes' digits fall on disjoint positions, so the
    product has no carries."""
    sides = instance.ambient.sides
    columns = []
    for a, (distinct, which) in enumerate(axes):
        stride = math.prod(sides[a + 1:])
        spreads = [sum(1 << (v - 1) * stride for v in f) for f in distinct]
        columns.append(map(spreads.__getitem__, which))
    return functools.reduce(functools.partial(map, operator.mul), columns)


_ONES = bytes.maketrans(b"01", b"\0\1")


def _ones(mask: int, width: int) -> bytes:
    """A mask's ``width`` low bits, bit 0 first, as bytes 0 and 1: the
    selectors that ``itertools.compress`` needs."""
    return format(mask, f"0{width}b")[::-1].encode().translate(_ONES)


def _point_pool(instance: CoverInstance, axes, incidence: int):
    """Per point, row-major, an entry naming the candidates through it,
    from ``_pool_axes``, and the two functions that read an entry:
    ``count(entry)``, their number, and ``pick(seq, entry)``, the items of
    ``seq`` (one per candidate) at them in pool order.  A dense pool, whose
    masks (a bit per point and candidate) take no more bytes than its
    incidence has cells, gives each point's candidate mask, read with
    ``itertools.compress``; a sparser one scatters each candidate's cells
    (geometry's ``_flat_cells``) into a list per point.  Either way the
    entries and the work stay within the incidence."""
    n_cand, n_pts = len(instance.candidates), instance.ambient.volume
    if n_pts * -(-n_cand // 8) <= incidence:
        entries = _cand_masks(_axis_masks(instance, axes))
        return entries, int.bit_count, lambda seq, m: itertools.compress(seq, _ones(m, n_cand))
    entries = [[] for _ in range(n_pts)]
    keys, cells = _flat_cells(*zip(*axes), instance.ambient.sides)
    for ci, key in enumerate(keys):
        for p in cells[key]:
            entries[p].append(ci)
    return entries, len, lambda seq, cs: map(seq.__getitem__, cs)


def _verified_result(
    instance: CoverInstance,
    selection: list[int] | None,
    proven: bool,
    nodes: int,
    start: float,
    stop: StopReason,
) -> SearchResult:
    """The result for the candidates at ``selection`` (None: nothing found)
    of a search begun at ``start`` and ended for ``stop``, re-verified
    against the instance."""
    elapsed = time.monotonic() - start
    if selection is None:
        return SearchResult(None, math.inf, proven, nodes, elapsed, stop)
    # every candidate of a checked instance fits its ambient
    family = BoxFamily._trusted(
        instance.ambient, tuple(instance.candidates[ci] for ci in selection)
    )
    report = verify_cover(family, instance.multiplicity, instance.mode)
    if not report.multiplicity_ok:
        raise GeometryError("internal error: search result failed verification")
    return SearchResult(family, float(len(selection)), proven, nodes, elapsed, stop)


def solve_cover(instance: CoverInstance, budget: SearchBudget) -> SearchResult:
    """Complete branch-and-bound minimizing the number of chosen candidates.

    Branching: pick the deficit point with the fewest usable candidates
    (the lowest-numbered one on a tie) and try each in pool order, banning
    a candidate before its branch (so subsets are explored once).  A
    candidate is usable when it is not banned and, in exact mode, it would
    not push any point above the multiplicity.  Pruning: chosen +
    ceil(remaining demand / largest candidate cardinality) must beat the
    incumbent.

    The state of a node is a few immutable ints kept on its stack frame:
    the coverage levels (``levels[k]`` has a bit per point covered more
    than k times, for k below t; no point is covered more than once per
    candidate, so the levels past the pool size, always empty, are not
    kept, and a huge t costs nothing), the ``gone`` mask of candidates that
    are banned or, in exact mode, pass through a point already covered t
    times, and the remaining demand.  A child's state is computed from its
    parent's with a few ORs and ANDs per level, so backtracking is a pop
    with nothing to undo, and the tree is walked with an explicit stack, so
    its depth is not bounded by the recursion limit.  A child's demand is
    known from its parent's, so a leaf or pruned child is counted and
    settled in the option loop without a state.  It falls by at most the
    candidate's cardinality: a run of options with fewer than the parent's
    demand - max_card * (incumbent - child's chosen - 1) points is pruned,
    banned and counted in one step (stopping at exactly ``max_nodes``).

    ``proven_optimal`` is true iff the tree was exhausted inside the budget;
    an infeasible instance yields best None, best_size infinity, proven.
    ``stop_reason`` is "exhausted", "node cap" or "wall clock".  Masks over
    the cell limit in bytes (``_pool_axes``) are refused.
    """
    t = instance.multiplicity
    exact = instance.mode == "exact"
    axes, _ = _pool_axes(instance, masks=True, meets=exact and t == 1)
    n_pts, n_cand = instance.ambient.volume, len(instance.candidates)
    # per candidate its points as a mask, and their number; per point the
    # candidates through it as a mask
    axis_masks = _axis_masks(instance, axes)
    pt_mask = list(_pt_masks(instance, axes))
    card = list(_cards(axes))
    cand_mask = _cand_masks(axis_masks)
    # t=1 exact: per axis and distinct factor, the candidates whose factor
    # there meets it; per candidate those masks of its factors, one an
    # axis, whose AND is the candidates that share a point with it
    meets = [
        [functools.reduce(int.__or__, [e[v - 1] for v in f]) for f in distinct]
        for e, (distinct, _) in zip(axis_masks, axes)
    ] if exact and t == 1 else []
    meet_rows = list(zip(*(map(m.__getitem__, which) for m, (_, which) in zip(meets, axes))))
    everyone = (1 << n_cand) - 1
    max_card = max(card, default=1)
    # card_ge[k]: the candidates with k points or more
    at_least = [range(k, max_card + 1) for k in range(max_card + 1)]
    card_ge = _number_masks(card, max_card + 1, at_least)
    # a bitmask's digits, point 0 first, read as 1 for each point it lacks
    width, unset = f"0{n_pts}b", bytes.maketrans(b"01", b"\1\0")

    levels = (0,) * min(t, n_cand + 1)
    gone = 0
    demand = t * n_pts
    # no incumbent yet: a size above any depth + bound, so nothing is pruned
    best = n_cand + demand + 1
    best_sel: list[int] | None = None
    max_nodes, wall_seconds, monotonic = budget.max_nodes, budget.wall_seconds, time.monotonic
    start = monotonic()
    nodes, stop = 1, ("node cap" if max_nodes == 1 else None)  # the root: never pruned
    # one frame per open node: [levels, gone (with the node's own bans),
    # demand, options left to try, the option being tried below it]
    stack: list[list] = []
    while not stop:
        # the node (levels, gone, demand) is counted; its pivot: the first
        # deficit point with the fewest usable candidates; none is fewer than 0
        free = everyone ^ gone
        fewest = n_cand + 1
        deficit = format(levels[-1], width)[::-1].encode().translate(unset)
        for p in itertools.compress(range(n_pts), deficit):
            n_opts = (cand_mask[p] & free).bit_count()
            if n_opts < fewest:
                fewest, pivot = n_opts, p
                if not n_opts:
                    break
        if fewest:
            stack.append([levels, gone, demand, cand_mask[pivot] & free, -1])
        # try the deepest open node's options, closing those used up; settle
        # leaves and pruned children here, and build only a child to expand
        while stack:
            frame = stack[-1]
            options = frame[3]
            if not options:
                stack.pop()
                continue
            depth = len(stack)
            # a child's demand falls by at most card[ci]: the run of options
            # with fewer than need points makes pruned children
            need = frame[2] - max_card * (best - depth - 1)
            keep = options if need <= 0 else options & card_ge[need] if need <= max_card else 0
            pruned = options & ((keep & -keep) - 1)
            if pruned:
                frame[1] |= pruned
                frame[3] = options ^ pruned
                nodes += pruned.bit_count()
            else:
                low = options & -options
                ci = low.bit_length() - 1
                frame[3] = options ^ low
                # ban before descending: a candidate may be used at most once
                frame[1] |= low
                frame[4] = ci
                # less ci's points not yet covered t times (in exact mode, all)
                demand = frame[2] - card[ci] + (frame[0][-1] & pt_mask[ci]).bit_count()
                nodes += 1
            if nodes >= max_nodes:
                nodes, stop = max_nodes, "node cap"
                break
            if monotonic() - start > wall_seconds:
                stop = "wall clock"
                break
            if pruned or depth + -(-demand // max_card) >= best:
                continue
            if not demand:  # a leaf that beats the incumbent
                best, best_sel = depth, [frame[4] for frame in stack]
                continue
            # one more cover on ci's points, capped at t: the points at
            # level k rise to level k + 1
            m = pt_mask[ci]
            gone = frame[1]
            if exact and t == 1:  # all of ci's points become full
                levels = (frame[0][0] | m,)
                gone |= functools.reduce(int.__and__, meet_rows[ci])
                break
            carry, lifted = m, []
            for level in frame[0]:
                lifted.append(level | carry)
                carry = level & m
            if exact:
                full = lifted[-1] ^ frame[0][-1]
                while full:
                    low = full & -full
                    gone |= cand_mask[low.bit_length() - 1]
                    full ^= low
            levels = tuple(lifted)
            break
        else:  # the root's options are used up: the tree is exhausted
            stop = "exhausted"

    return _verified_result(instance, best_sel, stop == "exhausted", nodes, start, stop)


def anneal_cover(instance: CoverInstance, budget: SearchBudget) -> SearchResult:
    """Simulated annealing over subsets of the candidate pool.

    Two alternating move regimes share the step budget.  First, add/remove
    moves with energy (violation * weight + size) hunt for any feasible
    selection; violation is |count - t| per point in exact mode and the
    shortfall in at_least mode.  Once a feasible selection is known the
    annealer repeatedly drops one box and runs swap moves at the reduced
    size until the violation anneals back to zero, shrinking the incumbent
    one box at a time until the budget runs out.  Geometric cooling with
    reheating on stagnation.  The best feasible state is re-verified before
    being reported; ``proven_optimal`` is always false.  An empty pool
    returns best None after no step.  ``stop_reason`` is "exhausted" only
    for an empty pool or a one-box incumbent, and otherwise names the
    budget that ran out.

    The state is a few masks over the points.  Each point's coverage count
    is kept as bit planes (plane j: the points whose count has bit j set),
    which a move changes by adding or subtracting the box's point mask with
    a ripple carry or borrow; after each accepted move one comparison of
    the planes with t's bits gives the points ``below``, ``at`` and
    ``above`` t.  A move is priced from those masks, with no walk over the
    box's cells: adding box c changes the violation by ``card[c] - 2|m_c &
    below|`` (exact) or ``-|m_c & below|`` (at_least), removing it by
    ``card[c] - 2|m_c & above|`` (exact) or ``card[c] - |m_c & above|``
    (at_least), and a swap prices its incoming box against the points
    below t once the outgoing one is out, ``below | (m_out & at)``; a
    rejected move changes nothing.  Point masks over the cell limit in
    bytes (``_pool_axes``) are refused, as by ``solve_cover``.

    Every draw comes from ``random.Random(budget.seed)``: an add/remove
    step draws ``randrange(len(pool))``; a swap step draws ``randrange(size)``
    for the outgoing slot, then ``randrange(len(pool))`` for the incoming
    candidate, and ends there, still counted, when that candidate is already
    chosen; either draws ``random()`` only when the move makes the energy
    worse; each shrink begins with one ``shuffle`` of the incumbent.  Each
    ``randrange(m)`` is made inline as ``getrandbits(m.bit_length())``,
    redrawn while the value is ``>= m``: that is how ``randrange(m)`` draws
    on CPython 3.10 and 3.11, so the stream and the results are those of
    ``randrange``.  Given the same instance (pool order included), the same
    seed and a ``max_nodes`` that binds before ``wall_seconds``, it returns
    the same selection and step count.
    """
    rng = random.Random(budget.seed)
    bits, uniform, exp, monotonic = rng.getrandbits, rng.random, math.exp, time.monotonic
    axes, _ = _pool_axes(instance, masks=True)
    # per candidate its points as a mask, and their number
    pt_mask = list(_pt_masks(instance, axes))
    card = list(_cards(axes))
    n_pts = instance.ambient.volume
    n_cand = len(pt_mask)
    k_cand = n_cand.bit_length()
    t = instance.multiplicity
    exact = instance.mode == "exact"
    max_nodes, wall_seconds = budget.max_nodes, budget.wall_seconds
    start = monotonic()
    steps = 0
    if not n_cand:
        return _verified_result(instance, None, False, 0, start, "exhausted")

    # a move's change in violation: adding c, gain[c] - k|m_c & below|;
    # removing it, card[c] - k|m_c & above|
    k = 2 if exact else 1
    gain = card if exact else [0] * n_cand
    everyone = (1 << n_pts) - 1
    high = t.bit_length()  # a bit past t's puts a point above t

    def add(planes: list[int], m: int) -> None:
        """One more cover on m's points: a ripple carry up the planes."""
        for j, plane in enumerate(planes):
            planes[j] = plane ^ m
            m &= plane
            if not m:
                return
        planes.append(m)

    def sub(planes: list[int], m: int) -> None:
        """One cover fewer on m's points (each covered at least once): a
        ripple borrow up the planes."""
        for j, plane in enumerate(planes):
            plane ^= m
            planes[j] = plane
            m &= plane
            if not m:
                return

    def classes(planes: list[int]) -> tuple[int, int, int]:
        """The points covered fewer than, exactly and more than t times,
        from the planes past t's bits and then t's bits, highest first."""
        above, below = functools.reduce(int.__or__, planes[high:], 0), 0
        at = everyone ^ above
        for j in reversed(range(high)):
            has = at & planes[j]
            if t >> j & 1:
                below |= at ^ has
                at = has
            else:
                above |= has
                at ^= has
        return below, at, above

    def find_feasible() -> list[int] | None:
        nonlocal steps
        planes = [0] * high
        used = [False] * n_cand
        below, _, above = classes(planes)
        viol = t * n_pts
        weight, temp = 3, 1.0
        while steps < max_nodes and not (monotonic() - start > wall_seconds):
            steps += 1
            ci = bits(k_cand)
            while ci >= n_cand:
                ci = bits(k_cand)
            m = pt_mask[ci]
            if used[ci]:
                sign, dv = -1, card[ci] - k * (m & above).bit_count()
            else:
                sign, dv = 1, gain[ci] - k * (m & below).bit_count()
            delta = weight * dv + sign
            # temp >= 0.02 here: it is reset to 1 below that
            if delta <= 0 or uniform() < exp(-delta / temp):
                (add if sign > 0 else sub)(planes, m)
                below, _, above = classes(planes)
                used[ci] = not used[ci]
                viol += dv
                if viol == 0:
                    return [i for i in range(n_cand) if used[i]]
            temp *= 0.9995
            if temp < 0.02:
                temp = 1.0
        return None

    def shrink(selection: list[int]) -> list[int] | None:
        """Try to find a feasible selection one box smaller; swap moves at
        fixed size until the violation reaches zero or the budget ends."""
        nonlocal steps
        size = len(selection) - 1
        k_size = size.bit_length()
        sel = selection.copy()
        rng.shuffle(sel)
        sel = sel[:size]
        used = [False] * n_cand
        planes = [0] * high
        below, at, above = classes(planes)
        viol = t * n_pts
        for ci in sel:  # each box priced as it is added
            used[ci] = True
            viol += gain[ci] - k * (pt_mask[ci] & below).bit_count()
            add(planes, pt_mask[ci])
            below, at, above = classes(planes)
        temp, stagnation = 1.0, 0
        while steps < max_nodes and not (monotonic() - start > wall_seconds):
            steps += 1
            slot = bits(k_size)
            while slot >= size:
                slot = bits(k_size)
            ci_in = bits(k_cand)
            while ci_in >= n_cand:
                ci_in = bits(k_cand)
            if used[ci_in]:
                continue
            # the outgoing box priced as a removal, the incoming one against
            # the points below t without it
            ci_out = sel[slot]
            m_out, m_in = pt_mask[ci_out], pt_mask[ci_in]
            dv = (
                card[ci_out] - k * (m_out & above).bit_count()
                + gain[ci_in] - k * (m_in & (below | m_out & at)).bit_count()
            )
            if dv <= 0 or uniform() < exp(-dv / (temp if temp > 1e-9 else 1e-9)):
                sub(planes, m_out)
                add(planes, m_in)
                below, at, above = classes(planes)
                used[ci_out], used[ci_in] = False, True
                sel[slot] = ci_in
                viol += dv
                if viol == 0:
                    return sel
                stagnation = 0 if dv < 0 else stagnation + 1
            else:
                stagnation += 1
            temp *= 0.9999
            if stagnation > 15_000:
                temp, stagnation = 1.0, 0
        return None

    best_feasible = find_feasible()
    # a one-box incumbent has nothing left to shrink; any other exit is the
    # budget's
    while (
        best_feasible is not None
        and len(best_feasible) > 1
        and steps < max_nodes
        and not (monotonic() - start > wall_seconds)
    ):
        smaller = shrink(best_feasible)
        if smaller is None:
            break
        best_feasible = smaller
    if best_feasible is not None and len(best_feasible) == 1:
        stop = "exhausted"
    else:
        stop = "node cap" if steps >= max_nodes else "wall clock"

    return _verified_result(instance, best_feasible, False, steps, start, stop)


# ---------------------------------------------------------------------------
# model export

def export_model(instance: CoverInstance, format: Literal["lp", "cnf"]) -> str:
    """Emit the 0/1 program for the instance: one binary variable per
    candidate (in pool order), one constraint per ambient point.  An
    unknown format, a CNF model other than t=1 exact, and a CNF model whose
    clause count passes geometry's cell limit raise GeometryError before
    any text is built; so do the refusals of the pool (``_pool_axes``)."""
    return "".join(_model_lines(instance, format))


def _model_lines(instance: CoverInstance, format: str):
    """``export_model``'s text as an iterator of strings (a line each, or
    for CNF a point's clauses), after every refusal: nothing that it
    refuses reaches the iterator.  Each point's candidates come from
    ``_point_pool``, so the cost stays within the pool's incidence."""
    t, exact = instance.multiplicity, instance.mode == "exact"
    if format not in ("lp", "cnf"):
        raise GeometryError(f"unknown format {format!r}")
    if format == "cnf" and (t != 1 or not exact):
        raise GeometryError(
            "cnf export supports only exact multiplicity 1 "
            "(no cardinality encoding is provided)"
        )
    n_vars = len(instance.candidates)
    through, count, pick = _point_pool(instance, *_pool_axes(instance))

    if format == "lp":
        rel = "=" if exact else ">="
        names = [f"x_{i + 1}" for i in range(n_vars)]
        points = itertools.product(*(range(1, n + 1) for n in instance.ambient.sides))
        rows = (
            f" p_{'_'.join(map(str, pt))}: {' + '.join(pick(names, cs))} {rel} {t}\n"
            for pt, cs in zip(points, through)
        )
        head = ["Minimize\n", f" obj: {' + '.join(names)}\n", "Subject To\n"]
        return itertools.chain(head, rows, ["Binary\n", f" {' '.join(names)}\n", "End\n"])

    # one at-least-one clause per point and one at-most-one clause per pair
    sizes = list(map(count, through))
    n_clauses = len(sizes) + sum(math.comb(k, 2) for k in sizes)
    _check_cells([n_clauses], "the clauses of a cnf model")
    var = [str(i + 1) for i in range(n_vars)]
    neg = ["-" + v for v in var]

    def clauses():
        yield f"p cnf {n_vars} {n_clauses}\n"
        for cs in through:
            yield " ".join(pick(var, cs)) + " 0\n"
            pairs = itertools.combinations(pick(neg, cs), 2)
            yield "".join(itertools.starmap("{} {} 0\n".format, pairs))

    return clauses()
