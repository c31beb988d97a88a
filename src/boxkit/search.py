"""Search for small covers and partitions of discrete cubes by boxes.

A cover instance fixes an ambient cube, a candidate pool of boxes, a target
multiplicity t and a mode: every ambient point must be covered exactly t
times ("exact") or at least t times ("at_least").  Partitions are the case
t=1 exact.  Three engines are provided:

* ``solve_cover``   -- complete branch-and-bound; branches on the deficit
  point with the fewest usable candidates, prunes with a cardinality bound,
  and proves optimality when the tree is exhausted; each node's state is a
  few Python-int bitmasks on its stack frame, so backtracking undoes nothing;
* ``anneal_cover``  -- simulated annealing over candidate subsets, for
  instances out of reach of the exact engine (the 2-fold cover of [3]^3 by
  proper boxes has 216 candidates); results are always re-verified;
* ``export_model``  -- emits the equivalent 0/1 integer program (LP text) or
  SAT clauses (DIMACS CNF, t=1 exact only), one variable per candidate and
  one constraint per point.

All three read the pool as geometry's box->cell incidence (``_pool_incidence``).
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

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Literal, get_args

from .geometry import (
    Ambient,
    BoxFamily,
    DiscreteBox,
    GeometryError,
    Mode,
    _check_cells,
    _check_demand,
    _factor_csr,
    _incidence,
    _is_interval,
    _normalize_factor,
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

Predicate = Literal[
    "odd_proper_box", "proper_box", "odd_proper_brick", "proper_brick"
]
# why a search ended: it ran out of things to try, or of its node (step)
# budget, or of its wall-clock budget
StopReason = Literal["exhausted", "node cap", "wall clock"]


@dataclass(frozen=True)
class CoverInstance:
    ambient: Ambient
    candidates: tuple[DiscreteBox, ...]
    multiplicity: int = 1
    mode: Mode = "exact"

    def __post_init__(self) -> None:
        _check_demand(self.multiplicity, self.mode)
        _validate_boxes(self.candidates, self.ambient)


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    wall_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or not (self.wall_seconds > 0):  # NaN too
            raise GeometryError("budget fields must be positive")


@dataclass(frozen=True)
class SearchResult:
    best: BoxFamily | None
    best_size: float
    proven_optimal: bool
    nodes: int
    elapsed: float
    stop_reason: StopReason


def enumerate_candidates(ambient: Ambient, predicate: Predicate) -> list[DiscreteBox]:
    """All boxes in the ambient whose every factor satisfies the predicate,
    in lexicographic order (per-axis factor tuples, leftmost axis slowest).
    A pool whose boxes times axes, or whose total cells, would pass
    geometry's cell limit raises GeometryError before any box is built."""
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
    return list(map(DiscreteBox._canonical, itertools.product(*per_axis)))


def _pool_incidence(instance: CoverInstance):
    """The pool as flat point indices: per candidate, the row-major index of
    each of its points (in ``itertools.product`` order), and per point, the
    candidates covering it in pool order.  An ambient or incidence over
    geometry's cell limit raises GeometryError before it is allocated."""
    import numpy as np

    sides = instance.ambient.sides
    what = f"a {len(sides)}-axis candidate pool"
    _check_cells(sides, f"the ambient of {what}")
    csr = _factor_csr(instance.candidates, len(sides))
    ends = np.cumsum(csr[2].prod(axis=1)).tolist()
    _check_cells(ends[-1:], f"the incidence of {what}")
    batches = _incidence(csr, sides, list(range(len(sides))))
    flat = np.concatenate([f for f, _ in batches]).tolist()
    cand_pts = [tuple(flat[i:j]) for i, j in zip([0, *ends], ends)]
    covers_point: list[list[int]] = [[] for _ in range(math.prod(sides))]
    for ci, pts in enumerate(cand_pts):
        for p in pts:
            covers_point[p].append(ci)
    return cand_pts, covers_point


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
    family = BoxFamily(
        instance.ambient, tuple(instance.candidates[ci] for ci in selection)
    )
    report = verify_cover(family, instance.multiplicity, instance.mode)
    if not report.multiplicity_ok:
        raise GeometryError("internal error: search result failed verification")
    return SearchResult(family, float(len(selection)), proven, nodes, elapsed, stop)


def _bitmasks(rows, width: int) -> list[int]:
    """One int per row with bit i set for each index i in the row (all
    below ``width``), read from a bytearray of binary digits, so that the
    cost is the rows' total length plus one width per row (summing
    ``1 << i`` would be quadratic in the width)."""
    masks = []
    for row in rows:
        digits = bytearray(b"0") * (width + 1)  # one more: never empty
        for i in row:
            digits[i] = 49  # "1"
        masks.append(int(digits[::-1], 2))
    return masks


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
    than k times, capped at t), the ``gone`` mask of candidates that are
    banned or, in exact mode, pass through a point already covered t times,
    and the remaining demand.  A child's state is computed from its
    parent's with a few ORs and ANDs per level, so backtracking is a pop
    with nothing to undo, and the tree is walked with an explicit stack, so
    its depth is not bounded by the recursion limit.

    ``proven_optimal`` is true iff the tree was exhausted inside the budget;
    an infeasible instance yields best None, best_size infinity, proven.
    ``stop_reason`` is "exhausted", "node cap" or "wall clock".  Masks over
    the cell limit in bytes (a bit per candidate and point) are refused.
    """
    what = f"a {instance.ambient.dim}-axis candidate pool"
    n_pts = _check_cells(instance.ambient.sides, f"the ambient of {what}")
    _check_cells([len(instance.candidates), -(-n_pts // 8)], f"the masks of {what}")
    cand_pts, covers_point = _pool_incidence(instance)
    t = instance.multiplicity
    exact = instance.mode == "exact"
    # per candidate its points as a mask, and their number; per point the
    # candidates through it as a mask, and their number
    pt_mask = _bitmasks(cand_pts, n_pts)
    card = list(map(len, cand_pts))
    cand_mask = _bitmasks(covers_point, len(cand_pts))
    n_covers = list(map(len, covers_point))
    max_card = max(card, default=1)
    # a bitmask's digits, point 0 first, read as 1 for each point it lacks
    width, unset = f"0{n_pts}b", bytes.maketrans(b"01", b"\1\0")

    levels = (0,) * t
    gone = 0
    demand = t * n_pts
    best_size: float = math.inf
    best_sel: list[int] | None = None
    nodes = 0
    max_nodes, wall_seconds, monotonic = budget.max_nodes, budget.wall_seconds, time.monotonic
    start = monotonic()
    stop = "exhausted"
    # one frame per open node: [levels, gone (with the node's own bans),
    # demand, options left to try, the option being tried below it]
    stack: list[list] = []
    while True:
        nodes += 1
        if nodes >= max_nodes:
            stop = "node cap"
            break
        if monotonic() - start > wall_seconds:
            stop = "wall clock"
            break
        if demand == 0:
            if len(stack) < best_size:
                best_size = len(stack)
                best_sel = [frame[4] for frame in stack]
        elif len(stack) + -(-demand // max_card) < best_size:
            # the pivot: the first deficit point with the fewest usable
            # candidates; none is fewer than 0
            fewest = len(cand_pts) + 1
            deficit = format(levels[-1], width)[::-1].encode().translate(unset)
            for p in itertools.compress(range(n_pts), deficit):
                n_opts = n_covers[p] - (cand_mask[p] & gone).bit_count()
                if n_opts < fewest:
                    fewest, pivot = n_opts, p
                    if not n_opts:
                        break
            if fewest:
                options = cand_mask[pivot] & ~gone
                stack.append([levels, gone, demand, options, -1])
        # descend into the next option of the deepest open node, closing
        # the nodes whose options are used up
        while stack:
            frame = stack[-1]
            options = frame[3]
            if options:
                low = options & -options
                ci = low.bit_length() - 1
                frame[3] = options ^ low
                # ban before descending: a candidate may be used at most once
                frame[1] |= low
                frame[4] = ci
                # one more cover on ci's points, capped at t: the points at
                # level k rise to level k + 1
                m = pt_mask[ci]
                carry, lifted = m, []
                for level in frame[0]:
                    lifted.append(level | carry)
                    carry = level & m
                # carry: ci's points already covered t times, no demand
                demand = frame[2] - card[ci] + carry.bit_count()
                gone = frame[1]
                if exact:
                    full = lifted[-1] ^ frame[0][-1]
                    while full:
                        low = full & -full
                        gone |= cand_mask[low.bit_length() - 1]
                        full ^= low
                levels = tuple(lifted)
                break
            stack.pop()
        else:  # the root's options are used up: the tree is exhausted
            break

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

    Every draw comes from ``random.Random(budget.seed)``: an add/remove
    step draws ``randrange(len(pool))``; a swap step draws ``randrange(size)``
    for the outgoing slot, then ``randrange(len(pool))`` for the incoming
    candidate, and ends there, still counted, when that candidate is already
    chosen; either draws ``random()`` only when the move makes the energy
    worse; each shrink begins with one ``shuffle`` of the incumbent.  Given
    the same instance (pool order included), the same seed and a
    ``max_nodes`` that binds before ``wall_seconds``, it returns the same
    selection and step count.
    """
    rng = random.Random(budget.seed)
    randrange, uniform, exp, monotonic = rng.randrange, rng.random, math.exp, time.monotonic
    cand_pts, covers_point = _pool_incidence(instance)
    n_pts = len(covers_point)
    n_cand = len(cand_pts)
    t = instance.multiplicity
    exact = instance.mode == "exact"
    max_nodes, wall_seconds = budget.max_nodes, budget.wall_seconds
    start = monotonic()
    steps = 0
    if not n_cand:
        return _verified_result(instance, None, False, 0, start, "exhausted")

    def point_violation(count: int) -> int:
        return abs(count - t) if exact else max(0, t - count)

    # the change in a point's violation when its count c goes up (up[c]) or
    # down (down[c]) by one; no count passes the point's number of covers
    top = max(map(len, covers_point)) + 2
    up = [point_violation(c + 1) - point_violation(c) for c in range(top)]
    down = [point_violation(c - 1) - point_violation(c) for c in range(top)]

    def find_feasible() -> list[int] | None:
        nonlocal steps
        counts = [0] * n_pts
        used = [False] * n_cand
        viol = t * n_pts
        weight, temp = 3, 1.0
        while steps < max_nodes and not (monotonic() - start > wall_seconds):
            steps += 1
            ci = randrange(n_cand)
            pts = cand_pts[ci]
            if used[ci]:
                sign, table = -1, down
            else:
                sign, table = 1, up
            dv = 0
            for p in pts:
                dv += table[counts[p]]
            delta = weight * dv + sign
            # temp >= 0.02 here: it is reset to 1 below that
            if delta <= 0 or uniform() < exp(-delta / temp):
                for p in pts:
                    counts[p] += sign
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
        while steps < max_nodes and not (monotonic() - start > wall_seconds):
            steps += 1
            slot = randrange(size)
            ci_out, ci_in = sel[slot], randrange(n_cand)
            if used[ci_in]:
                continue
            # take the outgoing box out; the incoming one is only priced
            out_pts, in_pts = cand_pts[ci_out], cand_pts[ci_in]
            dv = 0
            for p in out_pts:
                c = counts[p]
                dv += down[c]
                counts[p] = c - 1
            for p in in_pts:
                dv += up[counts[p]]
            if dv <= 0 or uniform() < exp(-dv / (temp if temp > 1e-9 else 1e-9)):
                for p in in_pts:
                    counts[p] += 1
                used[ci_out], used[ci_in] = False, True
                sel[slot] = ci_in
                viol += dv
                if viol == 0:
                    return sel
                stagnation = 0 if dv < 0 else stagnation + 1
            else:
                for p in out_pts:
                    counts[p] += 1
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
    candidate (in pool order), one constraint per ambient point."""
    _, covers_point = _pool_incidence(instance)
    n_vars = len(instance.candidates)

    if format == "lp":
        rel = "=" if instance.mode == "exact" else ">="
        lines = ["Minimize"]
        lines.append(
            " obj: " + " + ".join(f"x_{i + 1}" for i in range(n_vars))
        )
        lines.append("Subject To")
        points = itertools.product(*(range(1, n + 1) for n in instance.ambient.sides))
        for pt, cs in zip(points, covers_point):
            name = "p_" + "_".join(str(c) for c in pt)
            terms = " + ".join(f"x_{ci + 1}" for ci in cs)
            lines.append(f" {name}: {terms} {rel} {instance.multiplicity}")
        lines.append("Binary")
        lines.append(
            " " + " ".join(f"x_{i + 1}" for i in range(n_vars))
        )
        lines.append("End")
        return "\n".join(lines) + "\n"

    if format == "cnf":
        if instance.multiplicity != 1 or instance.mode != "exact":
            raise GeometryError(
                "cnf export supports only exact multiplicity 1 "
                "(no cardinality encoding is provided)"
            )
        clauses: list[list[int]] = []
        for cs in covers_point:
            vs = [ci + 1 for ci in cs]
            clauses.append(vs)  # at least one
            for a, b in itertools.combinations(vs, 2):  # at most one
                clauses.append([-a, -b])
        out = [f"p cnf {n_vars} {len(clauses)}"]
        out.extend(" ".join(str(v) for v in c) + " 0" for c in clauses)
        return "\n".join(out) + "\n"

    raise GeometryError(f"unknown format {format!r}")
