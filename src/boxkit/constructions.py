"""Executable constructions of box partitions.

Covers:

* the trivial odd partition (each side split 1 / n-2 / 1) and the k-slab
  grid partition;
* the 25-box odd proper partition of [5]^3 (a frozen coordinate listing),
  whose d/3-fold products beat the trivial 3^d count;
* composition rules: products of partitions and side-length lifts;
* the quadrant recursion producing k-piercing brick partitions
  (4(k-1) bricks in 2D);
* a small library of labeled ("intermediate") partitions transcribed onto
  minimal integer grids, the corner-stacking lemma that lifts a labeled
  d-dimensional partition to d+1 dimensions, and the recursive realization
  of a labeled partition into a concrete k-piercing partition together with
  its exact predicted size.

Labeled partitions assign each part a vector of per-axis piercing targets;
realization solves the (a_1,...,a_d)-piercing subproblem inside each part,
so the final size is the sum of per-part subproblem sizes.

Every construction that takes sizes from its caller counts, from those
arguments alone, the cells its boxes' factors would hold (exactly, or bounded
from above), and raises GeometryError past geometry's cell limit before it
builds any factor.  Every family is then built in bulk and trusted: a grid is
a product of one-axis families, and the quadrant recursion and ``realize``
hand their rows to ``_interned_family``, which normalizes each distinct
factor once a call.  Each public call plans in a ``_Plan`` memo of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .formats import _Memo, parse_partition_text
from .geometry import (
    Ambient,
    BoxFamily,
    CornerSpec,
    DiscreteBox,
    GeometryError,
    IntermediatePartition,
    PiercingVector,
    _check_cells,
    _factors,
    _gc_paused,
    _normalize_factor,
    _unchecked_boxes,
    classify_box,
    weighted_piercing_ok,
)

__all__ = [
    "APPENDIX_25_LISTING",
    "trivial_odd_partition",
    "grid_partition",
    "partition_25",
    "product",
    "lift",
    "quadrant_construction",
    "intermediate_library",
    "stack_lemma",
    "realize",
    "predicted_size",
]


# ---------------------------------------------------------------------------
# basic partitions

def trivial_odd_partition(n: int, d: int) -> BoxFamily:
    """Partition [n]^d into 3^d odd proper bricks (sides split 1 / n-2 / 1)."""
    if n < 3 or n % 2 == 0:
        raise GeometryError(f"need odd n >= 3, got {n}")
    if d < 1:
        raise GeometryError("d must be >= 1")
    _check_slab_grid(3, n, d, "a trivial partition")
    return _slab_grid([(1,), _r(2, n - 1), (n,)], n, d)


def _check_slab_grid(k: int, n: int, d: int, what: str) -> None:
    """Refuse a ``_slab_grid`` of k pieces whose box factors, d * k^(d-1) * n
    cells in all, pass the cell limit, before any piece is built."""
    _check_cells(itertools.chain((d, n), itertools.repeat(k, d - 1)), f"the box factors of {what}")


def _slab_grid(pieces, n: int, d: int) -> BoxFamily:
    """The product of d copies of the family of `pieces` (consecutive runs
    splitting [n]) on [n]: every product of d pieces, on [n]^d."""
    # every piece is a run inside 1..n
    line = _interned_family(Ambient((n,)), zip(pieces), len(pieces))
    return functools.reduce(product, itertools.repeat(line, d - 1), line)


def _r(a: int, b: int) -> tuple[int, ...]:
    """The interval a..b."""
    return tuple(range(a, b + 1))


def _even_split(cells: tuple[int, ...], parts: int) -> list[tuple[int, ...]]:
    """Split `cells` into `parts` consecutive runs of near-equal size, the
    longer runs first."""
    q, r = divmod(len(cells), parts)
    cuts = [i * q + min(i, r) for i in range(parts + 1)]
    return [cells[a:b] for a, b in zip(cuts, cuts[1:])]


def grid_partition(d: int, k: int, n: int | None = None) -> BoxFamily:
    """k^d bricks from splitting every side into k slabs; piercing number k."""
    if k < 2:
        raise GeometryError("k must be >= 2")
    if d < 1:
        raise GeometryError("d must be >= 1")
    n = k if n is None else n
    if n < k:
        raise GeometryError(f"side {n} too small for {k} slabs")
    _check_slab_grid(k, n, d, "a grid partition")
    return _slab_grid(_even_split(_r(1, n), k), n, d)


# ---------------------------------------------------------------------------
# the 25-box partition of [5]^3

APPENDIX_25_LISTING = """\
Box(1) = {1,2,3} x {1,2,3} x {1}
Box(2) = {1,2,3} x {1,2,3} x {2}
Box(3) = {2,4,5} x {1,4,5} x {3}
Box(4) = {2,3,5} x {2,3,5} x {4}
Box(5) = {1,2,4} x {1,2,4} x {5}
Box(6) = {1,2,5} x {1} x {4}
Box(7) = {1} x {1,2,5} x {3}
Box(8) = {1} x {2,4,5} x {4}
Box(9) = {2,4,5} x {2} x {3}
Box(10) = {2,4,5} x {3} x {3}
Box(11) = {2,3,4} x {3} x {5}
Box(12) = {3} x {2,3,4} x {3}
Box(13) = {3} x {2,4,5} x {5}
Box(14) = {4} x {1,2,3} x {1,2,4}
Box(15) = {5} x {1,2,3} x {1,2,5}
Box(16) = {2,4,5} x {4} x {1,2,4}
Box(17) = {2,4,5} x {5} x {1,2,5}
Box(18) = {1} x {4} x {1,2,3}
Box(19) = {1} x {5} x {1,2,5}
Box(20) = {3} x {4} x {1,2,4}
Box(21) = {3} x {5} x {1,2,3}
Box(22) = {1} x {3} x {3,4,5}
Box(23) = {3} x {1} x {3,4,5}
Box(24) = {4} x {5} x {4}
Box(25) = {5} x {4} x {5}
"""


@functools.lru_cache(maxsize=1)
def partition_25() -> BoxFamily:
    """The 25-box odd proper partition of [5]^3, exactly as listed."""
    return parse_partition_text(APPENDIX_25_LISTING).family()


# ---------------------------------------------------------------------------
# composition

@_gc_paused
def product(p1: BoxFamily, p2: BoxFamily) -> BoxFamily:
    """Concatenate axes: a partition of [n]^{d1+d2} of size |p1|*|p2|,
    built with the cyclic garbage collector paused; boxes times axes past
    geometry's cell limit raise GeometryError before any box is built."""
    sides = set(p1.ambient.sides) | set(p2.ambient.sides)
    if len(sides) != 1:
        raise GeometryError(
            f"product requires a common side length, got {sorted(sides)}"
        )
    ambient = Ambient(p1.ambient.sides + p2.ambient.sides)
    _check_cells([len(p1), len(p2), ambient.dim], "the boxes of a product")
    pairs = itertools.product(map(_factors, p1.boxes), map(_factors, p2.boxes))
    # factors off existing boxes
    boxes = _unchecked_boxes(itertools.starmap(tuple.__add__, pairs), len(p1) * len(p2))
    # each box joins a box that fits p1's ambient to one that fits p2's
    return BoxFamily._trusted(ambient, boxes)


def lift(p: BoxFamily, m: int) -> BoxFamily:
    """Re-host a partition of [n]^d on [m]^d (m >= n) by identifying the
    element n with the interval {n,...,m}.  Same family size; oddness is
    preserved exactly when m and n have the same parity."""
    sides = set(p.ambient.sides)
    if len(sides) != 1:
        raise GeometryError("lift expects a cubical ambient")
    n = sides.pop()
    if m < n:
        raise GeometryError(f"cannot lift [{n}]^d down to [{m}]^d")
    if m == n:
        return p
    flat = list(itertools.chain.from_iterable(map(_factors, p.boxes)))
    # every factor ending at n grows by m - n cells
    _check_cells(
        [sum(len(f) + (f[-1] == n) * (m - n) for f in flat)],
        "the box factors of a lifted family",
    )
    tail = tuple(range(n + 1, m + 1))
    # one lifted tuple per distinct factor, interned once, so every box shares it
    grown = {f: _normalize_factor(f + tail) for f in dict.fromkeys(flat) if f[-1] == n}
    # factors off existing boxes or from _normalize_factor
    rows = zip(*[map(grown.get, flat, flat)] * p.ambient.dim)
    # every factor fits [n], and a factor grows only from n up to m
    return BoxFamily._trusted(Ambient.cube(m, p.ambient.dim), _unchecked_boxes(rows, len(p)))


def _interned_family(ambient: Ambient, rows, n: int) -> BoxFamily:
    """The family on `ambient` of the first `n` of `rows` (factor tuples),
    each distinct factor normalized once per call; every factor must fit its
    axis of `ambient`, which is not checked."""
    factors = map(_Memo(_normalize_factor).__getitem__, itertools.chain.from_iterable(rows))
    # factors from _normalize_factor
    return BoxFamily._trusted(ambient, _unchecked_boxes(zip(*[factors] * ambient.dim), n))


# ---------------------------------------------------------------------------
# generalized piercing targets: size, room needed, recursive building
#
# A part labeled (a_1,...,a_d) is filled with a partition in which every
# axis-i line meets at least a_i pieces.  Axes labeled 1 are left whole.
# With a single active axis the part splits into a_i slabs.  With two or
# more active axes the two largest targets are handled by a quadrant split:
# two opposite quadrants get (a_i-1, 1, rest), the other two (1, a_j-1,
# rest), and every line picks up the missing 1 from the neighbouring
# quadrant.

def _pick_axes(labels: tuple[int, ...]) -> list[int]:
    active = [i for i, a in enumerate(labels) if a > 1]
    active.sort(key=lambda i: (-labels[i], i))
    return active


def _quadrant_branches(labels, i, j):
    b1 = list(labels)
    b1[i], b1[j] = 1, labels[j] - 1
    b2 = list(labels)
    b2[i], b2[j] = labels[i] - 1, 1
    return tuple(b1), tuple(b2)


class _Plan(dict):
    """``plan[labels]`` is (size, need): how many pieces the recursive
    construction makes, and the minimal per-axis cell counts it needs to
    fit.  Each public call makes its own, so the branches it shares live
    only as long as that call."""

    def __missing__(self, labels: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        d = len(labels)
        active = _pick_axes(labels)
        if not active:
            return self.setdefault(labels, (1, (1,) * d))
        i = active[0]
        if len(active) == 1:
            need = tuple(labels[i] if a == i else 1 for a in range(d))
            return self.setdefault(labels, (labels[i], need))
        j = active[1]
        (s1, n1), (s2, n2) = map(self.__getitem__, _quadrant_branches(labels, i, j))
        need = [max(x, y) for x, y in zip(n1, n2)]
        need[i] *= 2
        need[j] *= 2
        return self.setdefault(labels, (2 * s1 + 2 * s2, tuple(need)))


def _build(factors, labels):
    """Fill the box given by `factors` with an (a_1,...,a_d)-piercing
    partition; yields factor tuples.  Requires len(factors[a]) >= need[a],
    with need from ``_Plan()[labels]``."""
    active = _pick_axes(labels)
    if not active:
        yield tuple(factors)
        return
    if len(active) == 1:
        i = active[0]
        for piece in _even_split(factors[i], labels[i]):
            out = list(factors)
            out[i] = piece
            yield tuple(out)
        return
    i, j = active[0], active[1]
    b1, b2 = _quadrant_branches(labels, i, j)
    # halving axes i and j leaves every quadrant room for its branch: the
    # need there is twice the larger branch's
    mi, mj = len(factors[i]) // 2, len(factors[j]) // 2
    i_lo, i_hi = factors[i][:mi], factors[i][mi:]
    j_lo, j_hi = factors[j][:mj], factors[j][mj:]
    for fi, fj, sub in (
        (i_lo, j_lo, b2),
        (i_hi, j_hi, b2),
        (i_lo, j_hi, b1),
        (i_hi, j_lo, b1),
    ):
        quad = list(factors)
        quad[i], quad[j] = fi, fj
        yield from _build(tuple(quad), sub)


def quadrant_construction(d: int, k: int) -> BoxFamily:
    """k-piercing brick partition from the quadrant recursion: k slabs in
    1D, 4(k-1) bricks in 2D, and at most 4^{d-1} k bricks in general."""
    if d < 1:
        raise GeometryError("d must be >= 1")
    if k < 2:
        raise GeometryError("k must be >= 2")
    what = "the box factors of a quadrant construction"
    # at least 2^d boxes of d factors each: refused before the plan grows
    _check_cells(itertools.chain((d,), itertools.repeat(2, d)), what)
    labels = (k,) * d
    size, need = _Plan()[labels]
    sides = tuple(max(n, 2) for n in need)
    _check_cells([size, sum(sides)], what)
    factors = tuple(tuple(range(1, n + 1)) for n in sides)
    # each factor is a run of 1..n on its axis, and _build only cuts it
    return _interned_family(Ambient(sides), _build(factors, labels), size)


# ---------------------------------------------------------------------------
# labeled partition library
#
# Each entry is a fixed transcription of a hand-drawn example onto the
# smallest integer grid preserving its incidence structure.  The grids are
# frozen fixtures; the label multisets are the ground truth.

def _ip(sides, parts):
    built = [(DiscreteBox(tuple(f)), PiercingVector(lab)) for f, lab in parts]
    return IntermediatePartition(Ambient(tuple(sides)), tuple(built))


def _fig3(k: int) -> IntermediatePartition:
    """Five-part 2D partition: the smallest labeled example worth stacking."""
    return _ip(
        (3, 2),
        [
            (((1,), (1,)), (1, k - 1)),
            (((1,), (2,)), (k - 1, 1)),
            (((2,), (1,)), (k - 2, 1)),
            ((_r(2, 3), (2,)), (1, k - 1)),
            (((3,), (1,)), (1, 1)),
        ],
    )


def _fig4(k: int) -> IntermediatePartition:
    """Ten-part 3D partition: the stack of fig3."""
    return stack_lemma(_fig3(k), ("low", "low"), ("high", "low"), k)


def _fig5(k: int) -> IntermediatePartition:
    """Twelve-part 3D partition (two layers), input to the second stacking."""
    return _ip(
        (6, 2, 2),
        [
            # bottom layer
            ((_r(1, 2), (1,), (1,)), (1, k - 1, 1)),
            (((1,), (2,), (1,)), (1, 1, k - 1)),
            (((2,), (2,), (1,)), (k - 2, 1, k - 1)),
            (((3,), (1,), (1,)), (k - 2, 1, 1)),
            ((_r(3, 6), (2,), (1,)), (1, k - 1, k - 1)),
            ((_r(4, 6), (1,), (1,)), (1, 1, k - 1)),
            # top layer
            ((_r(1, 3), (1,), (2,)), (1, 1, k - 1)),
            ((_r(1, 4), (2,), (2,)), (1, k - 1, 1)),
            (((4,), (1,), (2,)), (k - 2, 1, 1)),
            (((5,), (2,), (2,)), (k - 2, 1, 1)),
            (((6,), (2,), (2,)), (1, 1, 1)),
            ((_r(5, 6), (1,), (2,)), (1, k - 1, 1)),
        ],
    )


def _fig6(k: int) -> IntermediatePartition:
    """22-part 4D partition drawn as four 2D panels (axes 3 and 4 each split
    in half).  At k=3 its predicted realization size is 61."""
    lo, hi = (1,), (2,)
    return _ip(
        (8, 2, 2, 2),
        [
            # panel: axes 3,4 low/low
            ((_r(1, 2), (1,), lo, lo), (1, 1, k - 1, 1)),
            (((3,), (1,), lo, lo), (k - 2, 1, 1, 1)),
            ((_r(4, 8), (1,), lo, lo), (1, k - 1, 1, 1)),
            ((_r(1, 3), (2,), lo, lo), (1, k - 1, 1, 1)),
            (((4,), (2,), lo, lo), (k - 2, 1, 1, 1)),
            ((_r(5, 8), (2,), lo, lo), (1, 1, 1, k - 1)),
            # panel: high/low
            (((1,), (1,), hi, lo), (1, k - 1, 1, 1)),
            (((2,), (1,), hi, lo), (k - 2, 1, 1, 1)),
            ((_r(3, 8), (1,), hi, lo), (1, 1, k - 1, 1)),
            (((1,), (2,), hi, lo), (k - 1, 1, k - 1, 1)),
            ((_r(2, 8), (2,), hi, lo), (1, k - 1, k - 1, 1)),
            # panel: low/high
            ((_r(1, 5), (1,), lo, hi), (1, k - 1, 1, k - 1)),
            (((6,), (1,), lo, hi), (k - 2, 1, 1, k - 1)),
            ((_r(7, 8), (1,), lo, hi), (1, 1, k - 1, k - 1)),
            ((_r(1, 4), (2,), lo, hi), (1, 1, k - 1, k - 1)),
            (((5,), (2,), lo, hi), (k - 2, 1, k - 1, 1)),
            ((_r(6, 8), (2,), lo, hi), (1, k - 1, k - 1, 1)),
            # panel: high/high
            ((_r(1, 6), (1,), hi, hi), (1, 1, k - 1, k - 1)),
            (((7,), (1,), hi, hi), (k - 2, 1, 1, k - 1)),
            (((8,), (1,), hi, hi), (1, k - 1, 1, k - 1)),
            ((_r(1, 7), (2,), hi, hi), (1, k - 1, 1, k - 1)),
            (((8,), (2,), hi, hi), (k - 1, 1, 1, k - 1)),
        ],
    )


def _fig8(k: int) -> IntermediatePartition:
    """15-part 3D partition using genuine non-brick boxes.

    Three layers, each holding a copy of the five-part 2D example whose
    slack part is stretched into one of the three boxes that cover a square
    (a trick impossible with bricks); those three cover boxes carry the
    k-2 labels along the stacking axis.
    """
    return _ip(
        (5, 4, 3),
        [
            # layer 1
            (((1,), (4,), (1,)), (k - 1, 1, 1)),
            ((_r(2, 5), (4,), (1,)), (1, k - 1, 1)),
            (((1,), _r(1, 3), (1,)), (1, k - 1, 1)),
            (((2,), _r(1, 3), (1,)), (k - 2, 1, 1)),
            ((_r(3, 5), _r(1, 3), (1,)), (1, 1, k - 2)),
            # layer 2
            ((_r(1, 3), _r(2, 4), (2,)), (1, 1, k - 2)),
            ((_r(1, 4), (1,), (2,)), (1, k - 1, 1)),
            (((5,), (1,), (2,)), (k - 1, 1, 1)),
            (((5,), _r(2, 4), (2,)), (1, k - 1, 1)),
            (((4,), _r(2, 4), (2,)), (k - 2, 1, 1)),
            # layer 3: the corner cover box and the slivers around it
            (((1, 2, 4, 5), (1, 4), (3,)), (1, 1, k - 2)),
            (((1, 2, 4, 5), (2,), (3,)), (k - 1, 1, 1)),
            (((1, 2, 4, 5), (3,), (3,)), (1, k - 2, 1)),
            (((3,), (2,), (3,)), (1, k - 1, 1)),
            (((3,), (1, 3, 4), (3,)), (k - 1, 1, 1)),
        ],
    )


_LIBRARY = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig8": _fig8,
}


def intermediate_library(name: str, k: int) -> IntermediatePartition:
    """Fixed labeled partitions on canonical grids, by the names in
    ``_LIBRARY``."""
    if k < 3:
        raise GeometryError("library partitions need k >= 3 (k-2 labels)")
    if name not in _LIBRARY:
        raise GeometryError(f"unknown intermediate partition {name!r}")
    return _LIBRARY[name](k)


# ---------------------------------------------------------------------------
# the corner-stacking lemma

def _reflect_parts(ip: IntermediatePartition, corner: CornerSpec):
    """Parts of `ip` reflected so the given corner becomes all-low."""
    sides = ip.ambient.sides
    out = []
    for box, vec in ip.parts:
        factors = tuple(
            tuple(sorted(n + 1 - c for c in f)) if o == "high" else f
            for f, n, o in zip(box.factors, sides, corner)
        )
        out.append((DiscreteBox(factors), vec))
    return out


def _corner_part(parts) -> int:
    """Index of the part holding the all-low corner."""
    return next(
        i for i, (box, _) in enumerate(parts)
        if all(f[0] == 1 for f in box.factors)
    )


def _largest_proper_prefix_union(parts, sides):
    """Largest proper brick [1..u_1] x ... x [1..u_d] that is an exact union
    of whole parts; returns (u, covered part indices)."""
    cuts = [
        sorted({box.factors[a][-1] for box, _ in parts} - {n})
        for a, n in enumerate(sides)
    ]
    best = None
    for u in itertools.product(*cuts):
        covered = []
        ok = True
        for idx, (box, _) in enumerate(parts):
            intersects = all(f[0] <= ua for f, ua in zip(box.factors, u))
            inside = all(f[-1] <= ua for f, ua in zip(box.factors, u))
            if intersects and not inside:
                ok = False
                break
            if inside:
                covered.append(idx)
        if ok and covered:
            cells = math.prod(u)
            if best is None or cells > best[0]:
                best = (cells, u, covered)
    if best is None:
        raise GeometryError(
            "no proper sub-brick at the chosen corner covers whole parts; "
            f"part {_corner_part(parts)} blocks every candidate"
        )
    return best[1], best[2]


def stack_lemma(
    ip: IntermediatePartition, X: CornerSpec, Y: CornerSpec, k: int
) -> IntermediatePartition:
    """Stack two copies of a labeled d-dimensional partition into d+1
    dimensions.

    The bottom copy is oriented with corner X at the origin; the top copy is
    oriented with corner Y at the origin and rescaled (by refining the
    integer grid) so the part at Y stretches over the union of whole parts
    filling the largest proper corner brick at X.  New-axis labels: k-1 on
    the stretched top part and on bottom parts outside that corner brick,
    1 elsewhere; every new-axis line then collects at least (k-1)+1.
    """
    d = ip.ambient.dim
    if len(X) != d or len(Y) != d:
        raise GeometryError("corner/partition dimension mismatch")
    if X == Y:
        raise GeometryError("corners X and Y must differ")
    sides = ip.ambient.sides
    if not all(classify_box(box, ip.ambient).brick for box, _ in ip.parts):
        raise GeometryError("stacking requires all parts to be bricks")

    bottom = _reflect_parts(ip, X)
    top = _reflect_parts(ip, Y)
    u, covered = _largest_proper_prefix_union(bottom, sides)
    r_idx = _corner_part(top)
    t = tuple(f[-1] for f in top[r_idx][0].factors)
    if any(ta == n and ua != n for ta, ua, n in zip(t, u, sides)):
        raise GeometryError("corner part at Y spans a full axis; cannot stretch")

    # piecewise-linear rescale of the top copy: [0,t_a] -> [0,u_a], rest
    # linear onto the remainder; the grid is refined to keep it integral.
    def fmap(a: int, x: int) -> Fraction:
        n, ua, ta = sides[a], u[a], t[a]
        if x <= ta:
            return Fraction(x * ua, ta)
        return ua + Fraction((x - ta) * (n - ua), n - ta)

    scale = []
    for a in range(d):
        pts = {0, sides[a]}
        for box, _ in top:
            lo, hi = box.factors[a][0], box.factors[a][-1]
            pts.update((lo - 1, hi))
        scale.append(math.lcm(*(fmap(a, p).denominator for p in pts)))

    new_sides = tuple(n * L for n, L in zip(sides, scale)) + (2,)
    parts = []
    for idx, (box, vec) in enumerate(bottom):
        factors = tuple(
            tuple(range((f[0] - 1) * L + 1, f[-1] * L + 1))
            for f, L in zip(box.factors, scale)
        ) + ((1,),)
        extra = 1 if idx in covered else k - 1
        parts.append((DiscreteBox(factors), PiercingVector(vec.labels + (extra,))))
    for idx, (box, vec) in enumerate(top):
        factors = []
        for a, (f, L) in enumerate(zip(box.factors, scale)):
            lo = int(fmap(a, f[0] - 1) * L)
            hi = int(fmap(a, f[-1]) * L)
            factors.append(tuple(range(lo + 1, hi + 1)))
        factors.append((2,))
        extra = k - 1 if idx == r_idx else 1
        parts.append(
            (DiscreteBox(tuple(factors)), PiercingVector(vec.labels + (extra,)))
        )
    return IntermediatePartition(Ambient(new_sides), tuple(parts))


# ---------------------------------------------------------------------------
# realization

def _part_labels(ip: IntermediatePartition, k: int, tail_dims: int):
    """Each part's labels padded with k on the ``tail_dims`` new axes, once
    the labels are checked to reach k."""
    if tail_dims < 0:
        raise GeometryError("tail_dims must be >= 0")
    # every part becomes boxes of d + tail_dims factors, at least 2^tail_dims
    # of them when k > 1: refused before the labels and the plan grow
    least = (len(ip.parts), ip.ambient.dim + tail_dims)
    doubling = itertools.repeat(2, tail_dims if k > 1 else 0)
    _check_cells(itertools.chain(least, doubling), "the box factors of a realized partition")
    if not weighted_piercing_ok(ip, k):
        raise GeometryError("labels do not reach the piercing target k")
    return [vec.labels + (k,) * tail_dims for _, vec in ip.parts]


def predicted_size(ip: IntermediatePartition, k: int, tail_dims: int = 0) -> int:
    """Exact size `realize` will produce: the sum over parts of the
    recursive subproblem sizes."""
    plan = _Plan()
    return sum(plan[lab][0] for lab in _part_labels(ip, k, tail_dims))


def realize(ip: IntermediatePartition, k: int, tail_dims: int = 0) -> BoxFamily:
    """Turn a labeled partition into a concrete partition with piercing
    number at least k, refining the grid so every part has room for its
    subproblem.  The output size equals ``predicted_size``."""
    labels = _part_labels(ip, k, tail_dims)
    plan = _Plan()
    sides = ip.ambient.sides
    # the output is a cube [N]^(d + tail_dims): N is the least multiple of
    # every side that gives each part the room its subproblem needs (a tail
    # axis has no factor and holds the whole side)
    target = max(
        -(-m // len(f)) * n if f else m
        for (box, _), lab in zip(ip.parts, labels)
        for f, n, m in itertools.zip_longest(box.factors, sides, plan[lab][1])
    )
    step = math.lcm(*sides)
    side = -(-target // step) * step
    scale = [side // n for n in sides]
    tail_sides = (side,) * tail_dims
    new_sides = (side,) * len(sides) + tail_sides
    size = sum(plan[lab][0] for lab in labels)
    _check_cells([size, len(new_sides), side], "the box factors of a realized partition")
    tails = tuple(tuple(range(1, n + 1)) for n in tail_sides)
    rooms = (
        tuple(tuple(cc for c in f for cc in range((c - 1) * L + 1, c * L + 1))
              for f, L in zip(box.factors, scale)) + tails
        for box, _ in ip.parts
    )
    rows = itertools.chain.from_iterable(map(_build, rooms, labels))
    # each factor is a part's factor scaled into [side], or a whole tail side
    return _interned_family(Ambient(new_sides), rows, size)
