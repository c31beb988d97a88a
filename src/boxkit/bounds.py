"""Closed-form bounds and exact parity-counting identities.

The parity identity behind the 2^d lower bound for odd partitions: fix a
nonempty proper subset B of [n] and draw an odd-cardinality subset R of [n]
uniformly at random; then |B meets R| is odd exactly half the time (2^{n-2}
of the 2^{n-1} odd subsets); for B = [n] it is odd every time.
Restricting to *proper* odd subsets (n odd, so the full set is one of the
odd subsets being removed) shifts the count for such B to 2^{n-2}-1 of
2^{n-1}-1 whenever |B| is odd, which pushes the lower bound for odd proper
partitions up to ((2^{n-1}-1)/(2^{n-2}-1))^d, strictly above 2^d and equal
to 3^d at n=3.  ``parity_count`` checks both counts exhaustively, with a
bit of a Python int per selector.

Also here: the trivial piercing bounds (slab upper bound k^d; corner/edge
counting lower bounds), the exponential piercing lower bound for general
boxes, and a bisection root-finder for the growth rates of the size
recurrences (largest root of x^3 = 13x + 9, sqrt(15), 61^{1/4}).

Everything rational is returned as an exact ``fractions.Fraction`` so that
ceilings taken downstream are exact; floats appear only for roots and
exponentials.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Literal

from .geometry import GeometryError, _check_cells, _Record

__all__ = [
    "ParityTally",
    "BoundValue",
    "parity_count",
    "lower_odd_basic",
    "lower_odd_proper",
    "kp_trivial_bounds",
    "kp_box_exponential_lower",
    "growth_root",
]


class ParityTally(_Record):
    """Exhaustive count of odd-size selector subsets hitting a target oddly."""

    __slots__ = ("total_selectors", "odd_hits")

    def __init__(self, total_selectors: int, odd_hits: int) -> None:
        if not 0 <= odd_hits <= total_selectors:
            raise GeometryError("odd_hits out of range")
        self._set(total_selectors, odd_hits)


class BoundValue(_Record):
    """A named bound value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: Fraction | float) -> None:
        if not value > 0 or (isinstance(value, float) and not math.isfinite(value)):
            raise GeometryError(f"bound {name} must be finite positive")
        self._set(name, value)


def parity_count(
    n: int, B: Iterable[int], mode: Literal["all_odd", "proper_odd"] = "all_odd"
) -> ParityTally:
    """Count odd-cardinality subsets R of [n] with |B ∩ R| odd, exhaustively.

    With mode "proper_odd" the full set [n] is excluded from the selectors;
    this requires n odd (otherwise [n] is not an odd subset and nothing
    changes).  For a nonempty proper subset B of [n] the all_odd count is
    always 2^{n-2}; the proper_odd count is 2^{n-2}-1 when |B| is odd and
    2^{n-2} when even.  For B = [n] every odd selector hits: 2^{n-1} of
    2^{n-1}, and 2^{n-1}-1 of 2^{n-1}-1 with proper_odd.  The selectors
    are the bits of Python ints of 2^n bits; those bits count
    as cells against geometry's 2^27-cell limit, so n > 27 raises
    GeometryError before anything is allocated.
    """
    target = tuple(sorted(set(B)))
    if not target:
        raise GeometryError("target set must be nonempty")
    if target[0] < 1 or target[-1] > n:
        raise GeometryError(f"target {target} not inside [{n}]")
    if mode not in ("all_odd", "proper_odd"):
        raise GeometryError(f"unknown mode {mode!r}")
    if mode == "proper_odd" and n % 2 == 0:
        raise GeometryError("proper_odd mode requires odd n")
    # one factor 2 per bit, so a huge n is refused without building 1 << n
    _check_cells(itertools.repeat(2, n), f"the selector masks of [{n}]")
    # bit R stands for the selector R; the selectors of [c] are those of
    # [c - 1] and, 2^(c-1) bits up, each of them with c added
    odd = hits = 0
    for c in range(1, n + 1):
        low = (1 << (1 << c - 1)) - 1
        odd |= (odd ^ low) << (1 << c - 1)
        hits |= (hits ^ low if c in target else hits) << (1 << c - 1)
    if mode == "proper_odd":
        odd &= ~(1 << (1 << n) - 1)
    return ParityTally(odd.bit_count(), (odd & hits).bit_count())


def lower_odd_basic(d: int) -> BoundValue:
    """Any partition of a cube into odd boxes has at least 2^d parts."""
    if d < 1:
        raise GeometryError("d must be >= 1")
    return BoundValue("odd_basic", Fraction(2) ** d)


def lower_odd_proper(n: int, d: int) -> BoundValue:
    """Exact rational lower bound ((2^{n-1}-1)/(2^{n-2}-1))^d for partitions
    of [n]^d into odd proper boxes; equals 3^d at n=3 and decreases toward
    2^d as n grows."""
    if n <= 2 or n % 2 == 0:
        raise GeometryError("n must be odd and > 2")
    if d < 1:
        raise GeometryError("d must be >= 1")
    base = Fraction(2 ** (n - 1) - 1, 2 ** (n - 2) - 1)
    return BoundValue("odd_proper", base**d)


def kp_trivial_bounds(
    d: int, k: int, kind: Literal["box", "brick"]
) -> tuple[BoundValue, BoundValue]:
    """The easy piercing bounds: k^d slabs from above; corner and edge
    counting from below (bricks), or the line bound and the 2-piercing
    bound (boxes)."""
    if d < 1 or k < 2:
        raise GeometryError("need d >= 1 and k >= 2")
    if kind == "brick":
        lower = Fraction(d * 2 ** (d - 1) * (k - 2) + 2**d)
        name = "brick_trivial"
    elif kind == "box":
        lower = Fraction(max(k * (d - 1) + 1, 2**d))
        name = "box_trivial"
    else:
        raise GeometryError(f"unknown kind {kind!r}")
    return (
        BoundValue(name + "_lower", lower),
        BoundValue(name + "_upper", Fraction(k) ** d),
    )


def kp_box_exponential_lower(d: int, k: int) -> tuple[BoundValue, BoundValue]:
    """Lower bound for k-piercing partitions into proper boxes growing
    exponentially in sqrt(d): the sharp product form
    prod_{i=2}^{d} (1 + 1/(sqrt(2i)-1)) * (k-1) + 1 and the weaker closed
    form e^{sqrt(d)/4} (k-1); the product form dominates."""
    if d < 2 or k < 2:
        raise GeometryError("need d >= 2 and k >= 2")
    prod = 1.0
    for i in range(2, d + 1):
        prod *= 1.0 + 1.0 / (math.sqrt(2 * i) - 1.0)
    product_form = BoundValue("box_exp_product", prod * (k - 1) + 1)
    closed_form = BoundValue("box_exp_closed", math.exp(math.sqrt(d) / 4) * (k - 1))
    return product_form, closed_form


def _charpoly(coeffs: list[float], x: float) -> float:
    """x^m - sum c_i x^{m-i}, for ``coeffs`` = (c_1, ..., c_m)."""
    m = len(coeffs)
    return x**m - sum(c * x ** (m - 1 - i) for i, c in enumerate(coeffs))


def growth_root(recurrence: Iterable[float]) -> float:
    """Largest positive root of x^m = c_1 x^{m-1} + ... + c_m, found by
    bisection to 1e-9.

    `recurrence` lists (c_1, ..., c_m); the characteristic polynomial is
    p(x) = x^m - sum c_i x^{m-i}.  With nonnegative coefficients (not all
    zero, else GeometryError) p has a single sign change on [1, 1 + sum |c_i|],
    which brackets the dominant root.  Every test reads p with its trailing
    zero coefficients dropped: they factor x^k out of p, which moves no
    positive root, and the root 0 they add is not reported.  A non-finite
    value at the top of the bracket raises GeometryError.
    From 2^23 on, bisection stops at adjacent floats, over 1e-9 apart.
    """
    coeffs = [float(c) for c in recurrence]
    if not coeffs:
        raise GeometryError("empty recurrence")
    if not any(coeffs):  # p(x) = x^m: its one root is 0
        raise GeometryError("no positive real root: every coefficient is 0")
    # p(x) = x^k q(x) for k trailing zeros: q has p's positive roots, and
    # q(0) is not 0, so the bracket widened to 0 cannot close on that root
    q = coeffs.copy()
    while not q[-1]:
        q.pop()
    lo, hi = 1.0, 1.0 + sum(abs(c) for c in q)
    try:
        top = _charpoly(q, hi)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise GeometryError(f"cannot bracket a root of {coeffs}: p({hi:g}) is not finite")
    if top < 0:
        raise GeometryError("no root in bracket")
    if _charpoly(q, lo) > 0:
        # dominant root below 1; widen the bracket downward
        lo = 0.0
        if _charpoly(q, lo) > 0:
            raise GeometryError("no positive real root in bracket")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats
            break
        if _charpoly(q, mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
