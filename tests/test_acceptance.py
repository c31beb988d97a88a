"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces its wall-clock budget, and
emits a single PASS/FAIL line on the real stdout (bypassing capture) so the
gate is readable straight off a plain pytest run.
"""

import functools
import math
import sys
import time

from boxkit.bounds import (
    growth_root,
    kp_trivial_bounds,
    lower_odd_proper,
    parity_count,
)
from boxkit.constructions import (
    APPENDIX_25_LISTING,
    intermediate_library,
    partition_25,
    predicted_size,
    product,
    quadrant_construction,
    realize,
    stack_lemma,
)
from boxkit.formats import PartitionDocument, write_partition_text
from boxkit.geometry import Ambient, classify_box, verify_cover
from boxkit.graphq import clique_property_check, fig9_graph, partition_to_graph, prop43_lower
from boxkit.search import CoverInstance, SearchBudget, anneal_cover, enumerate_candidates, solve_cover


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                sys.__stdout__.write(f"[criterion {number:2d}] FAIL  {label}\n")
                raise
            sys.__stdout__.write(f"[criterion {number:2d}] PASS  {label}\n")

        return run

    return wrap


def timed(budget_seconds, fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"took {elapsed:.2f}s, budget {budget_seconds}s"
    return result


@criterion(1, "25-box partition of [5]^3 verifies and round-trips byte-identically")
def test_criterion_01_appendix_fidelity():
    fam = partition_25()
    rep = timed(1.0, verify_cover, fam)
    assert len(fam) == 25 and fam.ambient.sides == (5, 5, 5)
    assert rep.is_partition and rep.all_odd and rep.all_proper
    text = write_partition_text(PartitionDocument.from_family(fam))
    assert text == APPENDIX_25_LISTING


@criterion(2, "product of the 25-box partition with itself: 625 boxes over [5]^6")
def test_criterion_02_product_625():
    def build_and_verify():
        fam = product(partition_25(), partition_25())
        return fam, verify_cover(fam)

    fam, rep = timed(10.0, build_and_verify)
    assert len(fam) == 625 and fam.ambient.sides == (5,) * 6
    assert rep.is_partition and rep.all_odd and rep.all_proper


@criterion(3, "parity identities exhaustive over n in {3,5,7,9,11}")
def test_criterion_03_parity_identities():
    def check_all():
        for n in (3, 5, 7, 9, 11):
            for mask in range(1, 1 << n):
                B = [i + 1 for i in range(n) if mask >> i & 1]
                proper = len(B) < n
                t = parity_count(n, B, "all_odd")
                # a proper nonempty set hits exactly half the odd selectors
                # oddly; the full set hits every one of them oddly
                assert t.odd_hits == (2 ** (n - 2) if proper else 2 ** (n - 1))
                if proper:
                    t = parity_count(n, B, "proper_odd")
                    # dropping the full selector costs a hit iff |B| is odd
                    assert t.odd_hits == 2 ** (n - 2) - (len(B) % 2)

    timed(5.0, check_all)


@criterion(4, "minimum odd proper brick partitions: [5]^1 needs 3 and [5]^2 needs 9")
def test_criterion_04_optimal_small_partitions():
    def prove_both():
        results = []
        for sides in ((5,), (5, 5)):
            amb = Ambient(sides)
            inst = CoverInstance(
                amb, tuple(enumerate_candidates(amb, "odd_proper_brick")), 1, "exact"
            )
            results.append(solve_cover(inst, SearchBudget(wall_seconds=55.0)))
        return results

    r1, r2 = timed(60.0, prove_both)
    assert r1.proven_optimal and r1.best_size == 3
    assert r2.proven_optimal and r2.best_size == 9
    assert verify_cover(r2.best).is_partition


@criterion(5, "quadrant constructions: 4(k-1) bricks at piercing k in 2D; <=48 in 3D at k=4")
def test_criterion_05_quadrant():
    for k in range(3, 9):
        fam = quadrant_construction(2, k)
        rep = verify_cover(fam)
        assert len(fam) == 4 * (k - 1)
        assert rep.is_partition and rep.all_brick
        assert rep.piercing_number == k
    fam = quadrant_construction(3, 4)
    rep = verify_cover(fam)
    assert len(fam) <= 48
    assert rep.is_partition and rep.all_brick
    assert rep.piercing_number >= 4


@criterion(6, "stacking: label coefficients (2,6,2) from the 5-part plane, (8,5,8,3) from the 12-part cube")
def test_criterion_06_stack_coefficients():
    from collections import Counter

    def multiset(ip):
        return Counter(tuple(sorted(v.labels)) for _, v in ip.parts)

    def run_both(k):
        a = stack_lemma(
            intermediate_library("fig3", k), ("low", "low"), ("high", "low"), k
        )
        b = stack_lemma(
            intermediate_library("fig5", k),
            ("high", "high", "low"),
            ("high", "high", "high"),
            k,
        )
        return a, b

    k = 5
    a, b = timed(1.0, run_both, k)
    assert len(a) == 10
    assert multiset(a) == {
        (1, k - 1, k - 1): 2,
        (1, 1, k - 1): 6,
        (1, 1, k - 2): 2,
    }
    assert multiset(b) == {
        (1, 1, k - 1, k - 1): 8,
        (1, 1, k - 2, k - 1): 5,
        (1, 1, 1, k - 1): 8,
        (1, 1, 1, k - 2): 3,
    }


@criterion(7, "realized 22-part recipe: 3-piercing brick partition of a 4-cube, 61 bricks")
def test_criterion_07_realize_61():
    ip = intermediate_library("fig6", 3)
    assert predicted_size(ip, 3) == 61

    def build():
        fam = realize(ip, 3)
        return fam, verify_cover(fam)

    fam, rep = timed(10.0, build)
    assert len(fam) <= 61
    assert fam.ambient.dim == 4
    assert len(set(fam.ambient.sides)) == 1  # a cube
    assert rep.is_partition and rep.all_brick
    assert rep.piercing_number >= 3


@criterion(8, "realized 15-part recipe: 3-piercing box partition of a 3-cube, 24 boxes, non-brick present")
def test_criterion_08_realize_24():
    ip = intermediate_library("fig8", 3)

    def build():
        fam = realize(ip, 3)
        return fam, verify_cover(fam)

    fam, rep = timed(10.0, build)
    assert len(fam) <= 24
    assert fam.ambient.dim == 3
    assert len(set(fam.ambient.sides)) == 1
    assert rep.is_partition
    assert any(not classify_box(b, fam.ambient).brick for b in fam.boxes)
    assert rep.piercing_number >= 3


@criterion(9, "annealer finds an exact double cover of [3]^3 by <= 11 proper boxes")
def test_criterion_09_double_cover():
    amb = Ambient.cube(3, 3)
    inst = CoverInstance(
        amb, tuple(enumerate_candidates(amb, "proper_box")), 2, "exact"
    )
    result = timed(
        600.0, anneal_cover, inst, SearchBudget(wall_seconds=590.0, seed=0)
    )
    assert result.best is not None and result.best_size <= 11
    rep = verify_cover(result.best, 2, "exact")
    assert rep.multiplicity_ok and rep.all_proper


@criterion(10, "bound calculators: growth roots, odd-proper lower bound, trivial piercing bounds")
def test_criterion_10_bounds():
    assert abs(growth_root([0, 13, 9]) - 3.91) <= 0.01
    assert abs(growth_root([0, 15]) - 3.873) <= 0.001
    assert abs(growth_root([0, 0, 0, 61]) - 2.795) <= 0.005
    for d in range(1, 7):
        assert lower_odd_proper(3, d).value == 3**d
    lo, hi = kp_trivial_bounds(3, 3, "brick")
    assert (lo.value, hi.value) == (20, 27)


@criterion(11, "graph reduction: tight two-colored examples, quadrant reductions, ratio lower bound")
def test_criterion_11_graphs():
    for k in range(3, 7):
        g = fig9_graph(k)
        assert g.vertex_count == 4 * (k - 1)
        assert clique_property_check(g, k).holds
    for k in range(3, 9):
        g = partition_to_graph(quadrant_construction(2, k))
        assert clique_property_check(g, k).holds
    k = 10**4
    value = prop43_lower(k).value
    assert value / k > 3.5
    assert value <= 4 * (k - 1) + 1
    assert not math.isnan(value)


@criterion(12, "product of three 25-box partitions: 15,625 boxes over [5]^9 verify within 30 s")
def test_criterion_12_product_15625():
    p25 = partition_25()
    fam = product(product(p25, p25), p25)
    rep = timed(30.0, verify_cover, fam)
    assert len(fam) == 15_625 and fam.ambient.sides == (5,) * 9
    assert rep.is_partition and rep.all_odd and rep.all_proper
    assert rep.piercing_number == 3


@criterion(13, "product of two 61-brick partitions: 3,721 boxes over [16]^8 verify as a 3-piercing brick partition within 10 s")
def test_criterion_13_product_3721():
    fig6 = realize(intermediate_library("fig6", 3), 3)
    fam = product(fig6, fig6)
    rep = timed(10.0, verify_cover, fam)
    assert len(fam) == 3_721 and fam.ambient.sides == (16,) * 8
    assert rep.is_partition and rep.all_brick
    assert rep.piercing_number == 3 and rep.per_axis_piercing == (3,) * 8
