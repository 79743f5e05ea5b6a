import random
import time
from fractions import Fraction

import pytest

from hcmu_lab import ratpoly
from hcmu_lab.algebra import CubicData, certify_nonvanishing, obstruction_poly
from hcmu_lab.errors import FormatError
from hcmu_lab.ratpoly import (
    ISOLATION_WIDTH,
    RationalPoly,
    as_fraction,
    count_roots_between,
    isolate_roots,
    poly_from_line,
    poly_gcd,
    poly_to_line,
    sign_variations,
    squarefree_part,
    sturm_sequence,
)

F = Fraction
P = RationalPoly


def test_construction_strips_trailing_zeros():
    assert P((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert P(()).is_zero()
    assert P((0, 0)).degree == -1


def test_arithmetic_basics():
    p = P((1, 2))            # 1 + 2K
    q = P((F(-1, 3), 0, 1))  # -1/3 + K^2
    assert (p + q).coeffs == (F(2, 3), F(2), F(1))
    assert (p - p).is_zero()
    assert (p * q)(F(2)) == p(F(2)) * q(F(2))
    assert (p ** 3)(F(1, 2)) == p(F(1, 2)) ** 3
    assert (2 * p).coeffs == (F(2), F(4))


def test_divmod_inverts_multiplication():
    rng = random.Random(11)
    for _ in range(25):
        a = P([F(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, 6))])
        b = P([F(rng.randint(-9, 9), rng.randint(1, 4))
               for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(P((1,)), P(()))


def test_gcd_and_squarefree():
    p = P.from_roots((1, 1, 2))
    g = poly_gcd(p, p.derivative())
    assert g == P.from_roots((1,))  # monic K - 1
    assert squarefree_part(p) == P.from_roots((1, 2))


def test_exact_evaluation_and_derivative():
    p = P((F(1, 7), 0, F(-3, 2), 1))
    assert p.derivative().coeffs == (F(0), F(-3), F(3))
    assert p(F(3, 2)) == F(1, 7) - F(3, 2) * F(9, 4) + F(27, 8)


def test_sturm_counts_on_a_known_cubic():
    # -(56/3) K^3 + 8: single real root (3/7)^(1/3) ~ 0.7539
    phi = P((8, 0, 0, F(-56, 3)))
    assert count_roots_between(phi, 1, 2) == 0
    assert count_roots_between(phi, 0, 1) == 1
    assert count_roots_between(phi, F(-10), F(10)) == 1


def test_sturm_endpoint_roots_are_excluded():
    p = P.from_roots((1, 2, 3))
    assert count_roots_between(p, 1, 3) == 1       # only K = 2 inside
    assert count_roots_between(p, 1, 2) == 0
    assert count_roots_between(p, F(1, 2), F(7, 2)) == 3


def test_isolation_separates_all_roots():
    p = P.from_roots((F(-1, 2), F(1, 3), F(1, 2), 4), lead=F(-2, 7))
    boxes = isolate_roots(p, -1, 5)
    assert len(boxes) == 4
    roots = sorted([F(-1, 2), F(1, 3), F(1, 2), F(4)])
    for (lo, hi), r in zip(boxes, roots):
        assert lo <= r <= hi
        assert lo == hi == r or count_roots_between(p, lo, hi) == 1
    # disjoint
    for (a, b), (c, d) in zip(boxes, boxes[1:]):
        assert b <= c


def test_isolation_hits_exact_rational_roots():
    p = P.from_roots((F(1, 2), F(1, 2) + F(1, 10 ** 6)))
    boxes = isolate_roots(p, 0, 1)
    assert len(boxes) == 2


def test_isolation_narrows_to_the_target_width():
    # (poly, interval, exact roots that must come back in boxes)
    cases = [
        # the (2, 1, 21/10) obstruction cubic: one irrational root ~1.962265
        (obstruction_poly(CubicData.from_extremes(2, 1), F(21, 10)), (1, 2), ()),
        # irrational roots +-sqrt(2), doubled, beside a simple rational root
        (P((-2, 0, 1)) ** 2 * P.from_roots((F(1, 3),)), (-2, 2), (F(1, 3),)),
        # dyadic roots that bisection midpoints hit exactly
        (P.from_roots((F(-3, 8), F(1, 4), F(3, 4)), lead=5), (-1, 1),
         (F(-3, 8), F(1, 4), F(3, 4))),
    ]
    for p, (a, b), exact in cases:
        boxes = isolate_roots(p, a, b)
        assert len(boxes) == count_roots_between(p, a, b)
        f = squarefree_part(p)
        for lo, hi in boxes:
            assert a < lo <= hi < b
            if lo == hi:
                assert p(lo) == 0
                continue
            assert hi - lo <= ISOLATION_WIDTH
            assert count_roots_between(p, lo, hi) == 1
            assert f(lo) * f(hi) < 0
        for r in exact:
            assert sum(lo <= r <= hi for lo, hi in boxes) == 1
    (lo, hi), = isolate_roots(cases[0][0], 1, 2)
    assert abs(float(lo) - 1.962265) < 1e-6


def test_isolation_builds_one_sturm_chain(monkeypatch):
    built = []

    def counting(p):
        built.append(p)
        return sturm_sequence(p)

    monkeypatch.setattr(ratpoly, "sturm_sequence", counting)
    # all three real roots of the (2, 1, 21/10) obstruction cubic
    phi = obstruction_poly(CubicData.from_extremes(2, 1), F(21, 10))
    assert len(isolate_roots(phi, -1, 3)) == 3
    assert len(built) == 1
    # an exact root at the first midpoint deflates f: one more chain
    built.clear()
    p = P.from_roots((0, F(1, 3), F(-5, 7)))
    assert isolate_roots(p, -1, 1)[1] == (0, 0)
    assert len(built) == 2


def test_certificate_builds_one_squarefree_part_and_one_chain(monkeypatch):
    calls = {"squarefree_part": 0, "sturm_sequence": 0}
    for name in calls:
        def counting(p, name=name, real=getattr(ratpoly, name)):
            calls[name] += 1
            return real(p)
        monkeypatch.setattr(ratpoly, name, counting)
    # the root count and the isolation share one square-free part and one
    # chain; the chain builder takes no square-free part of its own
    phi = obstruction_poly(CubicData.from_extremes(2, 1), F(21, 10))
    cert = certify_nonvanishing(phi, (1, 2))
    assert len(cert.root_intervals) == 1
    assert calls == {"squarefree_part": 1, "sturm_sequence": 1}


def test_sign_variations_ignores_zeros():
    chain = sturm_sequence(P.from_roots((0, 1)))
    assert sign_variations(chain, F(0)) - sign_variations(chain, F(2)) == 1


def test_serialization_roundtrip_and_layout():
    phi = P((8, 0, 0, F(-56, 3)))
    line = poly_to_line(phi)
    assert line == "-56/3 0 0 8"
    assert poly_from_line(line) == phi
    assert poly_to_line(P(())) == "0"
    with pytest.raises(FormatError):
        poly_from_line("1/0 2")


def test_as_fraction_parses_text_exactly():
    assert as_fraction("1e-3") == F(1, 1000)
    assert as_fraction("2.5E+2") == F(250)
    assert as_fraction("-1/2") == F(-1, 2)
    assert as_fraction(" 1e4300 ") == F(10) ** 4300
    assert as_fraction("1e-4300") == F(1, 10 ** 4300)
    for text in ("1e4301", "1E-4301", "1e1_0000", "2.5e+99999"):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)


def test_huge_exponents_are_rejected_before_they_are_expanded():
    start = time.perf_counter()
    with pytest.raises(FormatError, match="exponent"):
        poly_from_line("1 1e100000000 0")
    assert time.perf_counter() - start < 1.0
