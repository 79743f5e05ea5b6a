import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sturm_reference as ref
from hcmu_lab import ratpoly
from hcmu_lab.algebra import CubicData, certify_nonvanishing, obstruction_poly
from hcmu_lab.errors import FormatError
from hcmu_lab.ratpoly import (
    ISOLATION_WIDTH,
    RationalPoly,
    _sturm_prepare,
    as_fraction,
    count_roots_between,
    isolate_roots,
    poly_from_line,
    poly_to_line,
    sign_variations,
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
        f = ref.squarefree_part(p)
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


def test_certificate_takes_a_squarefree_part_only_on_a_repeated_root(
        monkeypatch):
    built = []

    def counting(A):
        built.append(A)
        return sturm_sequence(A)

    monkeypatch.setattr(ratpoly, "sturm_sequence", counting)
    # (K1, K2, c), roots isolated in (K2, K1), the chains the certificate
    # builds
    cases = [
        # square-free, no root at an end: Phi's own chain ends in a constant,
        # and it serves the count and the isolation
        ((2, 1, F(21, 10)), 1, 1),
        # a double root at -5/8, outside: Phi's chain ends in K + 5/8, so the
        # square-free part gets a chain of its own
        ((F(3, 8), F(1, 4), F(-5, 8)), 0, 2),
        # the cusp pair's double root at the end K2 = -1: Phi's chain, then
        # the chain of the square-free part with K + 1 divided out
        ((2, -1, -1), 1, 2),
    ]
    for (k1, k2, c), roots, chains in cases:
        built.clear()
        phi = obstruction_poly(CubicData.from_extremes(k1, k2), c)
        cert = certify_nonvanishing(phi, (k2, k1))
        assert len(cert.root_intervals) == roots
        assert len(built) == chains


def test_sign_variations_ignores_zeros():
    chain = sturm_sequence([1, -1, 0])  # K (K - 1)
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


# -- the arithmetic fast paths against schoolbook references -----------------
#
# The references work on plain coefficient tuples and take no shortcut: no
# product by a constant, no sum with zero, no early stop.

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# small Fractions, with 0, +-1 and 2 drawn often so constants, units and
# trailing zeros come up
coefficients = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=8))
# degree -1 to 7, constants as often as longer polynomials
polys = st.one_of(st.lists(coefficients, max_size=1),
                  st.lists(coefficients, max_size=8)).map(P)


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda cs: list(cs) + [F(0)] * (n - len(cs))
    return _strip(x + y for x, y in zip(pad(a), pad(b)))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def ref_pow(a, n):
    out = (F(1),)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_divmod(a, b):
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    for k in reversed(range(len(q))):
        f = rem[k + len(b) - 1] / b[-1]
        q[k] = f
        for i, y in enumerate(b):
            rem[k + i] -= f * y
    return _strip(q), _strip(rem)


def ref_eval(a, x):
    return sum((c * x ** k for k, c in enumerate(a)), F(0))


def ref_derivative(a):
    return _strip(k * c for k, c in enumerate(a) if k)


def assert_made_of_fractions(*results):
    for r in results:
        assert all(type(c) is F for c in r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0


@PROPERTY
@given(polys, polys, coefficients, st.integers(0, 4))
def test_arithmetic_matches_the_schoolbook_references(p, q, c, n):
    a, b = p.coeffs, q.coeffs
    results = {
        "+": (p + q, ref_add(a, b)),
        "-": (p - q, ref_add(a, [-y for y in b])),
        "*": (p * q, ref_mul(a, b)),
        "* scalar": (p * c, ref_mul(a, _strip([c]))),
        "scalar *": (c * q, ref_mul(_strip([c]), b)),
        "+ scalar": (p + c, ref_add(a, _strip([c]))),
        "- scalar": (p - c, ref_add(a, _strip([-c]))),
        "scalar -": (c - q, ref_add(_strip([c]), [-y for y in b])),
        "+ int": (p + n, ref_add(a, _strip([F(n)]))),
        "int +": (n + q, ref_add(_strip([F(n)]), b)),
        "- int": (p - n, ref_add(a, _strip([F(-n)]))),
        "int -": (n - q, ref_add(_strip([F(n)]), [-y for y in b])),
        "**": (p ** n, ref_pow(a, n)),
        "d/dK": (p.derivative(), ref_derivative(a)),
    }
    if q:
        quo, rem = divmod(p, q)
        ref_quo, ref_rem = ref_divmod(a, b)
        results["//"] = (quo, ref_quo)
        results["%"] = (rem, ref_rem)
    for op, (got, want) in results.items():
        assert got.coeffs == want, op
        assert_made_of_fractions(got)
    value = p(c)
    assert type(value) is F and value == ref_eval(a, c)
    for scalar in (c, n):
        assert (p == scalar) == (scalar == p) == (a == _strip([F(scalar)]))


linear_factors = st.lists(
    st.tuples(st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 3), F(1)]),
              st.sampled_from([1, 1, 1, 2, 3])),
    min_size=1, max_size=4)


@PROPERTY
@given(linear_factors, st.sampled_from([F(1), F(-3), F(5, 2)]),
       st.sampled_from([(F(-1), F(1)), (F(-1, 2), F(1, 3)), (F(0), F(1)),
                        (F(-2), F(2)), (F(1, 4), F(3, 4))]))
def test_sturm_prepare_matches_the_squarefree_reference(factors, lead,
                                                        interval):
    # repeated roots inside and outside (lo, hi), and roots at lo or hi
    lo, hi = interval
    p = P.constant(lead)
    for r, mult in factors:
        p = p * P((-r, 1)) ** mult
    f, _ = ref.sturm_prepare(p, lo, hi)
    chain, canonical = _sturm_prepare(p, lo, hi), ref.sturm_chain(f)
    assert len(chain) == len(canonical)
    for A, c in zip(chain, canonical):
        assert ref.is_positive_multiple(A, c)
