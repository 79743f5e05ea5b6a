"""The integer certificate against its Fraction oracle (``sturm_reference``).

``ratpoly`` evaluates, builds Sturm chains and bisects on integers; the
oracle does the same on Fractions.  Certificates must agree line for line,
evaluation must agree value for value, and every chain member must be a
positive multiple of the canonical one.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sturm_reference as ref
from hcmu_lab import cli, ratpoly
from hcmu_lab.algebra import CubicData, certify_nonvanishing, obstruction_poly
from hcmu_lab.ratpoly import RationalPoly, first_nonroot, sturm_sequence
from polyarith import from_roots, mul

F = Fraction
P = RationalPoly

# small coefficients with 0 drawn often, and coefficients over denominators
# up to 10^30
coefficients = st.one_of(
    st.sampled_from([F(0), F(0), F(1), F(-1)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=16),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)))
polys = st.lists(coefficients, max_size=7).map(P)
points = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=64),
    st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polys, points, st.lists(points, max_size=2))
def test_integer_evaluation_matches_horner(p, x, roots):
    # roots multiply in: x itself is then an exact root of q
    q = mul(p, from_roots([x] + roots))
    for poly in (p, q, P(())):
        want = ref.horner(poly, x)
        A, D = ratpoly._over_denominator(poly.coeffs)
        assert D > 0 and all(type(a) is int for a in A)
        value = ratpoly._value_at(A, x.numerator, x.denominator)
        # d^k A(n/d) is poly(n/d) times D d^k, exactly
        assert value == want * D * x.denominator ** max(len(A) - 1, 0)
        assert _sign(value) == _sign(want)
        assert first_nonroot(poly, [x]) == (x if want else None)
    assert first_nonroot(q, [x]) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys)
# chains with a degree drop of two onto a member with a negative leading
# coefficient, where the pseudo-remainder multiplier is an odd power
@example(P((-2, -2, 1, 0, 0, 1)))
@example(P((-2, -2, -2, -2, -1, -1)))
def test_sturm_members_are_positive_multiples_of_the_canonical_chain(p):
    if p.degree > 0:
        A = ratpoly._over_denominator(p.coeffs)[0]
        chain, canonical = sturm_sequence(A), ref.sturm_chain(p)
        assert len(chain) == len(canonical)
        for member, c in zip(chain, canonical):
            assert ref.is_positive_multiple(member, c)


def _draws(rng: random.Random, n: int):
    # (K1, K2, c): a quarter cusp pairs, the rest conical, over small and
    # large denominators
    for i in range(n):
        den = rng.choice([8, 16, 32, 3, 10, 2 ** 20])
        k1 = F(rng.randint(1, 64), rng.choice([1, 2, 4, 8, 16]))
        if i % 4 == 0:
            k2 = -k1 / 2
        else:
            k2 = -k1 / 2 + F(3, 2) * k1 * F(rng.randint(1, den - 1), den)
        yield k1, k2, F(rng.randint(-6 * den, 6 * den), den)


def _at_bound(rng: random.Random, n: int):
    # K1, K2 and c with 200-digit numerators and denominators, then one
    # more pair with c at K1, K2 and K3, where Phi has a double root, at an
    # end of (K2, K1) or outside it
    bound = cli.MAX_EXACT_DIGITS
    nines = int("9" * bound)
    big = lambda: rng.randrange(10 ** (bound - 1), 10 ** bound)
    yield F(nines), F(1), F(1, nines)
    for _ in range(n - 1):
        k1 = F(big(), big())
        k2 = -k1 / 2 if rng.random() < 0.25 else F(big(), big()) * F(
            rng.randint(-4, 9), 10)
        if not -k1 / 2 <= k2 < k1:
            k2 = -k1 / 2
        yield k1, k2, F(rng.randrange(-10 ** bound + 1, 10 ** bound), big())
    k1 = F(big(), big())
    k2 = k1 * F(big(), 10 * big())
    for c in (k1, k2, -k1 - k2):
        yield k1, k2, c


def test_certificate_matches_the_fraction_reference():
    rng = random.Random(38)
    cases = []
    params = [
        # double roots at and outside the ends; exact roots met while
        # narrowing, on a cusp pair and beside an irrational root
        (F(3, 8), F(1, 4), F(-5, 8)), (2, -1, -1), (1, F(-1, 2), F(-1, 8)),
        (F(7, 4), F(-1, 4), F(15, 8)),
        *_draws(rng, 320), *_at_bound(rng, 4)]
    for k1, k2, c in params:
        cd = CubicData.from_extremes(k1, k2)
        cases.append((obstruction_poly(cd, c), (cd.k2, cd.k1)))
    # dyadic roots that bisection midpoints hit, a root at the first
    # midpoint, repeated roots and roots at the ends
    for roots, interval in [
            ((F(-3, 8), F(1, 4), F(3, 4)), (-1, 1)),
            ((0, F(1, 3), F(-5, 7)), (-1, 1)),
            ((F(1, 2), F(1, 4), F(-1, 8), F(5, 16), F(5, 16)), (-1, 1)),
            ((0, 0, F(1, 2), 1, F(3, 4)), (0, 1)),
            ((F(-1, 2), F(1, 1024), F(3, 1024), F(1, 2)), (F(-1, 2), 1))]:
        cases.append((from_roots(roots, lead=F(-7, 3)), interval))
    with_roots = exact = 0
    for phi, interval in cases:
        got = certify_nonvanishing(phi, interval)
        assert got.to_lines() == ref.certify(phi, interval).to_lines(), phi
        with_roots += not got.root_free
        exact += any(a == b for a, b in got.root_intervals)
    # the draws reach the root-isolating and the exact-root paths
    assert len(cases) >= 300 and with_roots >= 100 and exact >= 5


def test_narrowing_evaluates_no_fraction_per_step(monkeypatch):
    # one root in (1, 2), narrowed by 32 bisections or more, and the cusp
    # pair's double root at the end K2 = -1, divided out on the way
    phi = obstruction_poly(CubicData.from_extremes(2, 1), F(21, 10))
    cusp = obstruction_poly(CubicData.from_extremes(2, -1), -1)
    calls = []
    real = F.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    cert = certify_nonvanishing(phi, (1, 2))
    assert len(cert.root_intervals) == 1
    assert len(certify_nonvanishing(cusp, (-1, 2)).root_intervals) == 1
    # a handful of Fractions per certificate (its ends and intervals), not
    # one per bisection step
    assert len(calls) < 32
