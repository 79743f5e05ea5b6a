import random
from fractions import Fraction

import pytest

import mu_extension
from conftest import fraction_sqrt, random_admissible_pair, random_rational
from hcmu_lab import cli, ratpoly
from hcmu_lab.algebra import CubicData, certify_nonvanishing, obstruction_poly
from hcmu_lab.errors import AlgebraConsistencyError, InadmissibleParams
from hcmu_lab.ratpoly import RationalPoly
from mu_extension import MuElement, derive, expand_mu_square
from obstruction_file import certificate_from_lines
from polyarith import add, derivative, from_roots, mul, power, sub
from sturm_reference import horner

F = Fraction


def oracle_cubic(k1: F, k2: F) -> RationalPoly:
    # Straight-line expansion of -(4/3)(K-k1)(K-k2)(K-k3) with k3 = -(k1+k2):
    # elementary symmetric functions, no shared code path with from_roots.
    k3 = -(k1 + k2)
    e1 = k1 + k2 + k3
    e2 = k1 * k2 + k1 * k3 + k2 * k3
    e3 = k1 * k2 * k3
    lead = F(-4, 3)
    return RationalPoly((lead * -e3, lead * e2, lead * -e1, lead))


def test_expanded_cubic_matches_the_oracle():
    cd = CubicData.from_extremes(2, 1)
    P = expand_mu_square(cd)
    assert P == oracle_cubic(F(2), F(1))
    assert P.coeffs == (F(-8), F(28, 3), F(0), F(-4, 3))
    assert P.degree == 3 and P.coeffs[-1] == F(-4, 3)
    assert horner(P, cd.k1) == 0  # K1 is a root by construction


def test_cusp_cubic_has_a_double_root():
    cd = CubicData.from_extremes(1, F(-1, 2))
    assert cd.kind == "cusp"
    P = expand_mu_square(cd)
    assert P == from_roots((1, F(-1, 2), F(-1, 2)), lead=F(-4, 3))
    assert horner(P, F(-1, 2)) == 0
    assert horner(derivative(P), F(-1, 2)) == 0


def test_cubic_admissibility_is_enforced():
    with pytest.raises(InadmissibleParams):
        CubicData.from_extremes(-1, -2)
    with pytest.raises(InadmissibleParams):
        CubicData.from_extremes(1, 1)
    with pytest.raises(InadmissibleParams):
        CubicData.from_extremes(1, -2)


def test_coefficients_follow_the_product_expansion():
    # The odd coefficients are defined by expanding the product form; the
    # 3/4-prefactor variants one might write down instead do not reproduce
    # that expansion (and would flip a sign), so they must disagree here.
    cd = CubicData.from_extremes(2, 1)
    assert cd.p1 == F(4, 3) * (4 + 2 + 1)
    assert cd.p0 == -F(4, 3) * 2 * 1 * 3
    wrong_p1 = F(3, 4) * (cd.k1 ** 2 + cd.k2 ** 2 + cd.k1 * cd.k2)
    wrong_p0 = F(3, 4) * cd.k1 * cd.k2 * (cd.k1 + cd.k2)
    assert cd.p1 != wrong_p1
    assert cd.p0 != wrong_p0
    # and the product-form cubic actually vanishes at all three roots
    P = cd.poly()
    for r in (cd.k1, cd.k2, cd.k3):
        assert horner(P, r) == 0


def test_derive_variable_and_square():
    cd = CubicData.from_extremes(3, F(1, 2))
    P = cd.poly()
    K = MuElement.var(P)
    one = derive(K)
    assert one == MuElement.scalar(1, P)
    mu = MuElement.mu(P)
    # 2 mu mu' is the plain polynomial P'
    lhs = 2 * mu * derive(mu)
    assert lhs.is_pure()
    assert lhs.as_polynomial() == derivative(P)


def test_second_derivative_identity():
    # mu mu'' + (mu')^2 reduces to the polynomial -4K
    cd = CubicData.from_extremes(F(5, 2), F(-1, 3))
    P = cd.poly()
    mu = MuElement.mu(P)
    mu1 = derive(mu)
    expr = mu * derive(mu1) + mu1 * mu1
    assert expr.is_pure()
    assert expr.as_polynomial() == RationalPoly((0, -4))


def test_second_derivative_identity_random_pairs():
    rng = random.Random(20240)
    target = RationalPoly((0, -4))
    for _ in range(30):
        k1, k2 = random_admissible_pair(rng)
        P = CubicData.from_extremes(k1, k2).poly()
        mu = MuElement.mu(P)
        mu1 = derive(mu)
        assert (mu * derive(mu1) + mu1 * mu1).as_polynomial() == target


def test_derive_satisfies_leibniz():
    rng = random.Random(99)
    P = CubicData.from_extremes(2, 1).poly()

    def rand_elem():
        mk = lambda n: RationalPoly([rng.randint(-4, 4) for _ in range(n)])
        return MuElement(mk(rng.randint(1, 3)), mk(rng.randint(1, 3)), P)

    for _ in range(25):
        x, y = rand_elem(), rand_elem()
        assert derive(x * y) == derive(x) * y + x * derive(y)


def test_evaluation_commutes_with_arithmetic():
    # find admissible (k1, k2) and rational K0 where P(K0) is a square
    rng = random.Random(5)
    found = None
    for _ in range(20000):
        k1, k2 = random_admissible_pair(rng)
        K0 = k2 + (k1 - k2) * F(rng.randint(1, 19), 20)
        cd = CubicData.from_extremes(k1, k2)
        root = fraction_sqrt(horner(cd.poly(), K0))
        if root is not None and root != 0:
            found = (cd, K0, root)
            break
    assert found is not None, "no rational square point located"
    cd, K0, mu0 = found
    P = cd.poly()
    x = MuElement(RationalPoly((1, 2)), RationalPoly((0, 1)), P)
    y = MuElement(RationalPoly((F(1, 3),)), RationalPoly((2, -1)), P)
    assert (x * y).evaluate(K0, mu0) == x.evaluate(K0, mu0) * y.evaluate(K0, mu0)
    assert (x + y).evaluate(K0, mu0) == x.evaluate(K0, mu0) + y.evaluate(K0, mu0)
    # d/dK from mu' = P'/(2P) mu, written out on the components of x
    a, b, dP = x.a, x.b, derivative(P)
    dx0 = (horner(derivative(a), K0)
           + (horner(derivative(b), K0)
              + horner(b, K0) * horner(dP, K0) / (2 * horner(P, K0))) * mu0)
    dx = derive(x)
    assert dx.evaluate(K0, mu0) == dx0
    # products with the derivative carry a denominator P^k with k >= 1
    for z in (dx * y, dx * dx, derive(dx) * x + dx):
        assert z.k >= 1
    assert (dx * y).evaluate(K0, mu0) == dx0 * y.evaluate(K0, mu0)
    assert (dx * dx).evaluate(K0, mu0) == dx0 * dx0
    assert (dx - y).evaluate(K0, mu0) == dx0 - y.evaluate(K0, mu0)


def test_elements_are_kept_in_canonical_form():
    # (a P^j + b P^j mu) / P^(k+j) reduces to (a + b mu) / P^k
    rng = random.Random(41)
    P = CubicData.from_extremes(F(5, 2), F(-5, 4)).poly()  # a cusp cubic
    mk = lambda: RationalPoly([F(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(rng.randint(1, 4))])
    for _ in range(20):
        a, b = mk(), mk()
        # a times a non-constant factor of P: P still does not divide it
        a = mul(a, RationalPoly((F(5, 4), 1)))
        k, j = rng.randint(1, 3), rng.randint(1, 3)
        x = MuElement(a, b, P, k)
        assert (x.a, x.b, x.k) == (a, b, k)
        y = MuElement(mul(a, power(P, j)), mul(b, power(P, j)), P, k + j)
        assert (y.a, y.b, y.k) == (a, b, k)
        assert x == y and hash(x) == hash(y)
        assert x != MuElement(a, b, P, k + 1)
        assert x - y == MuElement.scalar(0, P)
    zero = MuElement(RationalPoly(()), RationalPoly(()), P, 3)
    assert zero.k == 0 and zero == MuElement.scalar(0, P)
    # mu' mu = P'/2 clears its denominator
    mu = MuElement.mu(P)
    assert (derive(mu) * mu).k == 0
    assert derive(mu).k == 1


def hand_expanded_obstruction(cd: CubicData, c: F) -> RationalPoly:
    # -16 K (K-c)^2 + (K-c)(-4 K^2 + p1) - (-(4/3) K^3 + p1 K + p0),
    # collected by hand: no polynomial product, no shared code path with
    # the kernel's closed form or with the extension
    return RationalPoly((-(cd.p1 * c + cd.p0), -16 * c * c, 36 * c,
                         F(-56, 3)))


def test_obstruction_example_and_root_location():
    cd = CubicData.from_extremes(2, 1)
    phi = obstruction_poly(cd, 0)
    assert phi == RationalPoly((8, 0, 0, F(-56, 3)))
    assert phi == mu_extension.obstruction(cd, F(0))
    assert phi == hand_expanded_obstruction(cd, F(0))
    cert = certify_nonvanishing(phi, (1, 2))
    assert cert.root_free
    assert str(cert) == "no root in (1, 2)"
    # the unique real root is (3/7)^(1/3) ~ 0.754, outside (1, 2)
    assert certify_nonvanishing(phi, (0, 1)).root_free is False


def test_obstruction_at_k1_closed_form():
    # P(K1) = 0 kills the -mu^2 term: Phi(K1) = (K1-c)(-16 K1 (K1-c) + P'(K1))
    cd = CubicData.from_extremes(F(7, 2), F(3, 4))
    c = F(-2, 3)
    phi = obstruction_poly(cd, c)
    P = cd.poly()
    t = cd.k1 - c
    assert horner(phi, cd.k1) == t * (-16 * cd.k1 * t
                                      + horner(derivative(P), cd.k1))


def test_obstruction_random_leading_coefficient():
    # the closed form against Phi expanded in the extension and against the
    # coefficients collected by hand, on 300 draws, 75 of them cusp pairs
    rng = random.Random(777)
    for i in range(300):
        k1, k2 = random_admissible_pair(rng)
        if i % 4 == 0:
            k2 = -k1 / 2  # the cusp, which random_admissible_pair never draws
        c = random_rational(rng)
        cd = CubicData.from_extremes(k1, k2)
        phi = obstruction_poly(cd, c)
        assert phi.degree == 3
        assert phi.coeffs[-1] == F(-56, 3)
        assert phi == mu_extension.obstruction(cd, c)
        assert phi == hand_expanded_obstruction(cd, c)


def test_obstruction_makes_no_polynomial_product_or_evaluation():
    # RationalPoly has no arithmetic and cannot be evaluated: the kernel
    # forms Phi from its coefficient formulas and checks P's roots on
    # integers, and the tests' products and values come from polyarith and
    # sturm_reference
    p = RationalPoly((1, 2))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__pow__", "__divmod__",
                 "__floordiv__", "__mod__", "__call__", "derivative"):
        assert not hasattr(p, name), name
    for k1, k2, c in ((2, 1, F(21, 10)), (1, F(-1, 2), 0),
                      (F(7, 4), F(-1, 3), -5)):
        cd = CubicData.from_extremes(k1, k2)
        phi = obstruction_poly(cd, c)
        assert phi == mu_extension.product_form_obstruction(cd, c)


def _reference_draws(rng: random.Random, n: int):
    # (K1, K2, c): every fourth a cusp pair, the rest conical, over small
    # and large denominators
    for i in range(n):
        k1, k2 = random_admissible_pair(rng)
        if i % 4 == 0:
            k2 = -k1 / 2
        den = rng.choice([1, 3, 10, 2 ** 20, 10 ** 12])
        yield k1, k2, F(rng.randint(-60 * den, 60 * den), den)


def _reference_draws_at_bound(rng: random.Random):
    # 200-digit numerators and denominators: the slowest bounded input,
    # then c at K1, K2 and K3 of a conical pair and of a cusp pair
    bound = cli.MAX_EXACT_DIGITS
    nines = int("9" * bound)
    big = lambda: rng.randrange(10 ** (bound - 1), 10 ** bound)
    yield F(nines), F(1), F(1, nines)
    k1 = F(big(), big())
    for k2 in (k1 * F(big(), 10 * big()), -k1 / 2):
        for c in (k1, k2, -k1 - k2):
            yield k1, k2, c


def test_obstruction_matches_its_three_references():
    # the coefficient formulas against the product form, Phi expanded in
    # the extension and the coefficients collected by hand, on 300 seeded
    # draws (75 of them cusp pairs) and 7 inputs at the digit bound
    rng = random.Random(40)
    cases = [*_reference_draws(rng, 300), *_reference_draws_at_bound(rng)]
    cusps = 0
    for k1, k2, c in cases:
        cd = CubicData.from_extremes(k1, k2)
        phi = obstruction_poly(cd, c)
        assert all(type(a) is F for a in phi.coeffs)
        assert phi.degree == 3 and phi.coeffs[-1] == F(-56, 3)
        assert phi == mu_extension.product_form_obstruction(cd, c)
        assert phi == mu_extension.obstruction(cd, c)
        assert phi == hand_expanded_obstruction(cd, c)
        cusps += cd.kind == "cusp"
    assert len(cases) >= 300 and cusps >= len(cases) // 4


def test_obstruction_formulas_hold_for_a_general_cubic(monkeypatch):
    # a P with all four coefficients nonzero, which CubicData never makes
    # (its a2 is 0): the formulas are general in P, not hard-coded
    rng = random.Random(41)
    cd = CubicData.from_extremes(2, 1)
    for _ in range(40):
        cs = [random_rational(rng) or F(1) for _ in range(4)]
        monkeypatch.setattr(CubicData, "poly",
                            lambda self: RationalPoly(cs))
        c = random_rational(rng)
        phi = obstruction_poly(cd, c)
        assert phi == mu_extension.product_form_obstruction(cd, c)
        assert phi.coeffs[-1] == 14 * cs[3]


def test_certify_trivial_constant():
    cert = certify_nonvanishing(RationalPoly((F(5, 3),)), (0, 1))
    assert cert.root_free and cert.root_intervals == ()


def test_certify_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        certify_nonvanishing(RationalPoly(()), (0, 1))


def test_certificate_counts_match_dense_sampling():
    # exceptional ambient value: roots may fall inside the curvature range
    cd = CubicData.from_extremes(2, 1)
    phi = obstruction_poly(cd, 100)
    cert = certify_nonvanishing(phi, (1, 2))
    # dense sign sampling as the independent count
    n = 10_000
    changes = 0
    prev = horner(phi, F(1) + F(1, n))
    for i in range(2, n):
        cur = horner(phi, F(1) + F(i, n))
        if prev * cur < 0:
            changes += 1
        if cur != 0:
            prev = cur
    assert len(cert.root_intervals) == changes
    assert not cert.root_free or changes == 0


def test_certificate_serialization_roundtrip():
    cd = CubicData.from_extremes(2, 1)
    for c in (F(0), F(100)):
        cert = certify_nonvanishing(obstruction_poly(cd, c), (1, 2))
        back = certificate_from_lines(cert.to_lines())
        assert back == cert


def test_mu_component_purity_is_policed():
    P = CubicData.from_extremes(2, 1).poly()
    impure = MuElement.mu(P)
    with pytest.raises(AlgebraConsistencyError):
        impure.as_polynomial()


def test_the_extension_rejects_the_zero_polynomial():
    with pytest.raises(ZeroDivisionError,
                       match="^extension over the zero polynomial$"):
        MuElement(0, 1, RationalPoly(()))


# Each check of the extension's Phi and each proof check of obstruction_poly
# and certify_nonvanishing, reached by breaking one collaborator: the check
# refuses to answer rather than emit a wrong polynomial or certificate.  The
# cusp (1, -1/2) has a P with a double root, which shares a factor with P'.
_FAULT_CASES = [(2, 1, 0), (1, F(-1, 2), 0), (F(7, 4), F(-1, 3), -5)]


@pytest.mark.parametrize("k1, k2, c", _FAULT_CASES)
def test_a_derive_that_swaps_the_parts_trips_the_mu_component_check(
        monkeypatch, k1, k2, c):
    # mu' comes out rational, so the term mu' mu keeps a mu-part
    def swapped(elem):
        d = derive(elem)
        return MuElement(d.b, d.a, d.P, d.k)

    monkeypatch.setattr(mu_extension, "derive", swapped)
    with pytest.raises(AlgebraConsistencyError,
                       match="^obstruction kept a mu-component$"):
        mu_extension.obstruction(CubicData.from_extremes(k1, k2), c)


@pytest.mark.parametrize("k1, k2, c", _FAULT_CASES)
def test_a_derive_without_the_half_trips_the_denominator_check(
        monkeypatch, k1, k2, c):
    # mu' = P'/P mu instead of P'/(2P) mu: mu'' mu + mu'^2 comes out as
    # P'' + P'^2/P, and P does not divide P'^2 (at the cusp, P' lacks
    # P's simple root)
    def no_half(elem):
        P, a, b, k = elem.P, elem.a, elem.b, elem.k
        dP = derivative(P)
        return MuElement(sub(mul(P, derivative(a)), mul(k, dP, a)),
                         add(mul(P, derivative(b)), mul(1 - k, dP, b)),
                         P, k + 1)

    monkeypatch.setattr(mu_extension, "derive", no_half)
    with pytest.raises(AlgebraConsistencyError,
                       match="^obstruction kept a denominator$"):
        mu_extension.obstruction(CubicData.from_extremes(k1, k2), c)


def test_a_cubic_that_lost_its_leading_term_trips_the_degree_check(
        monkeypatch):
    # P = p1 K + p0 leaves Phi = P'/2 s - P = -(p1 c + p0), a nonzero
    # constant at (2, 1, 0)
    cd = CubicData.from_extremes(2, 1)
    monkeypatch.setattr(CubicData, "poly",
                        lambda self: RationalPoly((self.p0, self.p1)))
    with pytest.raises(AlgebraConsistencyError,
                       match="^obstruction degree 0 != 3$"):
        obstruction_poly(cd, 0)


def test_an_isolation_that_drops_a_root_trips_the_sturm_check(monkeypatch):
    # K (3K - 1) (7K + 5) has its three roots in (-1, 1), and the first
    # midpoint, 0, is one of them; a deflation by K that loses the other two
    # leaves isolate_roots one interval short of the Sturm count
    phi = RationalPoly((0, -5, 8, 21))
    monkeypatch.setattr(ratpoly, "_quotient", lambda A, B: [1])
    with pytest.raises(AlgebraConsistencyError,
                       match="^isolation disagrees with Sturm count$"):
        certify_nonvanishing(phi, (-1, 1))
