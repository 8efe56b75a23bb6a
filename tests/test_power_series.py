import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lienorm import normalform, num
from lienorm.power_series import (
    CompositionDomainError,
    InsufficientTruncationError,
    NonTerminatingExponentialError,
    NotInvertibleError,
    TruncSeries,
    _raw_mul,
    apply_derivation,
    j_map,
    lie_exp,
)

Z = TruncSeries.x


def series(coeffs, n=None):
    return TruncSeries([F(c) for c in coeffs], n)


# strategy: small exact rational coefficients
rationals = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=6
)
small_series = st.lists(rationals, min_size=1, max_size=8).map(TruncSeries)


class TestArithmetic:
    def test_add_doubles(self):
        assert Z(5) + Z(5) == series([0, 2], 5)

    def test_add_zero_identity(self):
        f = series([1, 2, 3])
        assert f + TruncSeries.zero(2) == f

    def test_add_builds_morse_start(self):
        f0 = TruncSeries.monomial(2, 5, F(1, 2)) + TruncSeries.monomial(3, 5)
        assert f0.coeffs[2] == F(1, 2) and f0.coeffs[3] == 1

    def test_mul_monomials(self):
        assert Z(4) * Z(4) == TruncSeries.monomial(2, 4)

    def test_mul_one_identity(self):
        f = series([5, -1, 7])
        assert f * TruncSeries.one(2) == f

    def test_mul_truncation_tightens_with_order(self):
        # phi^2/2 for phi = z + z^2 - z^3/2 + z^4/2 is certified to z^5
        phi = series([0, 1, 1, F(-1, 2), F(1, 2)])
        sq = (phi * phi).scale(F(1, 2))
        assert sq.trunc_order == 5
        assert sq == series([0, 0, F(1, 2), 1, 0, 0], 5)

    def test_equality_on_common_truncation(self):
        assert series([1, 2], 1) == series([1, 2, 99], 2)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TruncSeries([0.5])


class TestCompose:
    def test_identity_substitution(self):
        f = series([3, 1, 4, 1])
        assert f.compose(Z(3)) == f

    def test_morse_sqrt_identity(self):
        # a(phi) = z^2/2 + z^3 for phi = z sqrt(1+2z)
        phi = series([0, 1, 1, F(-1, 2), F(1, 2)])
        a = TruncSeries.monomial(2, 5, F(1, 2))
        got = a.compose(phi)
        assert got.trunc_order >= 5
        assert got == series([0, 0, F(1, 2), 1, 0, 0], 5)

    def test_compose_with_inverse_gives_z(self):
        phi = Z(6) * series([1, 1], 5).binomial_pow(F(1, 2))
        psi = phi.invert()
        assert phi.compose(psi) == Z(psi.trunc_order - 1)

    def test_nonzero_constant_rejected(self):
        with pytest.raises(CompositionDomainError):
            Z(3).compose(TruncSeries.one(3))


class TestInvert:
    def test_identity(self):
        assert Z(5).invert() == Z(5)

    def test_reference_inverse_coefficients(self):
        phi = (series([1, 2], 5).binomial_pow(F(1, 2)) * Z(6)).truncate(5)
        psi = phi.invert()
        assert psi == series([0, 1, -1, F(5, 2), -8, F(231, 8)], 5)

    def test_geometric_pair(self):
        # z/(1-z) inverts to z/(1+z)
        f = series([0] + [1] * 8)
        g = f.invert()
        expected = series([0] + [(-1) ** (k) for k in range(8)])
        assert g == expected

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            series([1, 1]).invert()
        with pytest.raises(NotInvertibleError):
            series([0, 0, 1]).invert()


class TestBinomialPow:
    def test_sqrt_one_plus_two_z(self):
        got = series([1, 2], 3).binomial_pow(F(1, 2))
        assert got == series([1, 1, F(-1, 2), F(1, 2)], 3)

    def test_power_of_one(self):
        assert TruncSeries.one(4).binomial_pow(F(7, 3)) == TruncSeries.one(4)

    def test_negative_integer_power(self):
        got = series([1, 1], 3).binomial_pow(-2)
        assert got == series([1, -2, 3, -4], 3)

    def test_rejects_wrong_constant(self):
        with pytest.raises(ValueError):
            series([2, 1]).binomial_pow(F(1, 2))


class TestCalculus:
    def test_derivative_of_square(self):
        assert TruncSeries.monomial(2, 5, F(1, 2)).derivative() == Z(4)

    def test_derivative_of_constant(self):
        assert series([7], 3).derivative().is_zero()

    def test_derivative_of_cube(self):
        assert TruncSeries.monomial(3, 5).derivative() == series([0, 0, 3], 4)

    def test_derivative_drops_truncation(self):
        assert series([1, 2, 3]).derivative().trunc_order == 1

    def test_nabla(self):
        assert TruncSeries.monomial(4, 6).nabla() == TruncSeries.monomial(4, 6, 4)
        assert series([9], 2).nabla().is_zero()
        assert series([0, 1, 2]).nabla() == series([0, 1, 4])

    def test_hadamard_unit(self):
        f = series([2, -3, 5, 7])
        assert f.hadamard(TruncSeries([1] * 4)) == f

    def test_hadamard_disjoint_support(self):
        assert TruncSeries.monomial(2, 4).hadamard(TruncSeries.monomial(3, 4)).is_zero()

    def test_weierstrass_split(self):
        q, p = series([1, 2, 3, 4]).weierstrass_div_monomial(2)
        assert q == series([3, 4], 1)
        assert p == series([1, 2], 1)

    def test_weierstrass_degenerate_cases(self):
        f = series([1, 2, 3])
        q, p = f.weierstrass_div_monomial(0)
        assert q == f and p.is_zero()
        q, p = TruncSeries.monomial(3, 3).weierstrass_div_monomial(3)
        assert q == TruncSeries.one(0) and p.is_zero()

    def test_weierstrass_needs_truncation(self):
        with pytest.raises(InsufficientTruncationError):
            series([1, 2]).weierstrass_div_monomial(5)


class TestDerivations:
    def test_j_map_cubic(self):
        assert j_map(TruncSeries.monomial(3, 6)) == TruncSeries.monomial(2, 5)

    def test_j_map_strips_constant(self):
        assert j_map(series([1, 1], 4)) == TruncSeries.one(3)

    def test_j_map_zero(self):
        assert j_map(TruncSeries.zero(4)).is_zero()

    def test_apply_derivation_on_normal_form(self):
        v = TruncSeries.monomial(2, 8)
        a = TruncSeries.monomial(2, 8, F(1, 2))
        assert apply_derivation(v, a) == TruncSeries.monomial(3, 8)

    def test_apply_derivation_constant(self):
        v = TruncSeries.monomial(2, 5)
        assert apply_derivation(v, series([4], 5)).is_zero()

    def test_apply_derivation_z(self):
        v = TruncSeries.monomial(2, 5)
        assert apply_derivation(v, Z(5)) == TruncSeries.monomial(2, 5)


class TestLieExp:
    def test_first_morse_push(self):
        v = TruncSeries.monomial(2, 11)
        f0 = TruncSeries.monomial(2, 11, F(1, 2)) + TruncSeries.monomial(3, 11)
        got = lie_exp(v, f0)
        expected = series(
            [0, 0, F(1, 2), 0, F(-3, 2), 4, F(-15, 2), 12, F(-35, 2), 24,
             F(-63, 2)],
            10,
        )
        assert got == expected

    def test_zero_derivation_is_identity(self):
        f = series([0, 2, 3, 4])
        assert lie_exp(TruncSeries.zero(3), f) == f

    def test_alternating_geometric(self):
        v = TruncSeries.monomial(2, 9)
        got = lie_exp(v, Z(9))
        assert got == series([0] + [(-1) ** k for k in range(9)])

    def test_rejects_low_order(self):
        with pytest.raises(NonTerminatingExponentialError):
            lie_exp(Z(4), Z(4))

    def test_products_stay_inside_the_window_of_the_sum(self, monkeypatch):
        # a term's coefficients past the sum's truncation order are dropped,
        # so no product should compute them
        orders = []
        mul = TruncSeries.__mul__

        def spy(self, other):
            out = mul(self, other)
            orders.append(out.trunc_order)
            return out

        def checked(v, f):
            orders.clear()
            out = lie_exp(v, f)
            assert orders and max(orders) <= out.trunc_order
            return out

        monkeypatch.setattr(TruncSeries, "__mul__", spy)
        monkeypatch.setattr(normalform, "lie_exp", checked)
        n = normalform.default_trunc_order(3)
        trace = normalform.lie_iterate_formal(
            normalform.quadratic_normal_form(n), TruncSeries.monomial(3, n), 3)
        assert len(trace) == 4


class TestSerialization:
    def test_round_trip(self):
        f = series([F(-295245, 16), F(1, 3), 7], 4)
        assert TruncSeries.from_dict(f.to_dict()) == f

    def test_fraction_strings(self):
        d = TruncSeries.monomial(1, 1, F(-295245, 16)).to_dict()
        assert d["coeffs"][1] == "-295245/16"

    @pytest.mark.parametrize("copier", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_rebuild_canonical(self, copier):
        f = series([F(-295245, 16), F(1, 3), 7, 0], 4)
        g = copier(f)
        assert type(g) is TruncSeries and g == f
        assert (g._num, g._den, g.trunc_order) == (f._num, f._den, f.trunc_order)
        assert math.gcd(g._den, *g._num) == 1
        assert g.coeffs == f.coeffs


class TestNum:
    def test_exact_values_become_fractions(self):
        assert type(num(3)) is F and num(3) == 3
        x = F(2, 7)
        assert num(x) is x

    def test_floats_stay_floats(self):
        assert type(num(0.5)) is float and num(0.5) == 0.5


# -- algebraic laws -----------------------------------------------------


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    lhs = (f * g) * h
    rhs = f * (g * h)
    n = min(lhs.trunc_order, rhs.trunc_order)
    assert lhs.truncate(n) == rhs.truncate(n)
    assert f * (g + h) == f * g + f * h


@given(st.lists(rationals, min_size=2, max_size=7))
@settings(max_examples=50, deadline=None)
def test_inverse_round_trip(tail):
    f = TruncSeries([F(0), F(1)] + tail)
    g = f.invert()
    n = f.trunc_order - 1
    assert f.compose(g) == Z(n)
    assert g.compose(f) == Z(n)


@given(st.lists(rationals, min_size=1, max_size=7))
@settings(max_examples=50, deadline=None)
def test_rho_after_j_is_identity(tail):
    # rho(v) = v(z^2/2) = z*v; on zero-constant series rho(j(b)) = b
    b = TruncSeries([F(0)] + tail)
    a = TruncSeries.monomial(2, b.trunc_order + 1, F(1, 2))
    assert apply_derivation(j_map(b), a) == b


@given(st.lists(rationals, min_size=0, max_size=4),
       small_series, small_series)
@settings(max_examples=40, deadline=None)
def test_lie_exp_is_ring_morphism(vtail, f, g):
    v = TruncSeries([F(0), F(0)] + vtail, 8)
    fg = lie_exp(v, f * g)
    sep = lie_exp(v, f) * lie_exp(v, g)
    n = min(fg.trunc_order, sep.trunc_order)
    assert fg.truncate(n) == sep.truncate(n)


@given(st.lists(rationals, min_size=0, max_size=4), small_series)
@settings(max_examples=40, deadline=None)
def test_lie_exp_is_substitution(vtail, f):
    v = TruncSeries([F(0), F(0)] + vtail, 8)
    whole = lie_exp(v, f)
    sigma = lie_exp(v, TruncSeries.x(8))
    composed = f.compose(sigma)
    n = min(whole.trunc_order, composed.trunc_order)
    assert whole.truncate(n) == composed.truncate(n)


@given(small_series, small_series, small_series)
@settings(max_examples=40, deadline=None)
def test_hadamard_laws(f, g, h):
    assert f.hadamard(g) == g.hadamard(f)
    assert f.hadamard(g).hadamard(h) == f.hadamard(g.hadamard(h))
    n = f.trunc_order
    assert f.nabla() == f.hadamard(TruncSeries([F(k) for k in range(n + 1)], n))


@given(small_series, st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_weierstrass_reconstruction(f, d):
    if d > f.trunc_order:
        d = f.trunc_order
    q, p = f.weierstrass_div_monomial(d)
    rebuilt = TruncSeries.monomial(d, f.trunc_order, 1) * q + p if d else q
    assert rebuilt == f


# -- the product and composition kernels against plain references -------

# signed rationals with small and with huge numerators and denominators
mixed_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**30)),
)


def schoolbook(a, b, n):
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def horner_compose(f, g):
    """(coeffs, trunc_order) of f(g) by Horner, at compose's working order."""
    def eff_order(s):
        return min(s.order, s.trunc_order + 1)

    og, od = eff_order(g), eff_order(f.derivative())
    n = min(og * (f.trunc_order + 1), od * og + g.trunc_order + 1) - 1
    gc = list(g.coeffs[: n + 1]) + [F(0)] * (n + 1 - len(g.coeffs))
    out = [F(0)] * (n + 1)
    for c in reversed(f.coeffs):
        out = schoolbook(out, gc, n)
        out[0] += c
    return out, n


# the product kernel's integer vectors: small and huge, signed, all zero,
# or behind a run of leading zeros
int_vectors = st.one_of(
    st.lists(st.integers(-(10**70), 10**70), max_size=10),
    st.lists(st.integers(-3, 3), max_size=10),
    st.lists(st.just(0), max_size=10),
    st.builds(lambda k, v: [0] * k + v, st.integers(min_value=1, max_value=8),
              st.lists(st.integers(-(10**70), 10**70), max_size=8)),
)


@given(int_vectors, int_vectors, st.integers(min_value=0, max_value=22))
@settings(max_examples=200, deadline=None)
def test_raw_mul_matches_schoolbook(a, b, n):
    got = _raw_mul(a, b, n)
    assert len(got) == n + 1
    assert all(type(c) is int for c in got)
    assert got == schoolbook(a, b, n)


def _inner(order, linear, tail, m):
    """Inner series of the given order, linear coefficient and tail,
    truncated at m."""
    coeffs = ([F(0), linear] if order == 1 else [F(0)] * order) + tail
    return TruncSeries(coeffs[: m + 1], m)


outer_series = st.lists(mixed_rationals, min_size=1, max_size=12).map(TruncSeries)
tails = st.lists(mixed_rationals, max_size=12)
truncs = st.integers(min_value=0, max_value=14)
nonzero = mixed_rationals.filter(lambda x: x != 0)


def assert_compose_matches_horner(f, g):
    got = f.compose(g)
    want, n = horner_compose(f, g)
    assert_canonical(got)
    assert got.trunc_order == n
    assert list(got.coeffs) == want


@given(outer_series, st.integers(min_value=2, max_value=5), tails, truncs)
@settings(max_examples=80, deadline=None)
def test_compose_near_identity_matches_horner(f, oh, tail, m):
    # z + h with ord(h) >= oh
    h = [F(0)] * oh + tail
    assert_compose_matches_horner(f, _inner(1, F(1), h[2:], m))


@given(outer_series, nonzero.filter(lambda x: x != 1), tails, truncs)
@settings(max_examples=80, deadline=None)
def test_compose_general_linear_term_matches_horner(f, a, tail, m):
    assert_compose_matches_horner(f, _inner(1, a, tail, m))


@given(outer_series, st.integers(min_value=2, max_value=5), tails, truncs)
@settings(max_examples=80, deadline=None)
def test_compose_high_order_inner_matches_horner(f, order, tail, m):
    assert_compose_matches_horner(f, _inner(order, None, tail, m))


@given(mixed_rationals, nonzero, tails, truncs)
@settings(max_examples=40, deadline=None)
def test_compose_at_working_order_zero(c, a, tail, m):
    # a constant known modulo z, composed with an order-1 inner, has
    # working order n = 0
    f = TruncSeries([c], 0)
    g = _inner(1, a, tail, m)
    assert f.compose(g).trunc_order == 0
    assert_compose_matches_horner(f, g)


# -- the integer representation against plain Fraction references -------
#
# A reference series is a pair (list of Fractions, truncation order); each
# reference operation works coefficient by coefficient and applies the
# truncation rules that TruncSeries documents.


def ref(f):
    return [F(c) for c in f.coeffs], f.trunc_order


def ref_eff_order(c, n):
    return next((k for k, x in enumerate(c) if x), n + 1)


def ref_add(a, b, sign=1):
    (ca, na), (cb, nb) = a, b
    n = min(na, nb)
    return [ca[k] + sign * cb[k] for k in range(n + 1)], n


def ref_scale(a, c):
    return [c * x for x in a[0]], a[1]


def ref_mul(a, b):
    (ca, na), (cb, nb) = a, b
    n = min(na + 1 + ref_eff_order(cb, nb), nb + 1 + ref_eff_order(ca, na)) - 1
    return schoolbook(ca, cb, n), n


def ref_derivative(a):
    c, n = a
    return [k * c[k] for k in range(1, n + 1)] or [F(0)], max(n - 1, 0)


def ref_invert(f):
    """The coefficient recursion from f(g) = z, g[m] solved from [z^m]."""
    c, n = f
    g = [F(0)] * (n + 1)
    g[1] = 1 / c[1]
    for m in range(2, n + 1):
        acc, power = [F(0)] * (m + 1), g[: m + 1]
        for k in range(1, m + 1):
            if k > 1:
                power = schoolbook(power, g[: m + 1], m)
            acc = [x + c[k] * y for x, y in zip(acc, power)]
        g[m] = -acc[m] / c[1]
    return g, n


def ref_binomial_pow(f, e):
    """sum_k C(e, k) u^k, u = f - 1, at f's truncation order."""
    c, n = f
    u = [F(0)] + c[1:]
    out = term = [F(1)] + [F(0)] * n
    coef = F(1)
    for k in range(1, n + 1):
        coef = coef * (e - (k - 1)) / k
        term = schoolbook(term, u, n)
        out = [x + coef * y for x, y in zip(out, term)]
    return out, n


def ref_lie_exp(v, f, sign):
    total = term = f
    k = fact = 1
    while True:
        term = ref_mul(v, ref_derivative(term))
        if ref_eff_order(*term) > total[1]:
            return total
        total = ref_add(total, ref_scale(term, F(sign**k, fact)))
        k += 1
        fact *= k


def assert_canonical(s):
    """(_num, _den) is canonical and coeffs are the Fractions it stands for."""
    num, den = s._num, s._den
    assert len(num) == len(s.coeffs) == s.trunc_order + 1
    assert all(type(a) is int for a in num)
    assert den > 0 and math.gcd(den, *num) == 1
    assert den == math.lcm(*(c.denominator for c in s.coeffs))
    assert all(type(c) is F for c in s.coeffs)
    assert list(s.coeffs) == [F(a, den) for a in num]


def assert_is(got, want):
    assert_canonical(got)
    assert (list(got.coeffs), got.trunc_order) == want


@given(outer_series, outer_series, mixed_rationals)
@settings(max_examples=100, deadline=None)
def test_linear_operations_match_fraction_reference(f, g, c):
    assert_canonical(f)
    a, b = ref(f), ref(g)
    assert_is(f + g, ref_add(a, b))
    assert_is(f - g, ref_add(a, b, -1))
    assert_is(-f, ref_scale(a, F(-1)))
    constant = ([c] + [F(0)] * a[1], a[1])
    assert_is(f + c, ref_add(a, constant))
    assert_is(c - f, ref_add(constant, a, -1))
    assert_is(f.scale(c), ref_scale(a, c))
    assert_is(f.derivative(), ref_derivative(a))
    assert_is(f.nabla(), ([k * x for k, x in enumerate(a[0])], a[1]))
    n = min(a[1], b[1])
    assert_is(f.hadamard(g), ([a[0][k] * b[0][k] for k in range(n + 1)], n))
    assert_is(j_map(f), (a[0][1:] or [F(0)], max(a[1] - 1, 0)))
    assert f.order == next((k for k, x in enumerate(a[0]) if x), math.inf)
    assert (f == g) == (a[0][: n + 1] == b[0][: n + 1])
    assert f == TruncSeries(a[0]) and f.truncate(n) == f


@given(outer_series, outer_series, st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_products_match_fraction_reference(f, g, k):
    a, b = ref(f), ref(g)
    assert_is(f * g, ref_mul(a, b))
    want = ([F(1)] + [F(0)] * a[1], a[1])
    base = a
    for bit in bin(k)[:1:-1]:  # the square-and-multiply order of __pow__
        if bit == "1":
            want = ref_mul(want, base)
        base = ref_mul(base, base)
    assert_is(f**k, want)


@given(st.lists(mixed_rationals, min_size=1, max_size=8), nonzero)
@settings(max_examples=60, deadline=None)
def test_invert_matches_coefficient_recursion(tail, f1):
    f = TruncSeries([F(0), f1] + tail)
    assert_is(f.invert(), ref_invert(ref(f)))


@given(st.lists(rationals, max_size=8), rationals)
@settings(max_examples=60, deadline=None)
def test_binomial_pow_matches_binomial_series(tail, e):
    f = TruncSeries([F(1)] + tail)
    assert_is(f.binomial_pow(e), ref_binomial_pow(ref(f), e))


@given(st.one_of(st.integers(min_value=2, max_value=6), st.none()), nonzero,
       st.lists(mixed_rationals, max_size=4), outer_series,
       st.integers(min_value=-3, max_value=3), st.sampled_from([1, -1]))
@settings(max_examples=120, deadline=None)
def test_lie_exp_matches_fraction_reference(order, lead, vtail, f, shift, sign):
    # v of the given order, or the zero derivation (order None), known to
    # below, at or above f's truncation order; lie_iterate_formal passes
    # f.trunc_order - 1
    if order is None:
        v = TruncSeries.zero(max(f.trunc_order + shift, 0))
    else:
        v = TruncSeries([F(0)] * order + [lead] + vtail,
                        max(f.trunc_order + shift, order))
    # sum_k sign^k v^k(f) / k! is e^{-w} f with w = -sign*v
    assert_is(lie_exp(-sign * v, f), ref_lie_exp(ref(v), ref(f), sign))


def test_canonical_pair_examples():
    f = series([F(1, 6), F(-1, 4), 0])
    assert (f._num, f._den) == ((2, -3, 0), 12)
    assert (f.nabla()._num, f.nabla()._den) == ((0, -1, 0), 4)
    zero = f - f
    assert (zero._num, zero._den) == ((0, 0, 0), 1)
    assert all(type(c) is F for c in TruncSeries([1, 2]).coeffs)
