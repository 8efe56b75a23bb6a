import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lienorm.disc_norms import (
    DivergenceError,
    InconclusiveError,
    LocalOpBound,
    WeightSequence,
    borel_bound,
    calibrate,
    compose_exponentials_bound,
    compose_local_bounds,
    derivative_bound,
    division_bound,
    division_by_z_bound,
    geometric_borel_bound,
    hilbert_to_sup_bound,
    hilbert_weight,
    lambda_p_check,
    majorant_norm,
    nagumo_check,
    order_filtration_norm,
)
from lienorm.power_series import TruncSeries

rationals = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)


def series(coeffs, n=None):
    return TruncSeries([F(c) for c in coeffs], n)


class TestMajorant:
    def test_linear_family(self):
        # |1 + n z| at radius s is 1 + n s
        for n in (1, 5, 20):
            v = majorant_norm(series([1, n]), F(1, 3))
            assert v.exact == 1 + F(n, 3)

    def test_monomial(self):
        assert majorant_norm(TruncSeries.monomial(3, 5), F(1, 2)).exact == F(1, 8)

    def test_sum_of_moduli(self):
        f = TruncSeries.monomial(2, 3, F(1, 2)) + TruncSeries.monomial(3, 3, F(-1))
        v = majorant_norm(f, 1)
        assert v.exact == F(3, 2)
        assert v.value == pytest.approx(1.5, rel=1e-11)
        assert v.value >= 1.5

    def test_monotone_in_radius(self):
        f = series([1, -2, 3])
        assert majorant_norm(f, F(1, 4)).exact <= majorant_norm(f, F(1, 2)).exact

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            majorant_norm(series([1]), 0)


class TestNagumo:
    def test_simple_case(self):
        # f = z^2, k = 1: |2z|_{1/2} = 1 <= 1/(1/2) * 1 = 2
        assert nagumo_check(series([0, 0, 1]), 1, 1, F(1, 2))

    def test_near_tight_monomial(self):
        n = 12
        f = TruncSeries.monomial(n, n)
        assert nagumo_check(f, 1, 1, F(n - 1, n))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            nagumo_check(series([1]), 1, F(1, 2), F(1, 2))

    @given(st.lists(rationals, min_size=1, max_size=21),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=150, deadline=None)
    def test_holds_for_every_polynomial(self, coeffs, k, snum):
        f = TruncSeries(coeffs)
        assert nagumo_check(f, k, 1, F(snum, 10))


class TestOrderFiltration:
    def test_cubic_past_index_two(self):
        # sup of s^(3-2) on (0, 2] is at s = 2
        assert order_filtration_norm(series([0, 0, 0, 1]), 2, 2) == pytest.approx(2)

    def test_monomial_at_own_order(self):
        assert order_filtration_norm(series([0, 0, 1]), 2, F(7, 3)) == pytest.approx(1)

    def test_factored_part(self):
        f = series([0, 0, 1, 1])  # z^2 (1 + z)
        assert order_filtration_norm(f, 2, 1) == pytest.approx(2)

    def test_infinite_when_order_low(self):
        with pytest.raises(DivergenceError, match="below filtration index"):
            order_filtration_norm(series([0, 1]), 2, 1)

    def test_zero_series(self):
        assert order_filtration_norm(TruncSeries.zero(3), 2, 1) == 0.0

    def test_fractional_index(self):
        got = order_filtration_norm(series([0, 0, 1]), F(3, 2), F(1, 4))
        assert got == pytest.approx(0.25 ** 0.5, rel=1e-9)

    def test_inclusion_rescaling(self):
        # a ball of radius R in the (k+eps)-part sits in the unit k-ball
        # once restricted to tau = R^(-1/eps)
        rng = random.Random(5)
        for _ in range(25):
            k, eps, R = 1, 0.5, rng.uniform(0.2, 30.0)
            tau = R ** (-1 / eps)
            f = TruncSeries([F(0), F(0), F(rng.randint(1, 9)),
                             F(rng.randint(0, 9)), F(rng.randint(0, 9))])
            norm_high = order_filtration_norm(f, k + eps, tau)
            f = f.scale(F(99, 100) * F.from_float(R / norm_high).limit_denominator(10**12))
            assert order_filtration_norm(f, k, tau) < 1


class TestLocalBounds:
    def test_compose_two_first_order(self):
        got = compose_local_bounds(LocalOpBound(1, 0, 1), LocalOpBound(1, 0, 1))
        assert got == LocalOpBound(4, 0, 2)

    def test_compose_bounded_ops(self):
        assert compose_local_bounds(LocalOpBound(3, 0, 0), LocalOpBound(1, 0, 0)) == \
            LocalOpBound(3, 0, 0)

    def test_degenerate_l_factor(self):
        got = compose_local_bounds(LocalOpBound(1, 1, 0), LocalOpBound(1, 0, 2))
        assert got == LocalOpBound(1, 1, 2)

    @pytest.mark.parametrize("l1, l2, l", [
        (0, 0, 0),
        (F(0), F(0), F(0)),
        (0, F(0), F(0)),
        (0, F(1, 2), F(1, 2)),
        (0, 1, 1),
        (0.0, 0.0, 0.0),
        (0.0, 2, 2.0),
    ])
    def test_compose_with_zero_l_keeps_number_types(self, l1, l2, l):
        # 0^0 = 1, so the factor is 1.0 and C = 2 * 3/2 as a float
        got = compose_local_bounds(LocalOpBound(2, 1, l1), LocalOpBound(F(3, 2), F(1, 2), l2))
        assert type(got.C) is float and got.C == 3.0
        assert type(got.k) is F and got.k == F(3, 2)
        assert type(got.l) is type(l) and got.l == l

    def test_calibrate_values(self):
        assert calibrate(LocalOpBound(1, 0, 1)) == pytest.approx(math.e)
        assert calibrate(LocalOpBound(7, 0, 0)) == 7
        comp = compose_local_bounds(LocalOpBound(1, 0, 1), LocalOpBound(1, 0, 1))
        assert calibrate(comp) == pytest.approx(math.e**2)

    def test_power_estimate(self):
        # n-fold composition of a 1-local contraction: constant <= n^n C^n
        b = LocalOpBound(0.7, 0, 1)
        acc = b
        for n in range(2, 7):
            acc = compose_local_bounds(acc, b)
            assert acc.l == n
            assert acc.C <= n**n * 0.7**n * (1 + 1e-12)

    def test_derivative_maps_down_the_filtration(self):
        # (0,1)-local derivative sends order-l elements to order l-1
        f = TruncSeries.monomial(4, 6, F(3))
        assert math.isfinite(order_filtration_norm(f.derivative(), 3, 1))
        assert derivative_bound(1) == LocalOpBound(1, 0, 1)

    def test_named_constructors(self):
        assert division_by_z_bound() == LocalOpBound(1, 1, 0)
        assert division_by_z_bound(zero_constant=False).C == 2
        assert hilbert_to_sup_bound(1).C == pytest.approx(math.pi ** -0.5)
        assert hilbert_to_sup_bound(2) == LocalOpBound(1 / math.pi, 0, 2)

    @given(st.floats(0.01, 5), st.floats(0.01, 5),
           st.sampled_from([0, 1, 2, 3]), st.sampled_from([0, 1, 2, 3]),
           st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_calibration_submultiplicative(self, c1, c2, l1, l2, k1, k2):
        b1, b2 = LocalOpBound(c1, k1, l1), LocalOpBound(c2, k2, l2)
        lhs = calibrate(compose_local_bounds(b1, b2))
        assert lhs <= calibrate(b1) * calibrate(b2) * (1 + 1e-12)


class TestBorel:
    def test_geometric_cases(self):
        assert geometric_borel_bound(F(1, 2)) == pytest.approx(2)
        assert geometric_borel_bound(0) == pytest.approx(1)

    def test_geometric_divergence(self):
        with pytest.raises(DivergenceError):
            geometric_borel_bound(1)

    def test_quadratic_majorant(self):
        # majorant of z^2/(1+z)^2 = sum n (-z)^(n+1): |f|(x) <= x^2/(1-x)^2
        f = TruncSeries([F(0), F(0)] + [F((-1) ** n * n) for n in range(1, 30)])
        maj = TruncSeries([abs(c) for c in f.coeffs])
        x = F(1, 2)
        got = borel_bound(maj, x)
        assert got <= 4 * float(x) ** 2 * 1.01
        assert got == pytest.approx(float(x**2 / (1 - x) ** 2), rel=1e-4)

    def test_rejects_negative_majorant(self):
        with pytest.raises(ValueError):
            borel_bound(series([0, -1]), F(1, 2))


class TestWeights:
    def test_geometric_pass(self):
        lam = WeightSequence("geometric")
        grid = [(s / 10, t / 10) for t in range(2, 11) for s in range(1, t)]
        assert lambda_p_check(lam, lam, 1, 1, 1, grid)

    def test_constant_fail(self):
        lam = WeightSequence("constant")
        assert not lambda_p_check(lam, lam, 1, 1, 1, [(0.3, 0.6)])

    def test_dominated_geometric(self):
        lam = WeightSequence("geometric")
        mu = WeightSequence("geometric", a=2)
        grid = [(s / 8, t / 8) for t in range(2, 9) for s in range(1, t)]
        assert lambda_p_check(lam, mu, 1, 1, 1, grid)

    def test_exact_sum_value(self):
        # closed form: sum (s/t)^(p i) = 1/(1 - (s/t)^p) = t/(t-s) at p=1
        from lienorm.disc_norms import _ratio_sum
        assert _ratio_sum(WeightSequence("geometric"), WeightSequence("geometric"),
                          1, 0.25, 0.5) == pytest.approx(2.0)

    def test_hilbert_pair_passes(self):
        lam = WeightSequence("hilbert")
        grid = [(s / 10, t / 10) for t in range(2, 11) for s in range(1, t)]
        # terms (s/t)^(p(1+i)): sum = (s/t)/(1-s/t) <= 1/(t-s) on (0,1]
        assert lambda_p_check(lam, lam, 1, 1, 1, grid)

    def test_mixed_hilbert_geometric_inconclusive(self):
        with pytest.raises(InconclusiveError):
            lambda_p_check(WeightSequence("hilbert"),
                           WeightSequence("geometric"), 1, 1, 1, [(0.2, 0.5)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown weight kind 'tabulated'"):
            WeightSequence("tabulated")

    def test_monotone_on_grid(self):
        lam = WeightSequence("hilbert")
        assert lam.is_monotone_on_grid(3, [0.1, 0.3, 0.8])

    def test_hilbert_weight_values(self):
        assert hilbert_weight(0, F(1, 2), 1) == pytest.approx(math.sqrt(math.pi) / 2)
        assert hilbert_weight((1,), 1, 1) == pytest.approx(math.sqrt(math.pi / 2))
        assert hilbert_weight((0, 0), 0.5, 2) == pytest.approx(math.pi * 0.25)

    def test_hilbert_weight_vanishes_at_zero(self):
        assert hilbert_weight(2, 1e-9, 1) < 1e-17


class TestDivisionBound:
    def test_degree_zero(self):
        assert division_bound(0, F(1, 3)) == 1

    def test_inverse_square(self):
        assert division_bound(2, F(1, 2)) == pytest.approx(4)

    def test_certifies_quotient(self):
        f = series([0, 0, 0, 1, 1])
        q, _ = f.weierstrass_div_monomial(2)
        t = F(1)
        lhs = majorant_norm(q, t).exact
        rhs = division_bound(2, t) * majorant_norm(f, t).value
        assert float(lhs) <= rhs

    @given(st.lists(rationals, min_size=1, max_size=12),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_bound_property(self, coeffs, d, tnum):
        f = TruncSeries(coeffs)
        d = min(d, f.trunc_order)
        t = F(tnum, 4)
        q, _ = f.weierstrass_div_monomial(d)
        assert float(majorant_norm(q, t).exact) <= \
            division_bound(d, t) * majorant_norm(f, t).value * (1 + 1e-9)


GEOMETRIC = WeightSequence("geometric")

# every check that rejects input: the call, the exact class, the message
REJECTED = {
    "majorant-string-radius": (lambda: majorant_norm(series([1]), "1/2"),
                               TypeError, "expected a real number, got '1/2'"),
    "nagumo-negative-k": (lambda: nagumo_check(series([1, 1]), -1, 1, F(1, 2)),
                          ValueError, "k must be >= 0"),
    "filtration-negative-k": (lambda: order_filtration_norm(series([0, 1]), -1, 1),
                              ValueError, "k must be >= 0"),
    "filtration-zero-radius": (lambda: order_filtration_norm(series([0, 1]), 1, 0),
                               ValueError, "radius must be positive"),
    "local-bound-negative-C": (lambda: LocalOpBound(-1, 0, 1),
                               ValueError, "C, k, l must all be >= 0"),
    "local-bound-negative-k": (lambda: LocalOpBound(1, -1, 0),
                               ValueError, "C, k, l must all be >= 0"),
    "local-bound-negative-l": (lambda: LocalOpBound(1, 0, -0.5),
                               ValueError, "C, k, l must all be >= 0"),
    "exponentials-negative-norm": (lambda: compose_exponentials_bound([0.25, -0.1]),
                                   ValueError, "normalized norms must be >= 0"),
    "borel-negative-x": (lambda: borel_bound(series([1, 1]), -0.5),
                         ValueError, "need x >= 0"),
    "geometric-borel-negative-x": (lambda: geometric_borel_bound(F(-1, 2)),
                                   ValueError, "need x >= 0"),
    "lambda-p-below-one": (lambda: lambda_p_check(GEOMETRIC, GEOMETRIC, 0.5, 1.0, 1.0,
                                                  [(0.25, 0.5)]),
                           ValueError, "need p >= 1"),
    "lambda-p-point-on-diagonal": (lambda: lambda_p_check(GEOMETRIC, GEOMETRIC, 1.0, 1.0,
                                                          1.0, [(0.5, 0.5)]),
                                   ValueError, "grid points need 0 < s < t, got (0.5, 0.5)"),
    "hilbert-index-length": (lambda: hilbert_weight((1, 2), 0.5),
                             ValueError, "multi-index length 2 != dimension 1"),
    "hilbert-zero-radius": (lambda: hilbert_weight(1, 0),
                            ValueError, "need s > 0"),
    "hilbert-negative-entry": (lambda: hilbert_weight((1, -1), 0.5, n=2),
                               ValueError, "multi-index entries must be >= 0"),
    "division-negative-degree": (lambda: division_bound(-1, 1),
                                 ValueError, "d must be >= 0"),
    "division-zero-radius": (lambda: division_bound(2, 0),
                             ValueError, "need t > 0"),
}


@pytest.mark.parametrize("call, error, message", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_input(call, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)) as exc:
        call()
    assert exc.type is error


# -- cross-cutting properties -------------------------------------------


@given(st.lists(rationals, min_size=1, max_size=10),
       st.lists(rationals, min_size=1, max_size=10),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=100, deadline=None)
def test_majorant_subadditive_submultiplicative(cf, cg, tnum):
    f, g = TruncSeries(cf), TruncSeries(cg)
    t = F(tnum, 6)
    n = min(f.trunc_order, g.trunc_order)
    fs, gs = f.truncate(n), g.truncate(n)
    assert majorant_norm(fs + gs, t).exact <= \
        majorant_norm(fs, t).exact + majorant_norm(gs, t).exact
    prod = fs * gs
    assert majorant_norm(prod.truncate(n), t).exact <= \
        majorant_norm(fs, t).exact * majorant_norm(gs, t).exact
