import cmath
import dataclasses
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction

import pytest

from lienorm import paramopt
from lienorm.normalform import threshold_T0
from lienorm.paramopt import (
    F_basic,
    _solve_r_row,
    certified_t_inf,
    equalized_objective,
    maximize_basic,
    maximize_equalized,
    minimize,
    minimize_q,
    q_table,
    q_value,
    radius_oracle_series,
    true_radius,
)

E = math.e


class TestFBasic:
    def test_reference_value(self):
        assert F_basic(0.25, 0.5) == pytest.approx(1 / 256, abs=1e-15)

    def test_vanishes_as_mu_meets_lambda(self):
        lam = 0.3
        assert F_basic(lam, lam + 1e-9) < 1e-9

    def test_value_at_reported_optimum(self):
        got = F_basic(0.448612476, 0.6311094891)
        assert got == pytest.approx(E * 0.001949102953, rel=1e-9)

    def test_domain_is_enforced(self):
        with pytest.raises(ValueError):
            F_basic(0.6, 0.5)


class TestSolveR:
    def test_exact_half(self):
        assert _solve_r_row((2,))[0] == pytest.approx(0.5, abs=1e-14)

    def test_small_nu_asymptotics(self):
        for nu in (1e-4, 1e-6):
            assert _solve_r_row((nu,))[0] == pytest.approx(nu, rel=1e-3)

    def test_defining_equation(self):
        rng = random.Random(3)
        for _ in range(50):
            nu = rng.uniform(1e-3, 50)
            r = _solve_r_row((nu,))[0]
            assert 0 < r < 1
            assert r / (1 - r) ** 2 == pytest.approx(nu, abs=1e-12 * max(1, nu))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _solve_r_row((0,))


class TestBasicOptimum:
    def test_reported_parameters(self):
        res = maximize_basic()
        assert res.lambda_opt == pytest.approx(0.448612476, abs=1e-6)
        assert res.mu_opt == pytest.approx(0.6311094891, abs=1e-6)

    def test_cubic_and_linear_relations(self):
        res = maximize_basic()
        mu = res.mu_opt
        assert abs(8 * mu**3 - 4 * mu**2 - 7 * mu + 4) < 1e-9
        assert res.lambda_opt == pytest.approx(8 * mu**2 + 2 * mu - 4, abs=1e-9)

    def test_chained_t_inf(self):
        res = maximize_basic()
        assert res.t_inf == pytest.approx(0.001949102953, abs=1e-8)
        assert res.objective == pytest.approx(res.t_inf * E)

    def test_gradient_at_optimum(self):
        res = maximize_basic()
        assert res.grad_norm < 1e-8


class TestEqualizedOptimum:
    def test_reported_values(self):
        res = maximize_equalized()
        assert res.objective == pytest.approx(0.01883436563, abs=1e-8)
        assert res.t_inf == pytest.approx(0.006928775903, abs=1e-8)
        assert res.lambda_opt == pytest.approx(0.4145716992, abs=1e-6)
        assert res.mu_opt == pytest.approx(0.6054472202, abs=1e-6)

    def test_gradient_norm(self):
        assert maximize_equalized().grad_norm < 1e-8

    def test_r_solves_balance(self):
        res = maximize_equalized()
        lam, mu = res.lambda_opt, res.mu_opt
        rho = 1 + lam - lam / mu
        nu = 2 * rho * lam**2 * mu * (1 - mu)
        assert res.r_opt == pytest.approx(_solve_r_row((nu,))[0])


class TestTrueRadius:
    def test_cubic_case(self):
        assert true_radius(3, 1) == pytest.approx(math.sqrt(3) / 9, abs=1e-15)

    def test_quartic_case(self):
        assert true_radius(4, 1) == pytest.approx(1 / (2 * math.sqrt(2)))

    def test_beta_scaling(self):
        assert true_radius(3, 2) == pytest.approx(true_radius(3, 1) / 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            true_radius(2, 1)

    def test_certified_t_inf_rejects_small_n(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="need n >= 3"):
                certified_t_inf(n, 0.4, 0.6)


class TestQValue:
    def test_reported_ratio(self):
        got = q_value(3, 0.4145716992, 0.6054472202)
        assert got == pytest.approx(27.7754, abs=1e-3)

    def test_equals_radius_over_t_inf_and_beta_free(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.choice([3, 4, 5, 8, 12])
            lam = rng.uniform(0.05, 0.8)
            mu = rng.uniform(lam + 0.01, 0.99)
            q = q_value(n, lam, mu)
            for beta in (0.5, 1.0, 2.0):
                assert q == pytest.approx(
                    true_radius(n, beta) / certified_t_inf(n, lam, mu, beta),
                    rel=1e-12,
                )

    def test_at_least_one_on_domain(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.choice([3, 4, 5, 6, 10, 20, 50])
            lam = rng.uniform(0.02, 0.9)
            mu = rng.uniform(lam + 0.005, 0.995)
            assert q_value(n, lam, mu) >= 1.0


REFERENCE_TABLE = {
    3: 27.775, 4: 5.439, 5: 3.153, 6: 2.397, 7: 2.033,
    8: 1.820, 9: 1.682, 10: 1.584, 20: 1.249, 50: 1.099,
}


class TestQTable:
    def test_row_n3_matches_equalized_optimum(self):
        row = minimize_q(3)
        assert row.Q == pytest.approx(27.775, abs=0.005)
        assert row.lam == pytest.approx(0.4145716992, abs=1e-5)
        assert row.mu == pytest.approx(0.6054472202, abs=1e-5)

    def test_full_table(self):
        rows = q_table(sorted(REFERENCE_TABLE))
        for row in rows:
            assert row.Q == pytest.approx(REFERENCE_TABLE[row.n], abs=0.005), row.n
            assert row.Q == pytest.approx(row.true_radius / row.certified_t_inf)
        lams = [r.lam for r in rows]
        mus = [r.mu for r in rows]
        qs = [r.Q for r in rows]
        assert lams == sorted(lams, reverse=True)
        assert mus == sorted(mus)
        assert qs == sorted(qs, reverse=True)

    def test_limit_towards_one(self):
        assert minimize_q(400).Q < 1.02

    def test_small_n_rejected_before_the_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("grid scan ran")
        monkeypatch.setattr(paramopt, "_grid_scan", no_scan)
        monkeypatch.setattr(paramopt, "_q_grid", no_scan)
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="need n >= 3"):
                minimize_q(n)


def _rosenbrock(x):
    return sum(100 * (b - a * a) ** 2 + (1 - a) ** 2 for a, b in zip(x, x[1:]))


def _maximizing(f):
    """The guarded objective paramopt hands to the simplex for max f."""
    return lambda p: -f(p[0], p[1]) if 0 < p[0] < p[1] < 1 else math.inf


def _nan_beyond(x):
    return math.nan if x[0] > 1.25 else _rosenbrock(x)


def _q_for(n):
    return lambda lam, mu: -q_value(n, lam, mu)


# The pointwise formulas as written before the objectives became row
# kernels; every kernel value must equal them to the bit.
def _ref_solve_r(nu):
    if isinstance(nu, complex):
        return (1 + 2 * nu - cmath.sqrt(1 + 4 * nu)) / (2 * nu)
    return (1 + 2 * nu - math.sqrt(1 + 4 * nu)) / (2 * nu)


def _ref_r(lam, mu):
    rho = 1 + lam - lam / mu
    return _ref_solve_r(2 * rho * lam**2 * mu * (1 - mu))


def _ref_basic(lam, mu):
    rho = 1 + lam - lam / mu
    return rho * lam**2 * (1 - mu) ** 2 / (2 * mu) * (mu - lam) / (1 - lam)


def _ref_equalized(lam, mu):
    r = _ref_r(lam, mu)
    return r * (1 - mu) / mu**2 * (mu - lam) / (1 - lam)


def _ref_t_inf(n, lam, mu, beta):
    base = _ref_r(lam, mu) * (1 - mu) / (E * beta * mu)
    return base ** (1.0 / (n - 2)) * (mu - lam) / (mu * (1 - lam))


def _ref_q(n, lam, mu):
    tinf = _ref_t_inf(n, lam, mu, 1.0)
    if not isinstance(tinf, complex) and tinf <= 0:
        return math.inf
    return true_radius(n, 1.0) / tinf


def _q_kernel(n):
    return lambda lam, mus: paramopt._q_row(
        true_radius(n, 1.0), paramopt._t_inf_row(n, lam, mus, 1.0))


KERNELS = {
    "basic": (paramopt._F_basic_row, _ref_basic),
    "equalized": (paramopt._equalized_row, _ref_equalized),
    "r": (paramopt._equal_bound_r_row, _ref_r),
    "t_inf n=5 beta=3/2": (lambda lam, mus: paramopt._t_inf_row(5, lam, mus, 1.5),
                           lambda lam, mu: _ref_t_inf(5, lam, mu, 1.5)),
    "Q n=3": (_q_kernel(3), lambda lam, mu: _ref_q(3, lam, mu)),
    "Q n=400": (_q_kernel(400), lambda lam, mu: _ref_q(400, lam, mu)),
}


def _grid_row(lam, resolution):
    return [mu for mu in paramopt._linspace(lam + 1e-3, 0.999, resolution)
            if 0 < lam < mu < 1]


def _bits(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("name", KERNELS)
def test_row_kernel_equals_pointwise_formula_on_grid_rows(name):
    row, ref = KERNELS[name]
    lams = paramopt._linspace(1e-3, 0.999, 200)
    for lam in (lams[0], lams[57], lams[120], lams[197]):
        mus = _grid_row(lam, 200)
        assert _bits(row(lam, mus)) == _bits([ref(lam, mu) for mu in mus])


@pytest.mark.parametrize("name", KERNELS)
def test_row_kernel_equals_pointwise_formula_at_complex_steps(name):
    row, ref = KERNELS[name]
    rng = random.Random(31)
    for _ in range(50):
        lam = rng.uniform(0.01, 0.9)
        mu = rng.uniform(lam + 0.005, 0.995)
        for a, b in ((complex(lam, 1e-20), mu), (lam, complex(mu, 1e-20))):
            assert _bits(row(a, [b])) == _bits([ref(a, b)])


@pytest.mark.parametrize("n", [3, 7, 400])
def test_stored_q_grid_finishes_to_the_pointwise_formula(n):
    for lam, mus, bases in paramopt._q_grid(120):
        assert _bits(paramopt._finish_row(n, lam, mus, bases)) == _bits(
            [_ref_t_inf(n, lam, mu, 1.0) for mu in mus])


def test_q_grid_is_stored_as_float_arrays():
    for lam, mus, bases in paramopt._q_grid(120):
        assert type(lam) is float
        assert isinstance(mus, array) and mus.typecode == "d"
        assert isinstance(bases, array) and bases.typecode == "d"


def test_q_table_builds_the_q_grid_once():
    paramopt._q_grid.cache_clear()
    q_table(sorted(REFERENCE_TABLE))
    assert paramopt._q_grid.cache_info().misses == 1


def _pointwise_scan(f, resolution):
    """The grid scan point by point: the first strict maximum wins."""
    best = None
    for lam in paramopt._linspace(1e-3, 0.999, resolution):
        for mu in paramopt._linspace(lam + 1e-3, 0.999, resolution):
            if not 0 < lam < mu < 1:
                continue
            val = f(lam, mu)
            if best is None or val > best[0]:
                best = (val, lam, mu)
    return best[1], best[2]


SCANS = {
    "basic": (paramopt._F_basic_row, F_basic),
    "equalized": (paramopt._equalized_row, equalized_objective),
}


@pytest.mark.parametrize("name", SCANS)
def test_grid_scan_seed_equals_pointwise_scan(name):
    row, f = SCANS[name]
    assert (paramopt._grid_scan(row, paramopt._grid_rows(200))
            == _pointwise_scan(f, 200))


@pytest.mark.parametrize("n", sorted(REFERENCE_TABLE) + [400])
def test_q_seed_equals_pointwise_scan(n):
    assert paramopt._q_seed(n) == _pointwise_scan(_q_for(n), 120)


TIES = {
    # every point ties: the first point of the first row
    "constant": lambda lam, mu: 1.0,
    "minus infinity": lambda lam, mu: -math.inf,
    # each row has many maxima, every row the same value
    "step in mu": lambda lam, mu: float(mu >= 0.5),
    # the maximum first appears in a later row, and again after it
    "step in lambda": lambda lam, mu: float(lam >= 0.4) + float(mu >= 0.8),
}


@pytest.mark.parametrize("name", TIES)
def test_grid_scan_keeps_the_first_of_repeated_maxima(name):
    f = TIES[name]
    points = [(lam, mu) for lam in paramopt._linspace(1e-3, 0.999, 9)
              for mu in _grid_row(lam, 9)]
    top = max(f(*p) for p in points)
    first = next(p for p in points if f(*p) == top)
    row = lambda lam, mus: [f(lam, mu) for mu in mus]
    assert paramopt._grid_scan(row, paramopt._grid_rows(9)) == first


# the options _maximize passes; minimize_q tightens xatol to 1e-11
TIGHT = dict(xatol=1e-10, fatol=1e-13, maxiter=10_000, maxfev=10_000)
Q_TIGHT = dict(TIGHT, xatol=1e-11)

PORT_CASES = [
    # triangle objectives: vertices outside return inf and tie
    (_maximizing(F_basic), (0.3, 0.3001), TIGHT),
    (_maximizing(F_basic), (0.5, 0.99), TIGHT),
    (_maximizing(F_basic), (0.12, 0.81), TIGHT),
    (_maximizing(equalized_objective), (0.6, 0.62), TIGHT),
    (_maximizing(equalized_objective), (0.955, 0.96), TIGHT),
    (_maximizing(equalized_objective), (0.05, 0.96), TIGHT),
    (_maximizing(_q_for(3)), (0.3, 0.97), Q_TIGHT),
    (_maximizing(_q_for(7)), (0.2, 0.4), Q_TIGHT),
    (_maximizing(_q_for(50)), (0.01, 0.99), Q_TIGHT),
    (_rosenbrock, (-1.2, 1.0), TIGHT),
    (_rosenbrock, (0, 0.5), TIGHT),            # zero coordinate: 0.00025 step
    (_rosenbrock, (0.0, 0.0), TIGHT),
    (_rosenbrock, (-1.0, 0.5, 2.0), TIGHT),    # three dimensions
    (_nan_beyond, (1.2, 1.0), TIGHT),          # NaN values sort last
    # flat: shrinks until the vertices coincide, then stops at xatol = 0
    (lambda x: 1.0, (0.5, 0.5), dict(TIGHT, xatol=0.0, fatol=0.0)),
    (_rosenbrock, (-1.2, 1.0), dict(TIGHT, maxiter=7)),
    (_rosenbrock, (-1.2, 1.0), dict(TIGHT, maxfev=25)),
    (_rosenbrock, (-1.2, 1.0), dict(TIGHT, maxfev=2)),   # budget spent on the start
]


@pytest.mark.parametrize("fun, x0, opts", PORT_CASES)
def test_nelder_mead_port_matches_scipy(fun, x0, opts):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    ref = scipy_optimize.minimize(fun, list(x0), method="Nelder-Mead", options=opts)
    got = minimize(fun, x0, **opts)
    assert [v.hex() for v in got.x] == [float(v).hex() for v in ref.x]
    assert (got.nit, got.nfev) == (ref.nit, ref.nfev)


def _well_conditioned_systems(count, seed):
    """Seeded symmetric [[a, b], [b, d]] with eigenvalues of either sign,
    at most tenfold apart in size, at scales 1e-6 to 1e6, and right-hand
    sides g."""
    rng = random.Random(seed)
    for _ in range(count):
        theta, scale = rng.uniform(0, math.pi), 10.0 ** rng.randint(-6, 6)
        e1, e2 = (rng.choice((-1, 1)) * rng.uniform(1, 10) for _ in range(2))
        c, s = math.cos(theta), math.sin(theta)
        yield ((scale * (e1 * c * c + e2 * s * s), scale * (e1 - e2) * c * s,
                scale * (e1 * s * s + e2 * c * c)),
               (rng.uniform(-1, 1), rng.uniform(-1, 1)))


def test_newton_step_matches_an_exact_solve():
    for (a, b, d), g in _well_conditioned_systems(2000, 41):
        # the same float entries, read as exact rationals and eliminated
        A, B, D, G0, G1 = map(Fraction, (a, b, d, *g))
        x1 = (G1 - B / A * G0) / (D - B / A * B)
        want = ((G0 - B * x1) / A, x1)
        got = paramopt._solve_sym2(a, b, d, *g)
        err = [float(Fraction(x) - w) for x, w in zip(got, want)]
        assert math.hypot(*err) <= 1e-12 * math.hypot(*map(float, want))


def test_newton_on_a_linear_objective_stops_at_its_start():
    # the central differences of a constant gradient are 0: a singular step
    x, gnorm, iterations = paramopt._newton_polish(
        lambda lam, mu: 2 * lam - 4 * mu, (0.25, 0.5))
    assert (tuple(x), gnorm, iterations) == ((0.25, 0.5), math.hypot(2, 4), 1)


def test_newton_out_of_iterations_reports_the_norm_where_it_stops():
    # one Newton step on a quartic moves a third of the way to its maximum
    f = lambda lam, mu: -(lam - 0.3) ** 4 - (mu - 0.6) ** 4
    x, gnorm, iterations = paramopt._newton_polish(f, (0.2, 0.5), iters=1)
    assert iterations == 1 and x != (0.2, 0.5)
    assert gnorm == math.hypot(*paramopt._complex_step_grad(f, *x))


def test_results_hold_plain_floats():
    for res in (maximize_basic(), maximize_equalized(), minimize_q(3)):
        for field in dataclasses.fields(res):
            value = getattr(res, field.name)
            if field.name not in ("iterations", "n") and value is not None:
                assert type(value) is float, (type(res).__name__, field.name)


def test_start_up_imports_neither_scipy_nor_numpy():
    src = os.path.dirname(os.path.dirname(paramopt.__file__))
    code = ("import sys, lienorm, lienorm.cli\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)\n"
            "lienorm.paramopt.maximize_basic()\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"] * 4


class TestConsistencyWithCertificates:
    def test_equalized_objective_equals_threshold_chain(self):
        # e * t_inf from the certificate threshold with the balanced r
        # agrees with the paramopt objective on a random grid
        rng = random.Random(101)
        for _ in range(30):
            lam = rng.uniform(0.1, 0.7)
            mu = rng.uniform(lam + 0.02, 0.95)
            rho = 1 + lam - lam / mu
            r = _solve_r_row((2 * rho * lam**2 * mu * (1 - mu),))[0]
            t0 = threshold_T0(lam, mu, r, 1.0, 3)
            t_inf = (mu - lam) / (1 - lam) * t0
            assert E * t_inf == pytest.approx(
                equalized_objective(lam, mu), rel=1e-10
            )


class TestRadiusOracle:
    def test_cubic_reference(self):
        est = radius_oracle_series(3, 1)
        assert abs(est - true_radius(3, 1)) / true_radius(3, 1) < 0.01

    def test_quartic_reference(self):
        est = radius_oracle_series(4, 1)
        assert abs(est - 1 / (2 * math.sqrt(2))) / (1 / (2 * math.sqrt(2))) < 0.01

    def test_beta_scaling_law(self):
        est1 = radius_oracle_series(3, 1)
        est2 = radius_oracle_series(3, 2)
        assert est2 == pytest.approx(est1 / 2, rel=5e-3)

    def test_agreement_grid(self):
        for n in (3, 4, 5):
            for beta in (0.5, 1.0, 2.0):
                est = radius_oracle_series(n, beta)
                ref = true_radius(n, beta)
                assert abs(est - ref) / ref < 0.02, (n, beta)

    def test_matches_exact_inversion_coefficients(self):
        # the closed form behind the oracle agrees with the compositional
        # inverse computed in exact arithmetic
        from fractions import Fraction as F

        from lienorm.paramopt import _log_abs_inverse_coeff
        from lienorm.power_series import TruncSeries

        phi = (TruncSeries([F(1), F(2)], 12).binomial_pow(F(1, 2))
               * TruncSeries.x(13))
        psi = phi.invert()
        for m in range(1, 13):
            la = _log_abs_inverse_coeff(m, 3, 1.0)
            assert la == pytest.approx(math.log(abs(psi[m])), rel=1e-12)
