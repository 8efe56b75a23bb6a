"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible under pytest -s); the
asserts carry the stated tolerances.  Equality on TruncSeries is exact
rational equality coefficient-for-coefficient.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from lienorm.defsets import (
    CallableBoundary,
    DefSet,
    Linear,
    convolve,
    is_idempotent_on_grid,
    tangent_slope_at_origin,
)
from lienorm.disc_norms import (
    LocalOpBound,
    WeightSequence,
    calibrate,
    compose_local_bounds,
    geometric_borel_bound,
    lambda_p_check,
    majorant_norm,
    nagumo_check,
)
from lienorm.normalform import (
    default_trunc_order,
    lie_iterate_certified,
    lie_iterate_formal,
    morse_certificate,
    normalizer_series,
    quadratic_normal_form,
    threshold_T0,
)
from lienorm.paramopt import (
    maximize_basic,
    maximize_equalized,
    q_table,
    radius_oracle_series,
    true_radius,
)
from lienorm.power_series import TruncSeries, lie_exp
from lienorm.prisma import (
    IterConfig,
    PrismaState,
    closed_form_xn,
    in_invariant_set,
    iterate,
    rho,
)

E = math.e


def _report(num, desc):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %2d FAIL  %s" % (num, desc))
                raise
            print("criterion %2d PASS  %s" % (num, desc))
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


def series(coeffs, n=None):
    return TruncSeries([F(c) for c in coeffs], n)


@_report(1, "golden Lie-iteration series, exact, under 1 s")
def test_criterion_1_golden_series():
    start = time.perf_counter()
    order = 18
    trace = lie_iterate_formal(
        quadratic_normal_form(order), TruncSeries.monomial(3, order), 4
    )
    v1 = series([0, 0, 0, F(-3, 2), 4, F(-15, 2), 12, F(-35, 2), 24,
                 F(-63, 2)], 9)
    assert trace[1].v == v1
    f2 = series([0, 0, F(1, 2), 0, 0, 0, F(-9, 2), 27, F(-493, 4), 525,
                 F(-8579, 4)], 10)
    assert trace[2].f == f2
    assert trace[3].b.order == 10 and trace[3].b[10] == F(-243, 4)
    assert trace[4].b.order == 18 and trace[4].b[18] == F(-295245, 16)
    assert trace[4].f[2] == F(1, 2)
    assert time.perf_counter() - start < 1.0


@_report(2, "normalizer equals the printed inverse series, exact to z^12")
def test_criterion_2_psi_golden_and_oracle():
    trace = lie_iterate_formal(
        quadratic_normal_form(13), TruncSeries.monomial(3, 13), 4
    )
    psi = normalizer_series(trace)
    assert psi == series([0, 1, -1, F(5, 2), -8, F(231, 8)], 5)
    phi = series([1, 2], 13).binomial_pow(F(1, 2)) * TruncSeries.x(14)
    inv = phi.invert()
    assert psi.truncate(12) == inv.truncate(12)


@_report(3, "derivation orders double: order(v_i) = 2^i + 1 for i <= 4")
def test_criterion_3_order_doubling():
    trace = lie_iterate_formal(
        quadratic_normal_form(18), TruncSeries.monomial(3, 18), 4
    )
    for i, r in enumerate(trace.rounds):
        assert r.v.order == 2**i + 1


@_report(4, "threshold T0 = 3/(256 e) and its limit radius, to 1e-11")
def test_criterion_4_thresholds():
    t0 = threshold_T0(F(1, 4), F(1, 2), F(1, 2), 1, 3)
    assert abs(t0 - 0.00431108720123) < 1e-11
    assert abs(t0 - 3 / (256 * E)) < 1e-15
    t_inf = (0.5 - 0.25) / (1 - 0.25) * t0
    assert abs(t_inf - 0.001437029067) < 1e-11


@_report(5, "basic optimizer hits the cubic critical point")
def test_criterion_5_basic_optimizer():
    res = maximize_basic()
    assert abs(res.lambda_opt - 0.448612476) < 1e-6
    assert abs(res.mu_opt - 0.6311094891) < 1e-6
    mu = res.mu_opt
    assert abs(8 * mu**3 - 4 * mu**2 - 7 * mu + 4) < 1e-9
    assert abs(res.t_inf - 0.001949102953) < 1e-8


@_report(6, "equalized optimizer reproduces the balanced optimum, under 5 s")
def test_criterion_6_equalized_optimizer():
    start = time.perf_counter()
    res = maximize_equalized()
    assert abs(res.objective - 0.01883436563) < 1e-8
    assert abs(res.t_inf - 0.006928775903) < 1e-8
    assert abs(res.lambda_opt - 0.4145716992) < 1e-6
    assert abs(res.mu_opt - 0.6054472202) < 1e-6
    assert time.perf_counter() - start < 5.0


@_report(7, "Q table matches all ten reference rows to 0.005, under 30 s")
def test_criterion_7_q_table():
    reference = {
        3: 27.775, 4: 5.439, 5: 3.153, 6: 2.397, 7: 2.033,
        8: 1.820, 9: 1.682, 10: 1.584, 20: 1.249, 50: 1.099,
    }
    start = time.perf_counter()
    rows = q_table(sorted(reference))
    elapsed = time.perf_counter() - start
    for row in rows:
        assert abs(row.Q - reference[row.n]) < 0.005, (row.n, row.Q)
    lams = [r.lam for r in rows]
    mus = [r.mu for r in rows]
    qs = [r.Q for r in rows]
    assert lams == sorted(lams, reverse=True)
    assert mus == sorted(mus)
    assert qs == sorted(qs, reverse=True)
    assert elapsed < 30.0


@_report(8, "true radius sqrt(3)/9 and the series oracle within 2%")
def test_criterion_8_true_radius_oracle():
    ref = true_radius(3, 1)
    assert abs(ref - math.sqrt(3) / 9) < 1e-12
    est = radius_oracle_series(3, 1, 200)
    assert abs(est - ref) / ref < 0.02


@_report(9, "prisma closed form exact over 50 random configs, under 1 s")
def test_criterion_9_prisma_exactness():
    start = time.perf_counter()
    rng = random.Random(90125)
    checked = 0
    while checked < 50:
        lam = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
        k = rng.choice([0, 1, 2])
        l = rng.choice([0, 1, 2])
        if k == l == 0:
            continue
        cfg = IterConfig(R=F(rng.randint(1, 4), rng.randint(1, 2)),
                         k=k, l=l, lam=lam)
        t = F(rng.randint(9, 16), 8)
        s = t * (lam + (1 - lam) * F(rng.randint(3, 9), 10))
        cap = cfg.R * rho(t, s, lam) ** k * s**k * lam**l * (t - s) ** l
        state = PrismaState(t, s, cap * F(rng.randint(1, 9), 10))
        if not in_invariant_set(state, cfg):
            continue
        traj = iterate(state, cfg, 12)
        for n, st_n in enumerate(traj):
            assert in_invariant_set(st_n, cfg)
            assert closed_form_xn(n, state, cfg) == st_n.x
        checked += 1
    assert time.perf_counter() - start < 1.0


@_report(10, "norm property suite: Nagumo, calibration, Borel domination")
def test_criterion_10_norm_properties():
    rng = random.Random(424242)
    # Cauchy-Nagumo over 1000 random polynomials
    pairs = [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(7, 10), F(9, 10))]
    for _ in range(1000):
        deg = rng.randint(0, 12)
        f = TruncSeries([F(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(deg + 1)])
        k = rng.randint(0, 5)
        s, t = rng.choice(pairs)
        assert nagumo_check(f, k, t, s)
    # calibrated composition submultiplicative on 1000 random bound pairs
    for _ in range(1000):
        b1 = LocalOpBound(rng.uniform(0.01, 10), rng.choice([0, 1, 2]),
                          rng.choice([0, 1, 2, 3]))
        b2 = LocalOpBound(rng.uniform(0.01, 10), rng.choice([0, 1, 2]),
                          rng.choice([0, 1, 2, 3]))
        assert calibrate(compose_local_bounds(b1, b2)) <= \
            calibrate(b1) * calibrate(b2) * (1 + 1e-12)
    # geometric Borel bound dominates truncated exponential majorants
    done = 0
    while done < 100:
        order = rng.randint(2, 4)
        width = rng.randint(0, 3)
        coeffs = [F(0)] * order + [
            F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(width + 1)
        ]
        v = TruncSeries(coeffs, 10)
        if v.order is math.inf or v.order < 2:
            continue
        f = TruncSeries([F(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 8))], 10)
        t = F(rng.randint(2, 10), 10)
        x = F(rng.randint(10, 89), 100)
        norm_v = majorant_norm(v, t).exact
        gap = E * norm_v / x
        s = t - gap
        if s <= 0 or norm_v == 0:
            continue
        image = lie_exp(rng.choice([-v, v]), f)  # e^{v} f or e^{-v} f
        lhs = majorant_norm(image, s).value
        rhs = geometric_borel_bound(x) * majorant_norm(f, t).value
        assert lhs <= rhs * (1 + 1e-9), (v, f, t, s)
        done += 1


@_report(11, "definition-set algebra: cones, idempotents, tangent slopes")
def test_criterion_11_defsets():
    alpha, beta = F(3, 2), F(5, 4)
    left = convolve(DefSet.cone(alpha), DefSet.cone(beta))
    right = DefSet.cone(alpha * beta)
    assert left.boundary == right.boundary
    pts = [((i + 1) / 100, (j + 1) / 100) for i in range(100)
           for j in range(100)]
    assert all(left.contains(t, s) == right.contains(t, s) for t, s in pts)
    assert is_idempotent_on_grid(DefSet.open_diagonal(), pts)
    assert is_idempotent_on_grid(DefSet.closed_subdiagonal(), pts)
    a, b = 0.55, 0.8
    curved = convolve(
        DefSet(CallableBoundary(lambda t: a * t + 0.7 * t * t)),
        DefSet(CallableBoundary(lambda t: b * t + 0.2 * t * t)),
    )
    assert abs(tangent_slope_at_origin(curved) - a * b) < 1e-6


@_report(12, "weight condition: geometric passes at (C, alpha) = (1, 1)")
def test_criterion_12_lambda_p():
    geom = WeightSequence("geometric")
    grid = [(i / 50, j / 50) for i in range(1, 51) for j in range(1, 51)
            if i < j]
    assert lambda_p_check(geom, geom, 1, 1, 1, grid)
    const = WeightSequence("constant")
    assert not lambda_p_check(const, const, 1, 1, 1, grid)


@_report(13, "formal majorants stay below the certified bound chain")
def test_criterion_13_certified_formal_consistency():
    cert = morse_certificate()
    steps = 6
    traj = lie_iterate_certified(cert, steps)
    order = default_trunc_order(steps)
    trace = lie_iterate_formal(
        quadratic_normal_form(order), TruncSeries.monomial(3, order), steps
    )
    for n in range(steps + 1):
        t_n, _, bound_n = traj[n]
        formal = majorant_norm(trace[n].b, F(t_n))
        assert formal.value <= bound_n, "step %d" % n
