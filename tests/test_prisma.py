import math
import random
from fractions import Fraction as F

import pytest

from lienorm.prisma import (
    IterConfig,
    LeavesDomainError,
    NonpositiveLimitError,
    PrismaState,
    base_step,
    closed_form_xn,
    closed_form_xn_bound,
    in_invariant_set,
    iterate,
    param_step,
    rapid_convergence_check,
    rho,
    step,
    t_infinity,
)


class TestBaseStep:
    def test_direct_formula(self):
        assert base_step(F(1), F(3, 4), F(1, 2)) == (F(3, 4), F(5, 8))

    def test_near_diagonal(self):
        eps = F(1, 100)
        lam = F(1, 3)
        assert base_step(1, 1 - eps, lam) == (1 - eps, 1 - eps - lam * eps)

    def test_iteration_limit(self):
        t, s = F(1), F(1, 2)
        lam = F(1, 4)
        for _ in range(40):
            t, s = base_step(t, s, lam)
        tinf = t_infinity(F(1), F(1, 2), lam)
        assert tinf == F(1, 3)
        assert abs(t - tinf) < F(1, 10**20)

    def test_leaves_domain(self):
        with pytest.raises(LeavesDomainError):
            base_step(F(1), F(1, 4), F(1, 2))


class TestTInfinity:
    def test_reference_value(self):
        assert t_infinity(F(1), F(1, 2), F(1, 4)) == F(1, 3)

    def test_diagonal_start_is_fixed(self):
        assert t_infinity(F(1), F(1), F(1, 4)) == F(1)

    def test_small_lambda_tends_to_mu(self):
        assert abs(t_infinity(1.0, 0.7, 1e-12) - 0.7) < 1e-9

    def test_nonpositive_limit(self):
        with pytest.raises(NonpositiveLimitError):
            t_infinity(F(1), F(1, 8), F(1, 2))

    def test_closed_form_matches_iterates(self):
        # t_n = t_inf + lam^n (t0 - t_inf) exactly, and s_n = t_{n+1}
        t0, s0, lam = F(1), F(1, 2), F(1, 4)
        tinf = t_infinity(t0, s0, lam)
        t, s = t0, s0
        for n in range(10):
            assert t == tinf + lam**n * (t0 - tinf)
            t_next, s_next = base_step(t, s, lam)
            assert t_next == s
            t, s = t_next, s_next


CFG = IterConfig(R=F(1), k=0, l=1, lam=F(1, 2))
STATE = PrismaState(F(1), F(3, 4), F(1, 16))


class TestStep:
    def test_documented_step(self):
        nxt = step(STATE, CFG)
        assert (nxt.t, nxt.s, nxt.x) == (F(3, 4), F(5, 8), F(1, 64))

    def test_zero_stays_zero(self):
        st0 = PrismaState(F(1), F(3, 4), F(0))
        assert step(st0, CFG).x == 0

    def test_second_iterate(self):
        nxt = step(step(STATE, CFG), CFG)
        assert (nxt.t, nxt.s, nxt.x) == (F(5, 8), F(9, 16), F(1, 512))


class TestInvariantSet:
    def test_documented_membership(self):
        assert in_invariant_set(STATE, CFG)

    def test_boundary_is_excluded(self):
        on_boundary = PrismaState(F(1), F(3, 4), F(1, 8))
        assert not in_invariant_set(on_boundary, CFG)

    def test_base_condition(self):
        assert not in_invariant_set(PrismaState(F(1), F(1, 2), F(1, 100)), CFG)

    def test_rho_factor(self):
        assert rho(F(1), F(3, 4), F(1, 2)) == F(5, 6)


class TestClosedForm:
    def test_n_zero(self):
        assert closed_form_xn(0, STATE, CFG) == F(1, 16)

    def test_matches_two_steps(self):
        assert closed_form_xn(2, STATE, CFG) == F(1, 512)

    def test_one_index_form(self):
        # pole on the diagonal only, as in the simplest iteration model
        cfg = IterConfig(R=F(1), k=1, l=0, lam=F(1, 2))
        # (R lam^k (t0-s0)^k)^(1-2^n) lam^(kn) x0^(2^n) with the roles of
        # the pole orders swapped into the sub-diagonal slot
        cfg_d1 = IterConfig(R=F(1), k=0, l=1, lam=F(1, 2))
        assert closed_form_xn(1, STATE, cfg_d1) == F(1, 64)
        # by hand: x1 = (1/16)^2 / (3/4) and x2 = (1/192)^2 / (5/8)
        assert closed_form_xn(1, STATE, cfg) == F(1, 192)
        assert closed_form_xn(2, STATE, cfg) == F(1, 23040)

    def test_integral_fraction_pole_orders_stay_exact(self):
        cfg = IterConfig(R=F(3, 2), k=F(1), l=F(2), lam=F(1, 2))
        state = PrismaState(F(1), F(3, 4), F(1, 100))
        for n, st_n in enumerate(iterate(state, cfg, 6)):
            value = closed_form_xn(n, state, cfg)
            assert isinstance(value, F)
            assert value == st_n.x

    def test_int_inputs_stay_exact(self):
        cfg = IterConfig(R=3, k=1, l=1, lam=F(1, 2))
        state = PrismaState(F(4), 3, F(1, 10))
        x1 = step(state, cfg).x
        assert x1 == F(1, 900)
        assert isinstance(x1, F)
        for n, st_n in enumerate(iterate(state, cfg, 5)):
            value = closed_form_xn(n, state, cfg)
            assert isinstance(value, F)
            assert value == st_n.x

    def test_float_state_matches_iterates(self):
        cfg = IterConfig(R=1.5, k=2, l=1, lam=0.5)
        state = PrismaState(1.0, 0.8, 0.01)
        for n, st_n in enumerate(iterate(state, cfg, 4)):
            assert closed_form_xn(n, state, cfg) == pytest.approx(st_n.x, rel=1e-12)


def _random_rational(rng, lo=1, hi=8):
    return F(rng.randint(lo, hi), rng.randint(hi + 1, 2 * hi + 2))


class TestIntData:
    def test_all_int_data_step_and_close_exactly(self):
        state = PrismaState(4, 3, 1)
        cfg = IterConfig(R=2, k=1, l=2, lam=F(1, 2), d=2)
        traj = iterate(state, cfg, 5)
        assert all(type(st_n.x) is F for st_n in traj[1:])
        for n, st_n in enumerate(traj):
            exact = closed_form_xn(n, state, cfg)
            bound = closed_form_xn_bound(n, state, cfg)
            assert type(exact) is F and exact == st_n.x
            assert type(bound) is F and bound >= exact
        # x0 = 1 < R rho s lam^2 (t-s)^2 = 2 * 5/6 * 3 * 1/4
        assert in_invariant_set(state, cfg) is True
        assert base_step(4, 3, F(1, 2)) == (F(3), F(5, 2))
        assert all(type(v) is F for v in base_step(4, 3, F(1, 2)))
        tinf = t_infinity(4, 3, F(1, 2))
        assert type(tinf) is F and tinf == 2


class TestRandomizedExactness:
    def test_fifty_configurations(self):
        rng = random.Random(20240517)
        checked = 0
        while checked < 50:
            lam = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
            k = rng.choice([0, 1, 2])
            l = rng.choice([0, 1, 2])
            if k == l == 0:
                continue
            R = F(rng.randint(1, 5), rng.randint(1, 3))
            t = 1 + _random_rational(rng)
            s = t * (lam + (1 - lam) * F(rng.randint(2, 9), 10))
            cfg = IterConfig(R=R, k=k, l=l, lam=lam)
            cap = R * rho(t, s, lam) ** k * s**k * lam**l * (t - s) ** l
            x = cap * F(rng.randint(1, 9), 10)
            state = PrismaState(t, s, x)
            if not in_invariant_set(state, cfg):
                continue
            traj = iterate(state, cfg, 12)
            for n, st_n in enumerate(traj):
                assert in_invariant_set(st_n, cfg), (
                    "invariance broke at step %d of cfg %s" % (n, cfg)
                )
                assert closed_form_xn(n, state, cfg) == st_n.x
                # displayed form dominates, and is exact when k = 0
                bound = closed_form_xn_bound(n, state, cfg)
                assert st_n.x <= bound
                if k == 0:
                    assert bound == st_n.x
            checked += 1

    def test_gap_contracts_exactly(self):
        rng = random.Random(7)
        for _ in range(20):
            lam = F(rng.randint(1, 7), 8)
            t = F(rng.randint(5, 9), 4)
            s = t * (lam + (1 - lam) * F(3, 4))
            state = PrismaState(t, s, F(1, 1000))
            cfg = IterConfig(R=F(2), k=0, l=1, lam=lam)
            traj = iterate(state, cfg, 8)
            for n, st_n in enumerate(traj):
                assert st_n.t - st_n.s == lam**n * (t - s)


class TestParametric:
    def test_documented_param_step(self):
        st4 = PrismaState(F(1), F(3, 4), F(1, 16), F(0))
        nxt = param_step(st4, CFG)
        assert (nxt.t, nxt.s, nxt.x, nxt.alpha) == (
            F(3, 4), F(5, 8), F(1, 64), F(1, 16)
        )

    def test_zero_is_fixed(self):
        st4 = PrismaState(F(1), F(3, 4), F(0), F(0))
        nxt = param_step(st4, CFG)
        assert nxt.x == 0 and nxt.alpha == 0

    def test_alpha_accumulates_previous_x(self):
        st4 = PrismaState(F(1), F(3, 4), F(1, 16), F(0))
        traj = iterate(st4, CFG, 6, parametric=True)
        for n in range(1, len(traj)):
            assert traj[n].alpha == sum(traj[i].x for i in range(n))

    def test_alpha_stays_below_r(self):
        # summability side condition: sum K^(1-2^n) rho^(kn) lam^(ln) x^(2^n) <= r
        st4 = PrismaState(F(1), F(3, 4), F(1, 16), F(0))
        K = float(CFG.R * CFG.lam * (st4.t - st4.s))
        ratio = float(st4.x) / K
        total = sum(
            K * ratio ** (2**n) * float(CFG.lam) ** n for n in range(20)
        )
        r = total * 1.001
        traj = iterate(st4, CFG, 12, parametric=True)
        assert all(st_n.alpha <= r for st_n in traj)

    def test_param_step_needs_alpha(self):
        with pytest.raises(ValueError):
            param_step(PrismaState(F(1), F(1, 2), F(0)), CFG)


class TestRapidConvergence:
    def test_exact_doubling(self):
        ok, c, r = rapid_convergence_check([(0.5) ** (2**n) for n in range(8)])
        assert ok
        assert r == pytest.approx(2.0)
        assert c == pytest.approx(0.5, rel=1e-6)

    def test_polynomial_decay_fails(self):
        ok, c, r = rapid_convergence_check([1.0 / (n + 1) for n in range(12)])
        assert not ok and math.isnan(c)

    def test_geometric_decay_fails(self):
        ok, _, _ = rapid_convergence_check([0.9 ** (n + 1) for n in range(12)])
        assert not ok

    def test_documented_trajectory(self):
        traj = iterate(STATE, CFG, 12)
        ok, c, r = rapid_convergence_check([float(s.x) for s in traj])
        assert ok and r == pytest.approx(2.0)
        assert c < 1
        # the exact values, x_12 below the smallest float, give the same verdict
        assert rapid_convergence_check([s.x for s in traj]) == (ok, c, r)

    def test_shallow_rapid_sequence(self):
        ok, c, r = rapid_convergence_check([0.99 ** (1.2**n) for n in range(25)])
        assert ok
        assert r == pytest.approx(1.2, abs=0.01)

    def test_zeros_are_trivial(self):
        ok, c, r = rapid_convergence_check([0.0, 0.0])
        assert ok and c == 0.0

    def test_values_at_or_above_one_fail(self):
        ok, _, _ = rapid_convergence_check([1.0, 0.5, 0.25])
        assert not ok
        # beyond float range: decided without converting to float
        ok, _, _ = rapid_convergence_check([F(1, 2), F(3, 2) ** 2000])
        assert not ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rapid_convergence_check([])

    def test_short_sequence_witness(self):
        # 1/2 <= C^(2^2) needs C >= 2^(-1/4); max|x| = 1/2 is no witness
        ok, c, r = rapid_convergence_check([0.25, 0.25, 0.5])
        assert ok and r == 2.0
        assert c == pytest.approx(2**-0.25, rel=1e-15)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_reported_witness_bounds_the_data(self, length):
        rng = random.Random(length)
        for _ in range(200):
            kind = rng.randrange(3)
            if kind == 0:
                c0, r0 = rng.uniform(0.05, 0.95), rng.uniform(1.2, 3.0)
                xs = [c0 ** (r0**n) for n in range(length)]
            elif kind == 1:
                xs = [rng.random() for _ in range(length)]
            else:
                xs = [rng.choice([0.0, rng.random()]) for _ in range(length)]
            ok, c, r = rapid_convergence_check(xs)
            if ok:
                assert all(x <= c ** (r**n) * (1 + 1e-12) for n, x in enumerate(xs)), xs


class TestValidation:
    def test_state_requires_prisma(self):
        with pytest.raises(ValueError):
            PrismaState(F(1, 2), F(1), F(0))

    def test_cfg_lambda_range(self):
        with pytest.raises(ValueError):
            IterConfig(R=1, lam=F(3, 2))

    def test_int_coordinates_are_held_as_fractions(self):
        state = PrismaState(4, 3, 1, alpha=0)
        assert all(type(v) is F for v in (state.t, state.s, state.x, state.alpha))
        assert state.to_dict() == {"t": "4/1", "s": "3/1", "x": "1/1", "alpha": "0/1"}
        assert type(PrismaState(1.0, F(1, 2), 0).x) is F
        cfg = IterConfig(R=2, k=1, l=2, lam=F(1, 2))
        assert param_step(state, cfg).to_dict()["alpha"] == "1/1"

    def test_serialization_keeps_fractions(self):
        d = PrismaState(F(1), F(3, 4), F(1, 16)).to_dict()
        assert d == {"t": "1/1", "s": "3/4", "x": "1/16"}
