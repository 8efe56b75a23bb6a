import dataclasses
import gc
import math
import random
import sys
import threading
import weakref
from fractions import Fraction as F

import pytest

from lienorm import prisma
from lienorm.prisma import (
    IterConfig,
    LeavesDomainError,
    PrismaState,
    closed_form_xn,
    closed_form_xn_bound,
    in_invariant_set,
    iterate,
    rapid_convergence_check,
    rho,
    step,
    t_infinity,
)


def base_map(t, s, lam):
    """(t, s) -> (s, s - lam*(t - s)): the base half of ``step``, from x = 0."""
    nxt = step(PrismaState(t, s, 0), IterConfig(R=1, k=0, l=0, lam=lam))
    return nxt.t, nxt.s


class TestBaseStep:
    def test_direct_formula(self):
        assert base_map(F(1), F(3, 4), F(1, 2)) == (F(3, 4), F(5, 8))

    def test_near_diagonal(self):
        eps = F(1, 100)
        lam = F(1, 3)
        assert base_map(1, 1 - eps, lam) == (1 - eps, 1 - eps - lam * eps)

    def test_iteration_limit(self):
        t, s = F(1), F(1, 2)
        lam = F(1, 4)
        for _ in range(40):
            t, s = base_map(t, s, lam)
        tinf = t_infinity(F(1), F(1, 2), lam)
        assert tinf == F(1, 3)
        assert abs(t - tinf) < F(1, 10**20)

    def test_leaves_domain(self):
        # s = 1/4 <= lambda*t, and the next s is -1/8
        with pytest.raises(LeavesDomainError, match=r"got t=1/4 s=-1/8$"):
            base_map(F(1), F(1, 4), F(1, 2))


class TestTInfinity:
    def test_reference_value(self):
        assert t_infinity(F(1), F(1, 2), F(1, 4)) == F(1, 3)

    def test_diagonal_start_is_fixed(self):
        assert t_infinity(F(1), F(1), F(1, 4)) == F(1)

    def test_small_lambda_tends_to_mu(self):
        assert abs(t_infinity(1.0, 0.7, 1e-12) - 0.7) < 1e-9

    def test_nonpositive_limit(self):
        # s0 <= lambda*t0, a start that step leaves at once
        with pytest.raises(LeavesDomainError, match=r"^needs s0 > lambda\*t0$"):
            t_infinity(F(1), F(1, 8), F(1, 2))
        with pytest.raises(LeavesDomainError):
            base_map(F(1), F(1, 8), F(1, 2))

    @pytest.mark.parametrize("t0, s0, lam", [
        (1, 2, F(1, 2)),       # s0 > t0: PrismaState rejects this start
        (1, F(1, 2), 1),       # lambda = 1: the limit divides by zero
        (1, F(1, 2), 0),
        (1, F(1, 2), -1),
        (1, 0, F(1, 2)),
        (1.0, 0.5, 1.5),
    ])
    def test_bad_start_or_lambda_is_a_value_error(self, t0, s0, lam):
        with pytest.raises(ValueError, match="t0 >= s0 > 0 and 0 < lambda < 1") as exc:
            t_infinity(t0, s0, lam)
        assert exc.type is ValueError

    def test_closed_form_matches_iterates(self):
        # t_n = t_inf + lam^n (t0 - t_inf) exactly, and s_n = t_{n+1}
        t0, s0, lam = F(1), F(1, 2), F(1, 4)
        tinf = t_infinity(t0, s0, lam)
        t, s = t0, s0
        for n in range(10):
            assert t == tinf + lam**n * (t0 - tinf)
            t_next, s_next = base_map(t, s, lam)
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
        state = PrismaState(1.0, 0.8, 0.01)
        for k in (2, 0):
            cfg = IterConfig(R=1.5, k=k, l=1, lam=0.5)
            for n, st_n in enumerate(iterate(state, cfg, 4)):
                assert closed_form_xn(n, state, cfg) == pytest.approx(st_n.x, rel=1e-12)

    def test_float_start_leaves_where_iterate_does(self):
        # s_1 = 0.4 - 0.25*(2.0 - 0.4) rounds to 0.0: there is no x_1,
        # whatever the pole orders, though (1 - lam) s_1 computed in closed
        # form is positive
        state = PrismaState(2.0, 0.4, 0.5)
        for k in (0, 1):
            cfg = IterConfig(R=1.0, k=k, l=1, lam=0.25)
            with pytest.raises(LeavesDomainError):
                iterate(state, cfg, 1)
            for form in (closed_form_xn, closed_form_xn_bound):
                with pytest.raises(LeavesDomainError, match=r"^s_1 <= 0"):
                    form(1, state, cfg)


def _random_rational(rng, lo=1, hi=8):
    return F(rng.randint(lo, hi), rng.randint(hi + 1, 2 * hi + 2))


class TestIntData:
    def test_all_int_data_step_and_close_exactly(self):
        state = PrismaState(4, 3, 1)
        cfg = IterConfig(R=2, k=1, l=2, lam=F(1, 2))
        traj = iterate(state, cfg, 5)
        assert all(type(st_n.x) is F for st_n in traj[1:])
        for n, st_n in enumerate(traj):
            exact = closed_form_xn(n, state, cfg)
            bound = closed_form_xn_bound(n, state, cfg)
            assert type(exact) is F and exact == st_n.x
            assert type(bound) is F and bound >= exact
        # x0 = 1 < R rho s lam^2 (t-s)^2 = 2 * 5/6 * 3 * 1/4
        assert in_invariant_set(state, cfg) is True
        assert base_map(4, 3, F(1, 2)) == (F(3), F(5, 2))
        assert all(type(v) is F for v in base_map(4, 3, F(1, 2)))
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

    def test_closed_forms_raise_exactly_when_iterate_does(self):
        # starts anywhere in the prisma, so many trajectories leave it;
        # with a fractional k a negative partial product would make the
        # closed forms complex
        rng = random.Random(20261018)
        raised = kept = 0
        for _ in range(400):
            t = F(rng.randint(5, 12), 4)
            state = PrismaState(t, t * F(rng.randint(1, 19), 20),
                                F(rng.randint(1, 9), 1000))
            cfg = IterConfig(R=F(rng.randint(1, 4), rng.randint(1, 2)),
                             k=rng.choice([0, F(1, 2), 1, F(3, 2), 2]),
                             l=rng.choice([0, F(1, 2), 1, 2]),
                             lam=F(rng.randint(1, 7), 8))
            n = rng.randint(0, 6)
            try:
                x_n = iterate(state, cfg, n)[-1].x
            except LeavesDomainError:
                raised += 1
                for form in (closed_form_xn, closed_form_xn_bound):
                    with pytest.raises(LeavesDomainError):
                        form(n, state, cfg)
                continue
            kept += 1
            exact = closed_form_xn(n, state, cfg)
            bound = closed_form_xn_bound(n, state, cfg)
            assert isinstance(exact, (F, float)) and isinstance(bound, (F, float))
            assert exact == pytest.approx(x_n, rel=1e-9, abs=1e-300)
            assert bound >= exact * (1 - 1e-9)
        assert raised > 50 and kept > 50

    def test_documented_exit_from_the_prisma(self):
        # s_2 = -5/32: there is no x_2 or x_3, though the unchecked formula
        # gives 1/192 and -1/1620 for them
        state = PrismaState(F(1), F(1, 2), F(1, 16))
        cfg = IterConfig(R=F(1), k=1, l=1, lam=F(3, 4))
        assert closed_form_xn(1, state, cfg) == iterate(state, cfg, 1)[-1].x
        with pytest.raises(LeavesDomainError, match=r"t > s > 0, got t=1/8 s=-5/32"):
            iterate(state, cfg, 2)
        for n in (2, 3):
            for form in (closed_form_xn, closed_form_xn_bound):
                with pytest.raises(LeavesDomainError):
                    form(n, state, cfg)

    def test_pole_free_closed_forms_name_the_first_index_that_leaves(self):
        # the message names the first i with s_i <= 0 (s_2 = -5/32 here)
        state = PrismaState(F(1), F(1, 2), F(1, 16))
        cfg = IterConfig(R=F(1), k=0, l=1, lam=F(3, 4))
        for form in (closed_form_xn, closed_form_xn_bound):
            assert form(1, state, cfg) == iterate(state, cfg, 1)[-1].x
            for n in (2, 3, 9):
                with pytest.raises(LeavesDomainError, match=r"^s_2 <= 0"):
                    form(n, state, cfg)

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


def _outcome(form, n, state, cfg):
    """Type and value of form(n, state, cfg), the value by repr for a float,
    or the type and message of what it raises."""
    try:
        value = form(n, state, cfg)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), repr(value) if isinstance(value, float) else value


def _fresh_outcomes(state, cfg):
    """The outcome of every call _calls makes, each on its own copies of
    the start, which share no chain with it or with each other."""
    return {(form, n): _outcome(form, n, dataclasses.replace(state),
                                dataclasses.replace(cfg))
            for n in range(10) for form in (closed_form_xn, closed_form_xn_bound)}


def _chain_start(rng, ks):
    """A seeded start of any number kind, with pole order k from ks."""
    kind = rng.choice(["fraction", "float", "mixed"])

    def conv(v):
        if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
            return float(v)
        return v

    t = F(rng.randint(5, 12), 4)
    state = PrismaState(conv(t), conv(t * F(rng.randint(1, 19), 20)),
                        conv(F(rng.randint(1, 999), 1000)))
    cfg = IterConfig(R=conv(F(rng.randint(1, 4), rng.randint(1, 2))),
                     k=rng.choice(ks),
                     l=rng.choice([0, F(1, 2), 1, 2]),
                     lam=conv(F(rng.randint(1, 7), 8)))
    return state, cfg


def _chain_starts(seed, count):
    """count seeded starts of every number kind, many of which leave the
    prisma, then count // 3 more with k = 0, F(0) or 0.0."""
    rng = random.Random(seed)
    ks = [F(1, 2), 1, F(3, 2), 2, 0.5, 1.0]
    return ([_chain_start(rng, ks) for _ in range(count)]
            + [_chain_start(rng, [0, F(0), 0.0]) for _ in range(count // 3)])


def _calls(rng, order):
    calls = [(form, n) for n in range(10)
             for form in (closed_form_xn, closed_form_xn_bound)]
    if order == "shuffled":
        rng.shuffle(calls)
    elif order == "repeated":
        calls = [rng.choice(calls) for _ in range(30)]
    else:
        calls.reverse()
    return calls


class TestChain:
    """The closed forms share one chain per start, extended across calls."""

    @pytest.mark.parametrize("order", ["shuffled", "repeated", "descending"])
    def test_any_call_order_gives_the_fresh_outcome(self, order):
        rng = random.Random(order)
        for state, cfg in _chain_starts(len(order), 60):
            expected = _fresh_outcomes(state, cfg)
            for call in _calls(rng, order):
                assert _outcome(*call, state, cfg) == expected[call], call

    def test_interleaved_starts_give_the_fresh_outcome(self):
        # call by call, three starts that share a state or a config
        rng = random.Random(5)
        starts = _chain_starts(6, 60)
        for (a, cfg_a), (b, cfg_b) in zip(starts[::2], starts[1::2]):
            mixed = [(a, cfg_a), (a, cfg_b), (b, cfg_a)]
            expected = [_fresh_outcomes(state, cfg) for state, cfg in mixed]
            for calls in zip(*(_calls(rng, "shuffled") for _ in mixed)):
                for (state, cfg), want, call in zip(mixed, expected, calls):
                    assert _outcome(*call, state, cfg) == want[call], call

    @pytest.mark.parametrize("order", [(4, 6), (6, 4)])
    def test_domain_error_wins_over_a_float_overflow(self, order):
        # q_4 already overflows a float, and s_5 <= 0: x_4 overflows, and
        # x_6 leaves the prisma whichever call comes first
        state = PrismaState(1.0, 0.49, 1e20)
        cfg = IterConfig(R=1.0, k=1, l=2, lam=0.5)
        for n in order:
            if n == 4:
                with pytest.raises(OverflowError):
                    closed_form_xn(n, state, cfg)
            else:
                with pytest.raises(LeavesDomainError, match=r"^s_5 <= 0"):
                    closed_form_xn(n, state, cfg)

    def test_only_the_latest_start_is_held(self):
        cfg = IterConfig(R=F(1), k=1, l=1, lam=F(1, 2))
        earlier = PrismaState(F(1), F(3, 4), F(1, 16))
        ref = weakref.ref(earlier)
        closed_form_xn(5, earlier, cfg)
        del earlier
        gc.collect()
        assert ref() is not None
        closed_form_xn(5, PrismaState(F(1), F(3, 4), F(1, 32)), cfg)
        gc.collect()
        assert ref() is None

    def test_threads_on_two_starts_match_a_sequential_run(self):
        starts = [(PrismaState(F(1), F(3, 4), F(1, 16)),
                   IterConfig(R=F(1), k=1, l=1, lam=F(1, 2))),
                  (PrismaState(1.0, 0.8, 0.01), IterConfig(R=1.5, k=2, l=1, lam=0.5))]
        expected = [[_outcome(closed_form_xn, n, dataclasses.replace(state),
                              dataclasses.replace(cfg)) for n in range(13)]
                    for state, cfg in starts]
        results = [[], []]

        def run(i):
            state, cfg = starts[i]
            for _ in range(40):
                results[i].append([_outcome(closed_form_xn, n, state, cfg)
                                   for n in range(13)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(2):
            assert results[i] == [expected[i]] * 40

    def test_one_walk_serves_every_n(self, monkeypatch):
        calls = []

        def counted(t, s, lam):
            calls.append((t, s))
            return rho(t, s, lam)

        monkeypatch.setattr(prisma, "rho", counted)
        for k in (1, 0):
            calls.clear()
            state = PrismaState(F(1), F(3, 4), F(1, 16))
            cfg = IterConfig(R=F(1), k=k, l=1, lam=F(1, 2))
            for n in range(13):
                closed_form_xn(n, state, cfg)
            # p_0 and one multiplier for each of p_1, ..., p_12
            assert len(calls) <= 13


class TestParametric:
    def test_documented_step_with_alpha(self):
        st4 = PrismaState(F(1), F(3, 4), F(1, 16), F(0))
        nxt = step(st4, CFG)
        assert (nxt.t, nxt.s, nxt.x, nxt.alpha) == (
            F(3, 4), F(5, 8), F(1, 64), F(1, 16)
        )

    def test_zero_is_fixed(self):
        st4 = PrismaState(F(1), F(3, 4), F(0), F(0))
        nxt = step(st4, CFG)
        assert nxt.x == 0 and nxt.alpha == 0

    def test_alpha_accumulates_previous_x(self):
        st4 = PrismaState(F(1), F(3, 4), F(1, 16), F(0))
        traj = iterate(st4, CFG, 6)
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
        traj = iterate(st4, CFG, 12)
        assert all(st_n.alpha <= r for st_n in traj)

    def test_step_keeps_alpha_none(self):
        traj = iterate(PrismaState(F(1), F(3, 4), F(1, 16)), CFG, 6)
        assert all(st_n.alpha is None for st_n in traj)
        assert "alpha" not in traj[-1].to_dict()


def _log(x):
    """log x of a positive Fraction too small for a float."""
    return math.log(x.numerator) - math.log(x.denominator)


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
        # at 60 points log C_59 is about -1e-17, too close to 0 for the tail test
        ok, _, _ = rapid_convergence_check([0.9 ** (n + 1) for n in range(60)])
        assert not ok

    @pytest.mark.parametrize("length", [4, 51, 55, 1100])
    def test_constant_sequence_fails(self, length):
        # 51 points gave C 0.9999999999999993 and 55 gave C 1.0; at 1100
        # points 2^n is past the float range
        ok, c, r = rapid_convergence_check([0.5] * length)
        assert not ok and math.isnan(c) and math.isnan(r)

    def test_documented_trajectory(self):
        traj = iterate(STATE, CFG, 12)
        ok, c, r = rapid_convergence_check([float(s.x) for s in traj])
        assert ok and r == pytest.approx(2.0)
        assert c < 1
        # the exact values, x_12 below the smallest float, give the same verdict
        assert rapid_convergence_check([s.x for s in traj]) == (ok, c, r)

    def test_shallow_rapid_sequence(self):
        xs = [0.99 ** (1.2**n) for n in range(25)]
        ok, c, r = rapid_convergence_check(xs, rho=1.2)
        assert ok and r == 1.2
        assert c == pytest.approx(0.99)
        # the structural exponent 2 is no witness for a slower sequence
        ok, c, r = rapid_convergence_check(xs)
        assert not ok and math.isnan(c) and math.isnan(r)

    def test_rho_must_exceed_one(self):
        for bad in (1, 0.5, math.nan):
            with pytest.raises(ValueError):
                rapid_convergence_check([0.25, 0.0625], rho=bad)

    def test_witness_holds_where_a_fitted_exponent_broke(self):
        # a least-squares fit on these 9 points claimed C 0.3, rho 2.0344...;
        # the exact x_18 breaks that claim and keeps the structural one
        state = PrismaState(F(1), F(7, 10), F(3, 10))
        cfg = IterConfig(R=8, k=0, l=1, lam=F(5, 8))
        ok, c, r = rapid_convergence_check([st.x for st in iterate(state, cfg, 8)])
        assert (ok, c, r) == (True, 0.3, 2.0)
        log_x18 = _log(closed_form_xn(18, state, cfg))
        assert log_x18 <= 2**18 * math.log(c)
        assert log_x18 > 2.0344390164759334**18 * math.log(c)

    def test_default_witness_bounds_the_exact_tail(self):
        # the criterion-9 recipe, every pole-order pair: a witness read off
        # 8 exact steps must bound the exact x_n through n = 16
        rng = random.Random(8016)
        accepted = 0
        for _ in range(3):
            for k, l in [(k, l) for k in range(3) for l in range(3) if k or l]:
                lam = rng.choice([F(1, 4), F(1, 2), F(3, 4)])
                cfg = IterConfig(R=F(rng.randint(1, 4), rng.randint(1, 2)),
                                 k=k, l=l, lam=lam)
                t = F(rng.randint(9, 16), 8)
                s = t * (lam + (1 - lam) * F(rng.randint(3, 9), 10))
                cap = cfg.R * rho(t, s, lam) ** k * s**k * lam**l * (t - s) ** l
                state = PrismaState(t, s, cap * F(rng.randint(1, 9), 10))
                ok, c, r = rapid_convergence_check(
                    [st.x for st in iterate(state, cfg, 8)])
                if not ok:
                    continue
                accepted += 1
                assert r == 2.0
                for n in range(17):
                    # C^(2^n) in log space, with room for the rounding of C
                    bound = 2**n * math.log(c) * (1 - 1e-12)
                    assert _log(closed_form_xn(n, state, cfg)) <= bound, (n, state, cfg)
        assert accepted >= 20

    def test_zeros_are_trivial(self):
        ok, c, r = rapid_convergence_check([0.0, 0.0])
        assert ok and c == 0.0

    def test_values_at_or_above_one_fail(self):
        ok, _, _ = rapid_convergence_check([1.0, 0.5, 0.25])
        assert not ok
        # beyond float range: decided without converting to float
        ok, _, _ = rapid_convergence_check([F(1, 2), F(3, 2) ** 2000])
        assert not ok

    def test_value_that_rounds_to_one_fails(self):
        # exactly below 1, but 1.0 as a float: no witness C < 1 can hold
        ok, c, r = rapid_convergence_check([F(1) - F(1, 10**30)])
        assert not ok and math.isnan(c) and math.isnan(r)

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
    def test_negative_step_count(self):
        for form in (iterate, closed_form_xn, closed_form_xn_bound):
            for cfg in (CFG, IterConfig(R=F(1), k=1, l=1, lam=F(1, 2))):
                with pytest.raises(ValueError, match=r"^n must be >= 0$"):
                    form(STATE, cfg, -1) if form is iterate else form(-1, STATE, cfg)

    def test_state_requires_prisma(self):
        with pytest.raises(ValueError):
            PrismaState(F(1, 2), F(1), F(0))

    def test_cfg_lambda_range(self):
        with pytest.raises(ValueError):
            IterConfig(R=1, lam=F(3, 2))

    @pytest.mark.parametrize("build, message", [
        (lambda: PrismaState(F(1), F(1, 2), F(-1, 8)), "x must be >= 0"),
        (lambda: IterConfig(R=0), "need R > 0"),
        (lambda: IterConfig(R=F(-1, 2)), "need R > 0"),
        (lambda: IterConfig(R=1, k=-1), "pole orders must be >= 0"),
        (lambda: IterConfig(R=1, l=F(-1, 2)), "pole orders must be >= 0"),
    ], ids=["negative-x", "zero-R", "negative-R", "negative-k", "negative-l"])
    def test_rejected_state_or_config(self, build, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            build()

    def test_int_coordinates_are_held_as_fractions(self):
        state = PrismaState(4, 3, 1, alpha=0)
        assert all(type(v) is F for v in (state.t, state.s, state.x, state.alpha))
        assert state.to_dict() == {"t": "4/1", "s": "3/1", "x": "1/1", "alpha": "0/1"}
        assert type(PrismaState(1.0, F(1, 2), 0).x) is F
        cfg = IterConfig(R=2, k=1, l=2, lam=F(1, 2))
        assert step(state, cfg).to_dict()["alpha"] == "1/1"

    def test_serialization_keeps_fractions(self):
        d = PrismaState(F(1), F(3, 4), F(1, 16)).to_dict()
        assert d == {"t": "1/1", "s": "3/4", "x": "1/16"}
