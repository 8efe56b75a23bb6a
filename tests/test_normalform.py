import functools
import math
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from test_power_series import horner_compose

from lienorm import normalform
from lienorm.disc_norms import majorant_norm
from lienorm.normalform import (
    Certificate,
    CertificateBreachError,
    LieTrace,
    certify,
    default_trunc_order,
    lie_iterate_certified,
    lie_iterate_formal,
    normalizer_series,
    quadratic_normal_form,
    threshold_T0,
)
from lienorm.power_series import TruncSeries, lie_exp
from lienorm.prisma import LeavesDomainError, rapid_convergence_check

E = math.e


def series(coeffs, n=None):
    return TruncSeries([F(c) for c in coeffs], n)


def exact(s):
    return s._num, s._den, s.trunc_order


def morse_certificate(t0=0.004):
    """The worked example: perturbation z^3, lam=1/4, mu=1/2, r=1/2."""
    return certify(t0, 0.25, 0.5, 0.5, 1.0, 3)


def morse_trace(steps=4, order=None):
    order = order or default_trunc_order(steps)
    a = quadratic_normal_form(order)
    return lie_iterate_formal(a, TruncSeries.monomial(3, order), steps)


class TestFormalIteration:
    def test_first_round_is_the_seed(self):
        tr = morse_trace(0, order=8)
        assert tr[0].b == TruncSeries.monomial(3, 8)
        assert tr[0].v == TruncSeries.monomial(2, 7)

    def test_printed_v1(self):
        tr = morse_trace(1, order=10)
        expected = series(
            [0, 0, 0, F(-3, 2), 4, F(-15, 2), 12, F(-35, 2), 24, F(-63, 2)], 9
        )
        assert tr[1].v == expected

    def test_printed_f2(self):
        tr = morse_trace(2, order=11)
        expected = series(
            [0, 0, F(1, 2), 0, 0, 0, F(-9, 2), 27, F(-493, 4), 525, F(-8579, 4)],
            10,
        )
        assert tr[2].f == expected

    def test_printed_f3_remainder(self):
        tr = morse_trace(3, order=11)
        b3 = tr[3].b
        assert b3.order == 10
        assert b3[10] == F(-243, 4)

    def test_printed_f4_remainder(self):
        tr = morse_trace(4, order=18)
        b4 = tr[4].b
        assert b4.order == 18
        assert b4[18] == F(-295245, 16)
        assert tr[4].f[2] == F(1, 2)

    def test_trace_pickles(self):
        tr = morse_trace(2)
        back = pickle.loads(pickle.dumps(tr))
        assert back == tr
        assert back.to_dict() == tr.to_dict()

    def test_order_doubling(self):
        tr = morse_trace(4, order=18)
        for i, r in enumerate(tr.rounds):
            assert r.v.order == 2**i + 1
            assert r.b.order == 2**i + 2

    def test_rejects_wrong_normal_form(self):
        a = TruncSeries.monomial(2, 8)  # z^2, not z^2/2
        with pytest.raises(ValueError):
            lie_iterate_formal(a, TruncSeries.monomial(3, 8), 1)

    def test_rejects_low_order_perturbation(self):
        a = quadratic_normal_form(8)
        with pytest.raises(ValueError):
            lie_iterate_formal(a, TruncSeries.monomial(2, 8), 1)

    def test_rejects_negative_steps(self):
        a = quadratic_normal_form(8)
        with pytest.raises(ValueError, match="^steps must be >= 0$"):
            lie_iterate_formal(a, TruncSeries.monomial(3, 8), -1)

    def test_general_exponent_and_weight(self):
        order = 12
        a = quadratic_normal_form(order)
        tr = lie_iterate_formal(a, TruncSeries.monomial(4, order, F(1, 2)), 2)
        # remainder order still squares away: 2^n + n(n-2)-ish growth, at
        # least the defining property holds
        psi = normalizer_series(tr)
        f0 = a + TruncSeries.monomial(4, order, F(1, 2))
        back = horner_compose(f0, psi)
        stable = min(back.trunc_order, 2**2 + 2)
        assert back.truncate(stable) == a.truncate(stable)


class TestNormalizer:
    def test_printed_psi(self):
        tr = morse_trace(3, order=8)
        psi = normalizer_series(tr)
        assert psi == series([0, 1, -1, F(5, 2), -8, F(231, 8)], 5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="^empty trace$"):
            normalizer_series(LieTrace(()))

    def test_empty_steps_give_z(self):
        tr = morse_trace(0, order=6)
        psi = normalizer_series(tr)
        # e^{-v_0} z alone; composing nothing else
        assert psi[1] == 1 and psi[0] == 0

    def test_matches_series_inversion(self):
        tr = morse_trace(4, order=13)
        psi = normalizer_series(tr)
        phi = (series([1, 2], 13).binomial_pow(F(1, 2)) * TruncSeries.x(14))
        inv = phi.invert()
        n = min(psi.trunc_order, 12)
        assert psi.truncate(n) == inv.truncate(n)

    def test_defining_property(self):
        for n_exp, beta in [(3, F(1)), (4, F(1, 2)), (5, F(1))]:
            order = 14
            a = quadratic_normal_form(order)
            tr = lie_iterate_formal(a, TruncSeries.monomial(n_exp, order, beta), 3)
            psi = normalizer_series(tr)
            f0 = a + TruncSeries.monomial(n_exp, order, beta)
            back = horner_compose(f0, psi)
            stable = min(back.trunc_order, 2**3 + 1)
            assert back.truncate(stable) == a.truncate(stable)

    def test_equals_the_fold_of_substitutions(self):
        # psi = sigma_0 o sigma_1 o ... by the composition reference, and
        # each sigma_n as the iteration once built it, against z at the
        # larger of the two input truncations
        rng = random.Random(30)

        def perturbation(n):
            lo = rng.randint(3, 5)
            return TruncSeries([0] * lo + [F(rng.randint(-9, 9), rng.randint(1, 9))
                                           for _ in range(n + 1 - lo)], n)

        cases = [(4, 20, perturbation(20)), (3, 14, perturbation(9)),
                 (2, 9, perturbation(14)), (3, 12, TruncSeries.zero(12))]
        cases += [(rng.randint(0, 4), rng.randint(4, 18), perturbation(rng.randint(4, 18)))
                  for _ in range(12)]
        for steps, na, b0 in cases:
            tr = lie_iterate_formal(quadratic_normal_form(na), b0, steps)
            subs = [r.substitution for r in tr.rounds]
            zvar = TruncSeries.x(max(na, b0.trunc_order))
            for r, sigma in zip(tr.rounds, subs):
                assert exact(sigma) == exact(lie_exp(r.v, zvar))
            fold = functools.reduce(horner_compose, subs)
            assert exact(normalizer_series(tr)) == exact(fold)

    def test_one_lie_exponential_per_round_and_use(self, monkeypatch):
        calls = []

        def counted(v, f):
            calls.append(v)
            return lie_exp(v, f)

        monkeypatch.setattr(normalform, "lie_exp", counted)
        tr = morse_trace(4)
        assert len(calls) == len(tr)  # building a trace computes no substitution
        calls.clear()
        normalizer_series(tr)
        assert len(calls) == len(tr)
        calls.clear()
        tr.to_dict()
        assert len(calls) == len(tr)


class TestCertificate:
    def test_morse_default_passes(self):
        cert = morse_certificate(0.004)
        assert cert.passes
        assert cert.cond_i and cert.cond_ii and cert.cond_iii
        assert cert.t_inf == pytest.approx(0.004 / 3)

    def test_condition_ii_binds(self):
        cert = morse_certificate(0.0044)
        assert cert.cond_i and not cert.cond_ii
        assert E * 0.0044 == pytest.approx(0.011960, abs=1e-5)
        assert cert.margin_ii < 0

    def test_lambda_above_mu_fails_iii(self):
        cert = certify(0.001, 0.6, 0.5, 0.5, 1.0, 3)
        assert not cert.cond_iii and not cert.passes

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            certify(0.004, 0.25, 0.5, 1.5, 1.0, 3)
        with pytest.raises(ValueError):
            certify(-1, 0.25, 0.5, 0.5, 1.0, 3)
        with pytest.raises(ValueError):
            certify(0.004, 0.25, 0.5, 0.5, 1.0, 2)

    @pytest.mark.parametrize("args, message", [
        ((0.004, 0.0, 0.5, 0.5, 1.0, 3), r"need lambda, mu in \(0, 1\)"),
        ((0.004, 0.25, 1.0, 0.5, 1.0, 3), r"need lambda, mu in \(0, 1\)"),
        ((0.004, 0.25, 0.5, 0.5, -1.0, 3), "need beta >= 0"),
        # t0 and the margin scale are in range, but s0^11 = 5e1099 is not
        ((1e100, 0.25, 0.5, 0.5, 1.0, 12), r"t0 = 1e\+100, mu = 0.5, n = 12 are out of "
         r"range: s0\^\(n-1\) = \(mu\*t0\)\^\(n-1\) is past the float range"),
    ], ids=["lambda-0", "mu-1", "negative-beta", "state0-bound-overflow"])
    def test_rejected_parameters(self, args, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            certify(*args)

    def test_serialization(self):
        doc = morse_certificate().to_dict()
        assert doc["passes"] is True
        assert set(doc["conditions"]) == {"i", "ii", "iii"}


class TestOneRule:
    """Conditions i-iii are the certified chain's strict step-0 tests."""

    @staticmethod
    def cases(count, seed=22):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.choice([3, 4, 5, 7, 10])
            lam, mu = sorted(rng.uniform(0.01, 0.99) for _ in range(2))
            r, beta = rng.uniform(0.01, 0.99), rng.uniform(0.01, 5)
            t0 = threshold_T0(lam, mu, r, beta, n)
            if rng.random() < 0.5:
                for _ in range(rng.randint(0, 8)):
                    t0 = math.nextafter(t0, rng.choice([0, math.inf]))
            else:
                t0 *= rng.uniform(0.5, 1.5)
            if rng.random() < 0.05:
                lam, mu = mu, lam
            yield certify(t0, lam, mu, r, beta, n)

    def test_verdict_is_step_zero_of_the_chain(self):
        disagree = []
        for cert in self.cases(3000):
            try:
                lie_iterate_certified(cert, 0)
                chain = True
            except CertificateBreachError:
                chain = False
            if cert.passes != chain:
                disagree.append(cert)
        assert disagree == []

    def test_margin_signs_match_verdicts(self):
        for cert in self.cases(3000):
            for c in ("i", "ii", "iii"):
                holds, margin = getattr(cert, "cond_" + c), getattr(cert, "margin_" + c)
                assert holds == (margin > 0), (c, cert)

    def test_conditions_are_the_state_zero_gaps(self):
        cert = morse_certificate()
        assert (cert.state0.t, cert.state0.s) == (0.004, 0.002)
        assert cert.state0.x == E * 0.002**2
        assert (cert.cfg.R, cert.cfg.k, cert.cfg.l, cert.cfg.lam) == (cert.R, 1, 2, 0.25)
        assert cert.margin_i * 0.5**2 * 0.004 == pytest.approx(0.5 * 0.002 - cert.state0.x)
        assert cert.margin_iii == pytest.approx(0.25)


class TestThreshold:
    def test_reference_threshold(self):
        t0 = threshold_T0(0.25, 0.5, 0.5, 1.0, 3)
        assert t0 == pytest.approx(3 / (256 * E), abs=1e-14)
        assert t0 == pytest.approx(0.00431108720123, abs=1e-11)

    def test_reference_t_inf(self):
        t0 = threshold_T0(0.25, 0.5, 0.5, 1.0, 3)
        t_inf = (0.5 - 0.25) / (1 - 0.25) * t0
        assert t_inf == pytest.approx(0.001437029067, abs=1e-11)

    def test_beta_scaling_at_n3(self):
        assert threshold_T0(0.25, 0.5, 0.5, 2.0, 3) == pytest.approx(
            threshold_T0(0.25, 0.5, 0.5, 1.0, 3) / 2
        )

    @pytest.mark.parametrize("args, message", [
        ((0.5, 0.25, 0.5, 1.0, 3), "need 0 < lambda < mu < 1"),
        ((0.25, 0.25, 0.5, 1.0, 3), "need 0 < lambda < mu < 1"),
        ((0.25, 0.5, 1.0, 1.0, 3), r"need r in \(0, 1\)"),
        ((0.25, 0.5, 0.5, 0.0, 3), "need beta > 0"),
        ((0.25, 0.5, 0.5, 1.0, 2), "need n >= 3"),
    ], ids=["lambda-above-mu", "lambda-equals-mu", "r-1", "beta-0", "n-2"])
    def test_rejected_parameters(self, args, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            threshold_T0(*args)

    @pytest.mark.parametrize("args, message", [
        ((1e-300, 0.5, 0.5, 1.0, 3), "T0 rounds to 0.0 in floats"),
        ((0.25, 0.5, 0.5, 1e-320, 3), "T0 rounds to inf in floats"),
        # mu^2 underflows, so rhs_i would divide by 0.0
        ((1e-201, 1e-200, 0.5, 1.0, 3),
         "T0 has no float value: mu^(n-1) rounds to 0.0 in floats"),
    ], ids=["underflow", "overflow", "mu-underflow"])
    def test_float_out_of_range(self, args, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            threshold_T0(*args)

    def test_certificate_agrees_with_threshold(self):
        t0 = threshold_T0(0.25, 0.5, 0.5, 1.0, 3)
        assert certify(t0 * 0.999, 0.25, 0.5, 0.5, 1.0, 3).passes
        assert not certify(t0 * 1.001, 0.25, 0.5, 0.5, 1.0, 3).passes


class TestCertifiedIteration:
    def test_monotone_rapid_bounds(self):
        traj = lie_iterate_certified(morse_certificate(), 8)
        bounds = [x for _, _, x in traj]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        ok, _, rho = rapid_convergence_check(bounds)
        assert ok and rho == pytest.approx(2.0)

    def test_zero_perturbation(self):
        cert = certify(0.004, 0.25, 0.5, 0.5, 0.0, 3)
        traj = lie_iterate_certified(cert, 5)
        assert all(x == 0 for _, _, x in traj)

    def test_breach_just_above_threshold(self):
        t0 = threshold_T0(0.25, 0.5, 0.5, 1.0, 3) * 1.01
        cert = certify(t0, 0.25, 0.5, 0.5, 1.0, 3)
        with pytest.raises(CertificateBreachError) as err:
            lie_iterate_certified(cert, 3)
        assert err.value.step == 0

    def test_breach_of_the_tetrahedron(self):
        # r = 1/1000: the first bound e*s0^2 is above r*(t0 - s0)
        cert = certify(0.004, 0.25, 0.5, 0.001, 1.0, 3)
        with pytest.raises(CertificateBreachError,
                           match="^step 0: bound .* leaves the tetrahedron") as err:
            lie_iterate_certified(cert, 3)
        assert err.value.step == 0

    def test_mu_not_above_lambda_breaches_at_step_zero(self):
        # s0 <= lam*t0 puts state 0 outside the invariant set
        cert = certify(0.001, 0.6, 0.5, 0.5, 1.0, 3)
        with pytest.raises(CertificateBreachError,
                           match="^step 0: bound .* leaves the quadratic invariant set") as err:
            lie_iterate_certified(cert, 3)
        assert err.value.step == 0

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="^steps must be >= 0$"):
            lie_iterate_certified(morse_certificate(), -1)

    def test_float_chain_that_reaches_the_diagonal_leaves_the_prisma(self):
        # t_n - s_n = lam^n (t0 - s0) shrinks below an ulp of t_n: at step 27
        # rounding makes s_27 equal t_27
        with pytest.raises(LeavesDomainError, match=r"^prisma needs t > s > 0, got "
                           r"t=0.0013333333333333335 s=0.0013333333333333335$"):
            lie_iterate_certified(morse_certificate(1 / 250), 27)
        assert len(lie_iterate_certified(morse_certificate(1 / 250), 26)) == 27

    @pytest.mark.parametrize("steps", [0, 1, 5])
    def test_computes_no_state_past_the_last_returned(self, monkeypatch, steps):
        # state 0 is the certificate's; each later state is one prisma step
        calls = []
        step = normalform.prisma.step

        def counted(state, cfg):
            calls.append(state)
            return step(state, cfg)

        monkeypatch.setattr(normalform.prisma, "step", counted)
        traj = lie_iterate_certified(morse_certificate(), steps)
        assert len(traj) == steps + 1
        assert len(calls) == steps

    def test_base_pairs_follow_the_contraction(self):
        cert = morse_certificate()
        traj = lie_iterate_certified(cert, 6)
        lam = cert.lam
        for (t1, s1, _), (t2, s2, _) in zip(traj, traj[1:]):
            assert t2 == s1
            assert s2 == pytest.approx(s1 - lam * (t1 - s1))

    def test_formal_majorants_stay_below_certified_bounds(self):
        cert = morse_certificate()
        steps = 6
        traj = lie_iterate_certified(cert, steps)
        order = default_trunc_order(steps)
        tr = lie_iterate_formal(
            quadratic_normal_form(order), TruncSeries.monomial(3, order), steps
        )
        for n in range(steps + 1):
            t_n = traj[n][0]
            bound_n = traj[n][2]
            formal = majorant_norm(tr[n].b, F(t_n).limit_denominator(10**15))
            assert formal.value <= bound_n, "step %d" % n


class TestBorelChainConstant:
    def test_worked_constant_reproduces(self):
        # j (1,0)-local with constant 1 composed with the quadratic Borel
        # estimate (constant 4|a|_t at r=1/2) gives C = 2 t0^2, poles (1,2)
        from lienorm.disc_norms import LocalOpBound, compose_local_bounds, \
            division_by_z_bound
        t0 = 0.004
        cert = morse_certificate(t0)
        a_maj = t0**2 / 2
        borel_part = LocalOpBound(4 * a_maj, 0, 2)
        chained = compose_local_bounds(division_by_z_bound(), borel_part)
        assert chained.k == 1 and chained.l == 2
        assert chained.C == pytest.approx(2 * t0**2)
        assert chained.C == pytest.approx(cert.C)
        assert cert.R == pytest.approx(1 / chained.C)
