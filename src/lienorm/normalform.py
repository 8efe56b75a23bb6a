"""Lie-iteration normalization of z^2/2 + perturbation, at two levels.

The formal level runs the recursion b_{n+1} = e^{-v_n}(a + b_n) - a,
v_n = j(b_n) in exact rational arithmetic and reproduces printed
coefficients; the certified level iterates only the norm bounds through
the prisma dynamics, checking at every step that the trajectory stays in
the invariant sets that guarantee convergence.  The two layers share no
arithmetic and are reconciled by consistency tests.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import prisma
from .power_series import TruncSeries, j_map, lie_exp

E = math.e


class CertificateBreachError(RuntimeError):
    """Norm trajectory left the certified invariant set."""

    def __init__(self, step, message):
        super().__init__(message)
        self.step = step


class LieRound(namedtuple("LieRound", "b v f")):
    """One round (b_n, v_n, f_n) of the formal iteration; v is the
    derivation v(z) d/dz.

    The substitution sigma_n = e^{-v_n} z is computed on each read; the
    normalizer does not need it (see normalizer_series).
    """

    __slots__ = ()

    @property
    def substitution(self) -> TruncSeries:
        """Image of z under e^{-v}."""
        return lie_exp(self.v, TruncSeries.x(self.v.trunc_order + 1))

    def to_dict(self) -> dict:
        return {
            "b": self.b.to_dict(),
            "v": self.v.to_dict(),
            "f": self.f.to_dict(),
            "substitution": self.substitution.to_dict(),
        }


class LieTrace:
    __slots__ = ("rounds",)

    def __init__(self, rounds):
        self.rounds = rounds

    def __eq__(self, other):
        if type(other) is not LieTrace:
            return NotImplemented
        return self.rounds == other.rounds

    def __len__(self):
        return len(self.rounds)

    def __getitem__(self, i):
        return self.rounds[i]

    def to_dict(self) -> dict:
        return {"rounds": [r.to_dict() for r in self.rounds]}


def quadratic_normal_form(trunc_order: int) -> TruncSeries:
    """The target normal form z^2/2."""
    return TruncSeries.monomial(2, trunc_order, Fraction(1, 2))


def default_trunc_order(steps: int) -> int:
    """Enough coefficients (2^(steps+1) + 4) to hold every remainder the
    requested rounds can produce."""
    return 2 ** (steps + 1) + 4


def lie_iterate_formal(a: TruncSeries, b0: TruncSeries, steps: int) -> LieTrace:
    """Run the recursion v_n = j(b_n), f_{n+1} = e^{-v_n} f_n exactly.

    Round n of the result holds (b_n, v_n, f_n); its substitution
    e^{-v_n} z is computed when read.  Requires the normal form a = z^2/2
    (the division map j inverts the action v -> v(a) = z*v only there)
    and order(b0) >= 3.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if a != quadratic_normal_form(a.trunc_order):
        raise ValueError("the formal iteration is implemented for a = z^2/2")
    o = b0.order
    if o is not math.inf and o < 3:
        raise ValueError("perturbation must vanish to order >= 3, got order %s" % o)
    f = a + b0
    b = b0
    rounds = []
    for _ in range(steps + 1):
        v = j_map(b)
        rounds.append(LieRound(b, v, f))
        f = lie_exp(v, f)
        b = f - a
    return LieTrace(tuple(rounds))


def normalizer_series(trace: LieTrace) -> TruncSeries:
    """Image of z under ... e^{-v_1} e^{-v_0}: the coordinate change that
    carries f_0 to the normal form.

    Starting from psi = z, each round applies its exponential:
    psi_{n+1} = e^{-v_n} psi_n = psi_n o sigma_n, sigma_n = e^{-v_n} z.
    Each sigma_n acts on the inside, so the coefficient of z^k is final
    once 2^n + 1 > k.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    psi = TruncSeries.x(trace[0].v.trunc_order + 1)
    for r in trace.rounds:
        psi = lie_exp(r.v, psi)
    return psi


def t_inf(lam, mu, t0):
    """Radius (mu - lam)/(1 - lam) * t0 that the certified run keeps."""
    return (mu - lam) / (1 - lam) * t0


def _step_gaps(state, cfg, r):
    """The certified step test: the gaps r(t-s) - x (tetrahedron),
    invariant_bound - x and s - lam*t (invariant set), each > 0 when its
    test holds."""
    t, s, x = state.t, state.s, state.x
    return r * (t - s) - x, prisma.invariant_bound(state, cfg) - x, s - cfg.lam * t


class Certificate:
    """Convergence certificate for the perturbation beta * z^n of z^2/2.

    Conditions i-iii are the strict step tests (_step_gaps) of the
    certified chain at its state 0, state0 = (t0, s0, e*beta*s0^(n-1))
    with s0 = mu*t0, under cfg = IterConfig(R, k=1, l=2, lam):
      i)   x0 < r(t0 - s0)                   (starting tetrahedron)
      ii)  x0 < prisma.invariant_bound       (invariant set)
      iii) s0 > lam*t0, i.e. mu > lam        (base iteration)
    Each margin is its gap over mu^(n-1)*t0 (i, ii) or t0 (iii).  R, C
    and that margin scale must be positive finite floats, and s0^(n-1)
    a float (ValueError otherwise); t0**2 past the float range reads as
    inf.
    """

    def __init__(self, t0, lam, mu, r, beta, n_exponent):
        n = n_exponent
        if not 0 < lam < 1 or not 0 < mu < 1:
            raise ValueError("need lambda, mu in (0, 1)")
        if not 0 < r < 1:
            raise ValueError("need r in (0, 1)")
        if beta < 0:
            raise ValueError("need beta >= 0")
        if n < 3:
            raise ValueError("need perturbation exponent n >= 3")
        if t0 <= 0:
            raise ValueError("need t0 > 0")
        try:
            t0_sq = t0**2
        except OverflowError:
            t0_sq = math.inf
        R = 2 * (1 - r) ** 2 / t0_sq if t0_sq else math.inf
        C = t0_sq / (2 * (1 - r) ** 2)
        scale = mu ** (n - 1) * t0
        for quantity, value in (("R = 2(1-r)^2/t0^2", R), ("C = t0^2/(2(1-r)^2)", C)):
            if not 0 < value < math.inf:
                raise ValueError("t0 = %r is out of range: %s is %r in floats"
                                 % (t0, quantity, value))
        if not 0 < scale < math.inf:
            raise ValueError("mu = %r, t0 = %r are out of range: the margin scale "
                             "mu^(n-1)*t0 is %r in floats" % (mu, t0, scale))
        self.t0, self.lam, self.mu, self.r, self.beta = t0, lam, mu, r, beta
        self.n_exponent = n
        self.s0 = s0 = mu * t0
        self.rho0 = prisma.rho(1, mu, lam)
        self.C, self.R, self.t_inf = C, R, t_inf(lam, mu, t0)
        try:
            x0 = E * beta * s0 ** (n - 1)
        except OverflowError:
            raise ValueError("t0 = %r, mu = %r, n = %r are out of range: s0^(n-1) = "
                             "(mu*t0)^(n-1) is past the float range" % (t0, mu, n)) from None
        self.state0 = prisma.PrismaState(t0, s0, x0)
        self.cfg = prisma.IterConfig(R=R, k=1, l=2, lam=lam)
        i, ii, iii = _step_gaps(self.state0, self.cfg, r)
        self.cond_i, self.cond_ii, self.cond_iii = i > 0, ii > 0, iii > 0
        self.margin_i, self.margin_ii, self.margin_iii = i / scale, ii / scale, iii / t0

    @property
    def passes(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    def to_dict(self) -> dict:
        return {
            "t0": self.t0, "lambda": self.lam, "mu": self.mu, "r": self.r,
            "beta": self.beta, "n": self.n_exponent, "s0": self.s0,
            "rho0": self.rho0, "C": self.C, "R": self.R, "t_inf": self.t_inf,
            "conditions": {
                "i": {"holds": self.cond_i, "margin": self.margin_i},
                "ii": {"holds": self.cond_ii, "margin": self.margin_ii},
                "iii": {"holds": self.cond_iii, "margin": self.margin_iii},
            },
            "passes": self.passes,
        }


def certify(t0, lam, mu, r, beta, n) -> Certificate:
    return Certificate(float(t0), float(lam), float(mu), float(r), float(beta), int(n))


def threshold_T0(lam, mu, r, beta, n) -> float:
    """Supremum of admissible t0, (min(rhs_i, rhs_ii)/(e*beta))^(1/(n-2))
    from the closed forms of conditions i and ii; ValueError when the
    float is not positive and finite, as the exact value is, or when
    mu^(n-1) rounds to 0.0 (no certificate has a margin scale then)."""
    lam, mu, r, beta = float(lam), float(mu), float(r), float(beta)
    if not 0 < lam < mu < 1:
        raise ValueError("need 0 < lambda < mu < 1")
    if not 0 < r < 1:
        raise ValueError("need r in (0, 1)")
    if beta <= 0:
        raise ValueError("need beta > 0")
    if n < 3:
        raise ValueError("need n >= 3")
    if not mu ** (n - 1):
        raise ValueError("T0 has no float value: mu^(n-1) rounds to 0.0 in floats")
    rhs_i = r * (1 - mu) / mu ** (n - 1)
    rhs_ii = 2 * (1 - r) ** 2 * prisma.rho(1, mu, lam) * lam**2 * (1 - mu) ** 2 / mu ** (n - 2)
    T0 = (min(rhs_i, rhs_ii) / (E * beta)) ** (1.0 / (n - 2))
    if not 0 < T0 < math.inf:
        raise ValueError("T0 rounds to %r in floats" % T0)
    return T0


def lie_iterate_certified(cert: Certificate, steps: int):
    """Norm-bound trajectory [(t_n, s_n, bound_n)] of the certified run.

    It starts from cert.state0, whose bound e*beta*s0^(n-1) is the
    Cauchy-Nagumo chain value, and follows the quadratic prisma map of
    cert.cfg: (k, l) = (1, 2) and R = 2(1-r)^2/t0^2 (the worked constant
    C = 2 t0^2 at r = 1/2).  Every state must pass the strict step test
    whose step 0 is conditions i-iii, so the run breaches at step 0
    exactly when the certificate fails; a breach names the failing step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    state, out = cert.state0, []
    for n in range(steps + 1):
        if n:
            state = prisma.step(state, cert.cfg)
        t, s, x = state.t, state.s, state.x
        tetrahedron, invariant, base = _step_gaps(state, cert.cfg, cert.r)
        if not tetrahedron > 0:
            raise CertificateBreachError(
                n, "step %d: bound %g leaves the tetrahedron r*(t-s) = %g"
                % (n, x, cert.r * (t - s))
            )
        if not (invariant > 0 and base > 0):
            raise CertificateBreachError(
                n, "step %d: bound %g leaves the quadratic invariant set" % (n, x)
            )
        out.append((t, s, x))
    return out
