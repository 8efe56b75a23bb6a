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
from dataclasses import dataclass, field
from fractions import Fraction

from . import prisma
from .power_series import TruncSeries, j_map, lie_exp

E = math.e


class CertificateBreachError(RuntimeError):
    """Norm trajectory left the certified invariant set."""

    def __init__(self, step, message):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class LieRound:
    """One round of the formal iteration."""

    b: TruncSeries
    v: TruncSeries  # the derivation v(z) d/dz
    f: TruncSeries
    substitution: TruncSeries  # image of z under e^{-v}

    def to_dict(self) -> dict:
        return {
            "b": self.b.to_dict(),
            "v": self.v.to_dict(),
            "f": self.f.to_dict(),
            "substitution": self.substitution.to_dict(),
        }


@dataclass(frozen=True)
class LieTrace:
    rounds: tuple[LieRound, ...]

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

    Round n of the result holds (b_n, v_n, f_n, e^{-v_n} z).  Requires
    the normal form a = z^2/2 (the division map j inverts the action
    v -> v(a) = z*v only there) and order(b0) >= 3.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if a != quadratic_normal_form(a.trunc_order):
        raise ValueError("the formal iteration is implemented for a = z^2/2")
    o = b0.order
    if o is not math.inf and o < 3:
        raise ValueError("perturbation must vanish to order >= 3, got order %s" % o)
    zvar = TruncSeries.x(max(a.trunc_order, b0.trunc_order))
    f = a + b0
    b = b0
    rounds = []
    for _ in range(steps + 1):
        v = j_map(b)
        sigma = lie_exp(v, zvar)
        rounds.append(LieRound(b, v, f, sigma))
        f = lie_exp(v, f)
        b = f - a
    return LieTrace(tuple(rounds))


def normalizer_series(trace: LieTrace) -> TruncSeries:
    """Image of z under ... e^{-v_1} e^{-v_0}: the coordinate change that
    carries f_0 to the normal form.

    Composed with each new substitution on the inside, so the coefficient
    of z^k is final once 2^n + 1 > k.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    psi = None
    for r in trace.rounds:
        psi = r.substitution if psi is None else psi.compose(r.substitution)
    return psi


def _condition_rhs(lam, mu, r, n):
    """(rho0, rhs_i, rhs_ii): the multiplier rho(t0, s0) and the right-hand
    sides of certificate conditions i and ii."""
    rho0 = 1 + lam - lam / mu
    rhs_i = r * (1 - mu) / mu ** (n - 1)
    rhs_ii = 2 * (1 - r) ** 2 * rho0 * lam**2 * (1 - mu) ** 2 / mu ** (n - 2)
    return rho0, rhs_i, rhs_ii


def t_inf(lam, mu, t0):
    """Radius (mu - lam)/(1 - lam) * t0 that the certified run keeps."""
    return (mu - lam) / (1 - lam) * t0


@dataclass(frozen=True)
class Certificate:
    """Convergence certificate for the perturbation beta * z^n of z^2/2.

    Conditions (all in the scaled variables s0 = mu*t0):
      i)   e*beta*t0^(n-2) <= r(1-mu)/mu^(n-1)      (starting tetrahedron)
      ii)  e*beta*t0^(n-2) <  2(1-r)^2 rho0 lam^2 (1-mu)^2 / mu^(n-2)
      iii) mu > lam                                  (base iteration)
    """

    t0: float
    lam: float
    mu: float
    r: float
    beta: float
    n_exponent: int
    s0: float = field(init=False)
    rho0: float = field(init=False)
    C: float = field(init=False)
    R: float = field(init=False)
    t_inf: float = field(init=False)
    cond_i: bool = field(init=False)
    cond_ii: bool = field(init=False)
    cond_iii: bool = field(init=False)
    margin_i: float = field(init=False)
    margin_ii: float = field(init=False)
    margin_iii: float = field(init=False)

    def __post_init__(self):
        t0, lam, mu, r, beta, n = (
            self.t0, self.lam, self.mu, self.r, self.beta, self.n_exponent,
        )
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
        if not t0**2:
            # R below divides by t0^2
            raise ValueError("t0 = %r is too small: t0**2 underflows to 0.0 in floats"
                             % t0)
        object.__setattr__(self, "s0", mu * t0)
        rho0, rhs_i, rhs_ii = _condition_rhs(lam, mu, r, n)
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "C", t0**2 / (2 * (1 - r) ** 2))
        object.__setattr__(self, "R", 2 * (1 - r) ** 2 / t0**2)
        object.__setattr__(self, "t_inf", t_inf(lam, mu, t0))
        lhs = E * beta * t0 ** (n - 2)
        object.__setattr__(self, "cond_i", lhs <= rhs_i)
        object.__setattr__(self, "cond_ii", lhs < rhs_ii)
        object.__setattr__(self, "cond_iii", mu > lam)
        object.__setattr__(self, "margin_i", rhs_i - lhs)
        object.__setattr__(self, "margin_ii", rhs_ii - lhs)
        object.__setattr__(self, "margin_iii", mu - lam)

    @property
    def passes(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii

    def initial_bound(self) -> float:
        """Calibrated norm bound e*beta*s0^(n-1) of the first derivation."""
        return E * self.beta * self.s0 ** (self.n_exponent - 1)

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
    """Supremum of admissible t0: (min(rhs_i, rhs_ii)/(e*beta))^(1/(n-2))."""
    lam, mu, r, beta = float(lam), float(mu), float(r), float(beta)
    if not 0 < lam < mu < 1:
        raise ValueError("need 0 < lambda < mu < 1")
    if not 0 < r < 1:
        raise ValueError("need r in (0, 1)")
    if beta <= 0:
        raise ValueError("need beta > 0")
    if n < 3:
        raise ValueError("need n >= 3")
    _, rhs_i, rhs_ii = _condition_rhs(lam, mu, r, n)
    return (min(rhs_i, rhs_ii) / (E * beta)) ** (1.0 / (n - 2))


def lie_iterate_certified(cert: Certificate, steps: int):
    """Norm-bound trajectory [(t_n, s_n, bound_n)] of the certified run.

    bound_0 is the Cauchy-Nagumo chain value e*beta*s0^(n-1); later
    bounds follow the quadratic prisma map with pole orders (k, l) =
    (1, 2) and R = 2(1-r)^2/t0^2 (the worked constant C = 2 t0^2 at
    r = 1/2).  Containment in both invariant sets is asserted at every
    step and a breach names the failing step.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not cert.cond_iii:
        raise CertificateBreachError(0, "mu <= lambda: base iteration undefined")
    cfg = prisma.IterConfig(R=cert.R, k=1, l=2, lam=cert.lam)
    state = prisma.PrismaState(cert.t0, cert.s0, cert.initial_bound())
    out = []
    for n in range(steps + 1):
        t, s, x = state.t, state.s, state.x
        if not x < cert.r * (t - s):
            raise CertificateBreachError(
                n, "step %d: bound %g leaves the tetrahedron r*(t-s) = %g"
                % (n, x, cert.r * (t - s))
            )
        if not prisma.in_invariant_set(state, cfg):
            raise CertificateBreachError(
                n, "step %d: bound %g leaves the quadratic invariant set" % (n, x)
            )
        out.append((t, s, x))
        state = prisma.step(state, cfg)
    return out
