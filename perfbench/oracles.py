"""Independent references for the benchmark's correctness checks.

Nothing here imports lienorm: every expected value is derived from a
closed form, a direct recurrence, or a constant written down by hand in
the acceptance criteria, so a defect in the library cannot hide behind
a reference computed by the same code.
"""

from __future__ import annotations

import math
from fractions import Fraction


def normalizer_coeff(m: int, n: int, beta) -> Fraction:
    """[z^m] of the inverse of z*sqrt(1 + 2 beta z^(n-2)).

    Lagrange inversion: psi_m = (1/m) [z^(m-1)] (1 + 2 beta z^(n-2))^(-m/2)
    = (1/m) C(-m/2, j) (2 beta)^j when m - 1 = j (n - 2), and 0 otherwise.
    This inverse is the normalizer of z^2/2 + beta z^n.
    """
    d = n - 2
    if (m - 1) % d:
        return Fraction(0)
    j = (m - 1) // d
    a = Fraction(-m, 2)
    binom = Fraction(1)
    for i in range(j):
        binom = binom * (a - i) / (i + 1)
    return binom * (2 * Fraction(beta)) ** j / m


def normalizer_final_orders(steps: int, trunc_order: int) -> range:
    """Orders 1..2^(steps+1) whose normalizer coefficient no later round
    can change: the next derivation has order 2^(steps+1) + 1 or more."""
    return range(1, min(2 ** (steps + 1), trunc_order) + 1)


def prisma_xs(n: int, t, s, x, R, k: int, l: int, lam) -> list:
    """x_0..x_n of x <- x^2 / (R s^k (t-s)^l), (t, s) <- (s, s - lam (t-s))."""
    xs = [x]
    for _ in range(n):
        x = x * x / (R * s**k * (t - s) ** l)
        t, s = s, s - lam * (t - s)
        xs.append(x)
    return xs


def threshold_T0(lam, mu, r, beta, n) -> float:
    """T0 = (min(rhs_i, rhs_ii) / (e beta))^(1/(n-2)), with both right-hand
    sides of the certificate conditions evaluated exactly."""
    lam, mu, r = Fraction(lam), Fraction(mu), Fraction(r)
    rho0 = 1 + lam - lam / mu
    rhs_i = r * (1 - mu) / mu ** (n - 1)
    rhs_ii = 2 * (1 - r) ** 2 * rho0 * lam**2 * (1 - mu) ** 2 / mu ** (n - 2)
    return (float(min(rhs_i, rhs_ii) / Fraction(beta)) / math.e) ** (1.0 / (n - 2))


def certified_chain(t0, lam, mu, r, beta, n, steps) -> list[tuple]:
    """[(t_i, s_i, bound_i)] of the certified bound chain in floats.

    bound_0 = e beta s0^(n-1); then x <- x^2 / (R s (t-s)^2) with
    R = 2 (1-r)^2 / t0^2, i.e. the prisma map with pole orders (1, 2).
    """
    t0, lam, mu, r, beta = (float(v) for v in (t0, lam, mu, r, beta))
    R = 2 * (1 - r) ** 2 / t0**2
    t, s = t0, mu * t0
    x = math.e * beta * s ** (n - 1)
    out = []
    for _ in range(steps + 1):
        out.append((t, s, x))
        x = x * x / (R * s * (t - s) ** 2)
        t, s = s, s - lam * (t - s)
    return out


def f_basic(lam: Fraction, mu: Fraction) -> Fraction:
    """(1 + lam - lam/mu) lam^2 (1-mu)^2 / (2 mu) * (mu-lam)/(1-lam), exact."""
    rho = 1 + lam - lam / mu
    return rho * lam**2 * (1 - mu) ** 2 / (2 * mu) * (mu - lam) / (1 - lam)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# Hand-written constants of acceptance criteria 4-7: (value, tolerance).
T0_MORSE = (0.00431108720123, 1e-11)          # lambda=1/4, mu=1/2, r=1/2, beta=1, n=3
T_INF_MORSE = (0.001437029067, 1e-11)
BASIC = {"lambda": (0.448612476, 1e-6), "mu": (0.6311094891, 1e-6),
         "t_inf": (0.001949102953, 1e-8)}
BASIC_CUBIC_TOL = 1e-9                       # |8 mu^3 - 4 mu^2 - 7 mu + 4|
EQUALIZED = {"e_t_inf": (0.01883436563, 1e-8), "t_inf": (0.006928775903, 1e-8),
             "lambda": (0.4145716992, 1e-6), "mu": (0.6054472202, 1e-6)}
Q_REFERENCE = {3: 27.775, 4: 5.439, 5: 3.153, 6: 2.397, 7: 2.033,
               8: 1.820, 9: 1.682, 10: 1.584, 20: 1.249, 50: 1.099}
Q_TOL = 0.005


def within(value: float, ref: tuple) -> bool:
    return abs(value - ref[0]) < ref[1]
