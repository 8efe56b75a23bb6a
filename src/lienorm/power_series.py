"""Exact truncated power-series algebra over the rationals.

A :class:`TruncSeries` stores the coefficients of a univariate formal
power series modulo ``z**(trunc_order+1)``, all of them
:class:`fractions.Fraction` instances.  Every operation returns the
tightest truncation order it can certify from the truncation orders and
leading orders of its inputs, so a claim "known modulo z^(N+1)" is always
sound.  This makes coefficient identities testable as exact equalities.

Every series product goes through one kernel, ``_raw_mul``.  It writes
each operand as an integer vector over the least common denominator of
its coefficients, packs each vector into one Python int with slots wide
enough for any coefficient of the product (Kronecker substitution), does
one big-integer multiply and reads the slots back as ``Fraction``s over
the product of the two denominators.  Composition is a Taylor shift
built on the same kernel (see :meth:`TruncSeries.compose`).

The module also provides derivations ``v(z) d/dz`` acting on series, the
terminating Lie exponential for derivations of order >= 2, and the
division map sending a series ``b`` with ``b(0)=0`` to the derivation
``(b/z) d/dz``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class CompositionDomainError(ValueError):
    """Inner series of a composition has a nonzero constant term."""


class NotInvertibleError(ValueError):
    """Series has no compositional inverse (needs f(0)=0, f'(0)!=0)."""


class NonTerminatingExponentialError(ValueError):
    """Lie exponential of a derivation of order <= 1 does not terminate."""


class InsufficientTruncationError(ValueError):
    """Requested operation needs more stored coefficients."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, got float %r" % x)
    return Fraction(x)


def fraction_str(x):
    """The "p/q" wire form of a Fraction; any other value passes through."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    return x


class TruncSeries:
    """A power series known modulo ``z**(trunc_order+1)``.

    ``coeffs[k]`` is the coefficient of ``z**k``; the list always has
    exactly ``trunc_order + 1`` entries.
    """

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs: Iterable[Scalar], trunc_order: int | None = None):
        cs = [_frac(c) for c in coeffs]
        if trunc_order is None:
            if not cs:
                raise ValueError("empty coefficient list needs an explicit trunc_order")
            trunc_order = len(cs) - 1
        if trunc_order < 0:
            raise ValueError("trunc_order must be >= 0")
        if len(cs) < trunc_order + 1:
            cs = cs + [Fraction(0)] * (trunc_order + 1 - len(cs))
        else:
            cs = cs[: trunc_order + 1]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc_order: int) -> "TruncSeries":
        return cls([], trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "TruncSeries":
        return cls([1], trunc_order)

    @classmethod
    def x(cls, trunc_order: int) -> "TruncSeries":
        """The series z."""
        return cls([0, 1], trunc_order)

    @classmethod
    def monomial(cls, k: int, trunc_order: int, c: Scalar = 1) -> "TruncSeries":
        if k > trunc_order:
            raise InsufficientTruncationError(
                "monomial degree %d exceeds trunc_order %d" % (k, trunc_order)
            )
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = _frac(c)
        return cls(coeffs, trunc_order)

    @classmethod
    def geometric(cls, trunc_order: int) -> "TruncSeries":
        """1 + z + z^2 + ... (Hadamard unit)."""
        return cls([1] * (trunc_order + 1), trunc_order)

    # -- basic queries ------------------------------------------------

    @property
    def order(self):
        """Smallest k with a nonzero stored coefficient, or +inf."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return math.inf

    def _eff_order(self) -> int:
        """Order capped at trunc_order + 1 (a zero series is O(z^(N+1)))."""
        o = self.order
        return self.trunc_order + 1 if o is math.inf else min(o, self.trunc_order + 1)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.trunc_order:
            raise IndexError("coefficient %d outside stored range 0..%d" % (k, self.trunc_order))
        return self.coeffs[k]

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, trunc_order: int) -> "TruncSeries":
        if trunc_order > self.trunc_order:
            raise InsufficientTruncationError(
                "cannot extend truncation %d to %d" % (self.trunc_order, trunc_order)
            )
        return TruncSeries(self.coeffs[: trunc_order + 1], trunc_order)

    # -- equality: coefficientwise on the common truncation -----------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # equality on common truncations is not transitive

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries([other], self.trunc_order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        return TruncSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.trunc_order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries([other], self.trunc_order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "TruncSeries":
        c = _frac(c)
        return TruncSeries([c * a for a in self.coeffs], self.trunc_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # error term: O(z^(Na+1)) * g + f * O(z^(Nb+1))
        n = min(
            self.trunc_order + 1 + other._eff_order(),
            other.trunc_order + 1 + self._eff_order(),
        ) - 1
        return _mul_at(self, other, n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = TruncSeries.one(self.trunc_order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        n = max(self.trunc_order - 1, 0)
        return TruncSeries(
            [Fraction(k) * self.coeffs[k] for k in range(1, self.trunc_order + 1)], n
        )

    def nabla(self) -> "TruncSeries":
        """z * d/dz, coefficientwise k*a_k; keeps the truncation order."""
        return TruncSeries(
            [Fraction(k) * c for k, c in enumerate(self.coeffs)], self.trunc_order
        )

    def hadamard(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.trunc_order, other.trunc_order)
        return TruncSeries(
            [self.coeffs[k] * other.coeffs[k] for k in range(n + 1)], n
        )

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner), requiring inner(0) = 0.

        A Taylor shift (Brent & Kung 1978).  With a = inner'(0) and
        h = inner - a*z, which has order >= 2,

            self(inner) = sum_k T_k(z) h^k,   T_k(z) = self^(k)(a*z) / k!;

        for a near-identity inner (a = 1) this is
        self(z + h) = sum_k self^(k)(z) h^k / k! with h = inner - z.  As
        h^k = O(z^(k ord h)), only the terms with k*ord(h) <= n count,
        about n/ord(h) of them, n the working order computed below.  The
        sum is evaluated Horner-fashion in h, each partial sum only to the
        order that its power of h leaves inside the window.
        """
        if inner.constant_term() != 0:
            raise CompositionDomainError(
                "inner series has nonzero constant term %s" % inner.constant_term()
            )
        og = inner._eff_order()
        od = self.derivative()._eff_order()
        n = min(
            og * (self.trunc_order + 1),
            od * og + inner.trunc_order + 1,
        ) - 1
        cs = self.coeffs + (Fraction(0),) * (n - self.trunc_order)
        a = inner.coeffs[1] if min(n, inner.trunc_order) >= 1 else Fraction(0)
        h = [Fraction(0)] * 2 + list(inner.coeffs[2 : n + 1])
        oh = next((k for k, c in enumerate(h) if c), n + 1)
        apow = [a**j for j in range(n + 1)]
        acc = []
        for k in range(n // oh, -1, -1):
            m = n - k * oh  # T_k + h*acc is needed modulo z^(m+1)
            t = [cs[j + k] * math.comb(j + k, k) * apow[j] for j in range(m + 1)]
            if acc:
                hacc = _raw_mul(h[oh:], acc, m - oh)
                t[oh:] = [x + y for x, y in zip(t[oh:], hacc)]
            acc = t
        return TruncSeries(acc, n)

    def invert(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = z, up to the truncation.

        Coefficient recursion from compose(f, g) = z; for truncation order
        N it runs about N^2/2 products of length at most N + 1, fine at
        desk scale.
        """
        if self.constant_term() != 0 or self.trunc_order < 1 or self.coeffs[1] == 0:
            raise NotInvertibleError("needs f(0) = 0 and f'(0) != 0")
        n = self.trunc_order
        g = [Fraction(0)] * (n + 1)
        g[1] = 1 / self.coeffs[1]
        for m in range(2, n + 1):
            # [z^m] f(g_partial) with g[m] still zero; then solve via f'(0)
            acc = [Fraction(0)] * (m + 1)
            power = g[: m + 1]
            for k in range(1, m + 1):
                if k > 1:
                    power = _raw_mul(power, g[: m + 1], m)
                fk = self.coeffs[k] if k <= n else Fraction(0)
                if fk:
                    for i in range(m + 1):
                        acc[i] += fk * power[i]
            g[m] = -acc[m] / self.coeffs[1]
        return TruncSeries(g, n)

    def binomial_pow(self, e: Scalar) -> "TruncSeries":
        """(1 + u)^e for self = 1 + u via the binomial series."""
        if self.constant_term() != 1:
            raise ValueError("binomial power needs constant term 1, got %s" % self.coeffs[0])
        e = _frac(e)
        n = self.trunc_order
        u = self - TruncSeries.one(n)
        out = TruncSeries.one(n)
        term = TruncSeries.one(n)
        coef = Fraction(1)
        for k in range(1, n + 1):
            coef = coef * (e - (k - 1)) / k
            term = _mul_at(term, u, n)
            if term.is_zero():
                break
            out = out + term.scale(coef)
        return TruncSeries(out.coeffs, n)

    def weierstrass_div_monomial(self, d: int) -> tuple["TruncSeries", "TruncSeries"]:
        """Split f = z^d * q + p with deg p < d; returns (q, p)."""
        if d < 0:
            raise ValueError("divisor degree must be >= 0")
        if d > self.trunc_order:
            raise InsufficientTruncationError(
                "divisor degree %d exceeds trunc_order %d" % (d, self.trunc_order)
            )
        if d == 0:
            return self, TruncSeries.zero(0)
        q = TruncSeries(self.coeffs[d:], self.trunc_order - d)
        p = TruncSeries(self.coeffs[:d], d - 1)
        return q, p

    # -- evaluation and serialization ---------------------------------

    def eval_at(self, t):
        """Horner evaluation of the stored polynomial part at t."""
        acc = t * 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def to_dict(self) -> dict:
        return {
            "trunc_order": self.trunc_order,
            "coeffs": [fraction_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TruncSeries":
        return cls([Fraction(s) for s in d["coeffs"]], d["trunc_order"])

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%s*z" % c)
            else:
                terms.append("%s*z^%d" % (c, k))
        body = " + ".join(terms) if terms else "0"
        return "TruncSeries(%s + O(z^%d))" % (body, self.trunc_order + 1)


def _int_vector(a: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of a."""
    d = math.lcm(*(x.denominator for x in a))
    return [x.numerator * (d // x.denominator) for x in a], d


def _raw_mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    """Coefficients 0..n of a*b by Kronecker substitution.

    a = A/da and b = B/db with integer vectors A, B.  Every coefficient of
    A*B is at most max|A|*max|B|*min(len) in absolute value.  In slots of
    w bits, a whole number of bytes with one bit to spare for the sign,
    the product of the packed integers sum A_i 2^(w i) and
    sum B_j 2^(w j) therefore holds the coefficients of A*B side by side.
    Adding 2^(w-1) to every slot makes them all nonnegative, and the slots
    are read back from the bytes of that sum.
    """
    a, b = a[: n + 1], b[: n + 1]
    A, da = _int_vector(a)
    B, db = _int_vector(b)
    bound = max(map(abs, A), default=0) * max(map(abs, B), default=0)
    if not bound:
        return [Fraction(0)] * (n + 1)
    nb = (bound * min(len(A), len(B))).bit_length() // 8 + 1  # bytes per slot
    half = 1 << (8 * nb - 1)
    size = nb * (n + 1)
    bias = int.from_bytes(half.to_bytes(nb, "little") * (n + 1), "little")
    c = (_pack(A, nb) * _pack(B, nb) + bias) & ((1 << (8 * size)) - 1)
    raw = c.to_bytes(size, "little")
    d = da * db
    return [
        Fraction(int.from_bytes(raw[i : i + nb], "little") - half, d)
        for i in range(0, size, nb)
    ]


def _pack(v: list[int], nb: int) -> int:
    """sum v[i] * 2^(8 nb i), for |v[i]| < 2^(8 nb)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(nb, "little") for x in v)
    neg = b"".join((-x if x < 0 else 0).to_bytes(nb, "little") for x in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul_at(a: TruncSeries, b: TruncSeries, n: int) -> TruncSeries:
    """Product truncated at a fixed working order n (no propagation logic)."""
    return TruncSeries(_raw_mul(a.coeffs, b.coeffs, n), n)


class Derivation:
    """A derivation v(z) d/dz given by its coefficient series v."""

    __slots__ = ("v",)

    def __init__(self, v: TruncSeries):
        object.__setattr__(self, "v", v)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    @classmethod
    def zero(cls, trunc_order: int) -> "Derivation":
        return cls(TruncSeries.zero(trunc_order))

    @property
    def order(self):
        return self.v.order

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.v == other.v

    __hash__ = None

    def __repr__(self):
        return "Derivation(%r d/dz)" % (self.v,)


def apply_derivation(v: Derivation, f: TruncSeries) -> TruncSeries:
    """v(f) = v(z) * f'(z)."""
    return v.v * f.derivative()


def j_map(b: TruncSeries) -> Derivation:
    """The right inverse of v |-> z*v(z): b |-> ((b - b(0)) / z) d/dz."""
    n = max(b.trunc_order - 1, 0)
    return Derivation(TruncSeries(b.coeffs[1:], n))


def lie_exp(v: Derivation, f: TruncSeries, sign: int = -1) -> TruncSeries:
    """sum_k sign^k v^k(f) / k!, exact and terminating.

    Each application of v raises the order by order(v) - 1, so the sum
    terminates once the terms leave the truncation window; this needs
    order(v) >= 2 (the zero derivation counts, its order is +inf).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if v.order is not math.inf and v.order <= 1:
        raise NonTerminatingExponentialError(
            "lie_exp needs order(v) >= 2, got %s" % v.order
        )
    total = f
    term = f
    k = 0
    fact = 1
    while True:
        k += 1
        fact *= k
        term = apply_derivation(v, term)
        if term._eff_order() > total.trunc_order:
            break
        total = total + term.scale(Fraction(sign**k, fact))
    return total
