"""Exact truncated power-series algebra over the rationals.

A :class:`TruncSeries` stores a univariate formal power series modulo
``z**(trunc_order+1)`` as one integer numerator vector over one common
denominator, ``coeffs[k] == Fraction(num[k], den)``, in canonical form:
``den > 0`` and ``gcd(den, num[0], ..., num[N]) == 1``, which makes
``den`` the least common denominator of the coefficients (and 1 for the
zero series).  Every operation works on the integers and ends with one
content reduction, so no operation builds a ``Fraction`` per
coefficient.  The public ``coeffs`` tuple of ``Fraction``s is built on
each read.

Every operation returns the tightest truncation order it can certify
from the truncation orders and leading orders of its inputs, so a claim
"known modulo z^(N+1)" is always sound.  This makes coefficient
identities testable as exact equalities.

Every series product goes through one kernel, ``_raw_mul``: it takes two
integer vectors, skips their leading zeros, packs the rest of each into
one Python int with slots wide enough for any coefficient of the product
(Kronecker substitution), does one big-integer multiply and reads the
slots back as integers, shifted past the skipped zeros; the caller holds
the product of the two denominators.

A derivation ``v(z) d/dz`` is given by its coefficient series ``v``.
The module applies derivations to series, takes the terminating Lie
exponential e^{-v} of a derivation of order >= 2, and provides the
division map sending a series ``b`` with ``b(0)=0`` to the derivation
``(b/z) d/dz``.

Series coefficients must be exact: ``_frac`` turns ints and ``"p/q"``
strings into ``Fraction`` and rejects floats where coefficients enter a
series.  Other scalars follow the package's rule, :func:`lienorm.num`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import fraction_str

Scalar = int | Fraction


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
    if isinstance(x, float):
        raise TypeError("coefficients must be exact rationals, got float %r" % x)
    return Fraction(x)


class TruncSeries:
    """A power series known modulo ``z**(trunc_order+1)``.

    ``coeffs[k]`` is the coefficient of ``z**k``; the tuple always has
    exactly ``trunc_order + 1`` entries.  It is built from the integer
    pair ``(_num, _den)`` on each read (see the module docstring).
    """

    __slots__ = ("_num", "_den", "trunc_order")

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
        # Tuples and star-arguments here are built from lists: CPython sizes
        # one built from a generator at 10 and resizes it, and such tuples
        # pile up on its free lists.
        d = math.lcm(*[c.denominator for c in cs])
        _init(self, tuple([c.numerator * (d // c.denominator) for c in cs]), d,
              trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _new; the default restore of slot
        # state would go through the blocking __setattr__
        return _new, (self._num, self._den, self.trunc_order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple([Fraction(a, d) for a in self._num])

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
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        if k > trunc_order:
            raise InsufficientTruncationError(
                "monomial degree %d exceeds trunc_order %d" % (k, trunc_order)
            )
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = _frac(c)
        return cls(coeffs, trunc_order)

    # -- basic queries ------------------------------------------------

    @property
    def order(self):
        """Smallest k with a nonzero stored coefficient, or +inf."""
        return next((k for k, a in enumerate(self._num) if a), math.inf)

    def _eff_order(self) -> int:
        """Order capped at trunc_order + 1 (a zero series is O(z^(N+1)))."""
        o = self.order
        return self.trunc_order + 1 if o is math.inf else min(o, self.trunc_order + 1)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.trunc_order:
            raise IndexError("coefficient %d outside stored range 0..%d" % (k, self.trunc_order))
        return Fraction(self._num[k], self._den)

    def is_zero(self) -> bool:
        return not any(self._num)

    def truncate(self, trunc_order: int) -> "TruncSeries":
        if trunc_order > self.trunc_order:
            raise InsufficientTruncationError(
                "cannot extend truncation %d to %d" % (self.trunc_order, trunc_order)
            )
        return _reduced(self._num[: trunc_order + 1], self._den, trunc_order)

    # -- equality: coefficientwise on the common truncation -----------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        da, db = self._den, other._den
        return all(a * db == b * da for a, b in zip(self._num[: n + 1], other._num))

    __hash__ = None  # equality on common truncations is not transitive

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries([other], self.trunc_order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # on the common truncation, over lcm(da, db)
        n = min(self.trunc_order, other.trunc_order)
        da, db = self._den, other._den
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        return _reduced([x * sa + y * sb for x, y in zip(self._num[: n + 1], other._num)],
                        da * sa, n)

    __radd__ = __add__

    def __neg__(self):
        return _new(tuple([-a for a in self._num]), self._den, self.trunc_order)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, TruncSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "TruncSeries":
        c = _frac(c)
        p = c.numerator
        return _reduced([p * a for a in self._num], self._den * c.denominator,
                        self.trunc_order)

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

    # -- calculus ------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        a = self._num
        return _reduced([k * a[k] for k in range(1, len(a))] or [0], self._den,
                        max(self.trunc_order - 1, 0))

    def invert(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = z, up to the truncation.

        Lagrange inversion: with self = f1 z (1 + u) and P = (1 + u)^(-1),
        [z^m] g = [w^(m-1)] P^m / (m f1^m).  About 2N products of length N
        for truncation order N.
        """
        if self._num[0] or self.trunc_order < 1 or not self._num[1]:
            raise NotInvertibleError("needs f(0) = 0 and f'(0) != 0")
        n = self.trunc_order
        f1 = Fraction(self._num[1], self._den)
        p = self.weierstrass_div_monomial(1)[0].scale(1 / f1).binomial_pow(-1)
        power = p
        g = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            if m > 1:
                power = _mul_at(power, p, n - 1)
            g[m] = Fraction(power._num[m - 1], power._den * m) / f1**m
        return TruncSeries(g, n)

    def binomial_pow(self, e: Scalar) -> "TruncSeries":
        """(1 + u)^e for self = 1 + u via the binomial series."""
        if self._num[0] != self._den:
            raise ValueError("binomial power needs constant term 1, got %s"
                             % self[0])
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
        return out

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
        q = _reduced(self._num[d:], self._den, self.trunc_order - d)
        return q, self.truncate(d - 1)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trunc_order": self.trunc_order,
            "coeffs": [fraction_str(c) for c in self.coeffs],
        }

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


def _init(s: TruncSeries, num: tuple, den: int, n: int) -> None:
    object.__setattr__(s, "_num", num)
    object.__setattr__(s, "_den", den)
    object.__setattr__(s, "trunc_order", n)


def _new(num: tuple, den: int, n: int) -> TruncSeries:
    """The series num/den, which must already be canonical, with len(num) = n + 1."""
    s = object.__new__(TruncSeries)
    _init(s, num, den, n)
    return s


def _canon(num: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """num/den divided by its content gcd(den, num[0], ..., num[-1])."""
    g = math.gcd(den, *num)
    if g == 1:
        return num, den
    return [a // g for a in num], den // g


def _reduced(num: Sequence[int], den: int, n: int) -> TruncSeries:
    """The series num/den, len(num) = n + 1, in canonical form."""
    num, den = _canon(num, den)
    return _new(tuple(num), den, n)


def _raw_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of the product of the integer vectors a and b,
    by Kronecker substitution.

    Leading zeros are stripped first: with la and lb of them, the nonzero
    parts are multiplied to order n - la - lb and the product is shifted
    back by la + lb.  Every coefficient of that product is at most
    max|a|*max|b|*min(len) in absolute value.  In slots of w bits, a whole
    number of bytes with one bit to spare for the sign, the product of the
    packed integers sum a_i 2^(w i) and sum b_j 2^(w j) therefore holds its
    coefficients side by side.  Adding 2^(w-1) to every slot makes them all
    nonnegative, and the slots are read back from the bytes of that sum.
    """
    la = next((i for i, x in enumerate(a) if x), n + 1)
    lb = next((i for i, x in enumerate(b) if x), n + 1)
    m = n - la - lb  # working order of the nonzero parts
    if m < 0:
        return [0] * (n + 1)
    a, b = a[la : la + m + 1], b[lb : lb + m + 1]
    bound = max(map(abs, a)) * max(map(abs, b))
    nb = (bound * min(len(a), len(b))).bit_length() // 8 + 1  # bytes per slot
    half = 1 << (8 * nb - 1)
    size = nb * (m + 1)
    bias = int.from_bytes(half.to_bytes(nb, "little") * (m + 1), "little")
    c = (_pack(a, nb) * _pack(b, nb) + bias) & ((1 << (8 * size)) - 1)
    raw = c.to_bytes(size, "little")
    return [0] * (la + lb) + [int.from_bytes(raw[i : i + nb], "little") - half
                              for i in range(0, size, nb)]


def _pack(v: Sequence[int], nb: int) -> int:
    """sum v[i] * 2^(8 nb i), for |v[i]| < 2^(8 nb)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(nb, "little") for x in v)
    neg = b"".join((-x if x < 0 else 0).to_bytes(nb, "little") for x in v)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _mul_at(a: TruncSeries, b: TruncSeries, n: int) -> TruncSeries:
    """Product truncated at a fixed working order n (no propagation logic)."""
    return _reduced(_raw_mul(a._num, b._num, n), a._den * b._den, n)


def apply_derivation(v: TruncSeries, f: TruncSeries) -> TruncSeries:
    """v(f) = v(z) * f'(z) for the derivation v(z) d/dz."""
    return v * f.derivative()


def j_map(b: TruncSeries) -> TruncSeries:
    """The right inverse of v |-> z*v(z): b |-> the derivation
    ((b - b(0)) / z) d/dz, as its coefficient series."""
    return _reduced(b._num[1:] or (0,), b._den, max(b.trunc_order - 1, 0))


def lie_exp(v: TruncSeries, f: TruncSeries) -> TruncSeries:
    """e^{-v} f = sum_k (-1)^k v^k(f) / k!, exact and terminating; e^{v} f
    is lie_exp(-v, f).

    Each application of v raises the order by order(v) - 1, so the sum
    terminates once the terms leave the truncation window; this needs
    order(v) >= 2 (the zero derivation counts, its order is +inf).

    Each term is computed only to the order the sum keeps.  Before v is
    applied, the term is cut at N - order(v) + 1, N the truncation order
    of the sum: its coefficients above that reach only past z^N.  Every
    term the sum keeps then has the same coefficients as without the cut,
    at the truncation order min(r, N), r the order the product rule would
    certify without it; and the sum stops at the same term.
    """
    ov = v.order
    if ov is not math.inf and ov <= 1:
        raise NonTerminatingExponentialError(
            "lie_exp needs order(v) >= 2, got %s" % ov
        )
    total = f
    term = f
    k = 0
    fact = 1
    while True:
        k += 1
        fact *= k
        if ov is not math.inf:
            term = term.truncate(max(total.trunc_order - ov + 1, 0))
        term = apply_derivation(v, term)
        if term._eff_order() > total.trunc_order:
            break
        total = total + term.scale(Fraction((-1) ** k, fact))
    return total
