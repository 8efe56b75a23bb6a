"""Definition sets of partial morphisms over the subdiagonal.

A definition set is a region {(t, s) : 0 < s < f(t)} of the open
subdiagonal cut out by a monotone boundary function, or the closed
subdiagonal itself.  Convolution of two such sets (the set over which
composed partial morphisms exist) is composition of their boundaries,
which is carried out symbolically on a small expression grammar.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable

from .power_series import fraction_str, num


class DegenerateSetError(ValueError):
    """Construction would give an empty or collapsed definition set."""


class UnsupportedShapeError(TypeError):
    """Input is outside the representable boundary-function grammar."""


class BoundaryFn:
    """Monotone nondecreasing boundary expression on (0, S]."""

    _fields: tuple[str, ...] = ()

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        if not isinstance(other, BoundaryFn):
            return NotImplemented
        if type(self) is not type(other):
            return False
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    def __repr__(self):
        try:
            return "BoundaryFn(%s)" % json.dumps(self.to_dict())
        except UnsupportedShapeError:
            return "BoundaryFn(<callable>)"


class Linear(BoundaryFn):
    """t -> a*t + c with a > 0."""

    _fields = ("a", "c")

    def __init__(self, a, c=0):
        if a <= 0:
            raise ValueError("linear boundary needs slope a > 0")
        self.a = a
        self.c = c

    def __call__(self, t):
        return self.a * t + self.c

    def to_dict(self):
        return {"op": "linear", "a": fraction_str(self.a), "c": fraction_str(self.c)}


class Power(BoundaryFn):
    """t -> gamma * t**k with gamma > 0, k > 0."""

    _fields = ("gamma", "k")

    def __init__(self, gamma, k):
        if gamma <= 0 or k <= 0:
            raise ValueError("power boundary needs gamma > 0 and k > 0")
        self.gamma = gamma
        self.k = k

    def __call__(self, t):
        if t < 0:
            raise ValueError("boundary evaluated at t < 0")
        return self.gamma * float(t) ** float(self.k)

    def to_dict(self):
        return {"op": "power", "gamma": fraction_str(self.gamma),
                "k": fraction_str(self.k)}


class Compose(BoundaryFn):
    """outer(inner(t))."""

    _fields = ("outer", "inner")

    def __init__(self, outer: BoundaryFn, inner: BoundaryFn):
        self.outer = outer
        self.inner = inner

    def __call__(self, t):
        return self.outer(self.inner(t))

    def to_dict(self):
        return {"op": "compose", "outer": self.outer.to_dict(),
                "inner": self.inner.to_dict()}


class Min(BoundaryFn):
    _fields = ("left", "right")

    def __init__(self, left: BoundaryFn, right: BoundaryFn):
        self.left = left
        self.right = right

    def __call__(self, t):
        return min(self.left(t), self.right(t))

    def to_dict(self):
        return {"op": "min", "left": self.left.to_dict(),
                "right": self.right.to_dict()}


class CallableBoundary(BoundaryFn):
    """Escape hatch for boundaries outside the symbolic grammar.

    Monotonicity is the caller's responsibility; such boundaries do not
    serialize.
    """

    _fields = ("fn",)

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    def to_dict(self):
        raise UnsupportedShapeError("callable boundary has no JSON form")


def _parse_num(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


def boundary_from_dict(d: dict) -> BoundaryFn:
    op = d.get("op")
    if op == "linear":
        return Linear(_parse_num(d["a"]), _parse_num(d["c"]))
    if op == "power":
        return Power(_parse_num(d["gamma"]), _parse_num(d["k"]))
    if op == "compose":
        return Compose(boundary_from_dict(d["outer"]), boundary_from_dict(d["inner"]))
    if op == "min":
        return Min(boundary_from_dict(d["left"]), boundary_from_dict(d["right"]))
    raise UnsupportedShapeError("unknown boundary op %r" % op)


def _compose_boundaries(outer: BoundaryFn, inner: BoundaryFn) -> BoundaryFn:
    """Symbolic composition with peephole simplification."""
    if isinstance(outer, Linear) and isinstance(inner, Linear):
        return Linear(outer.a * inner.a, outer.a * inner.c + outer.c)
    if isinstance(outer, Power) and isinstance(inner, Power):
        return Power(outer.gamma * inner.gamma**outer.k, num(outer.k) * num(inner.k))
    if isinstance(outer, Linear) and isinstance(inner, Power) and outer.c == 0:
        return Power(outer.a * inner.gamma, inner.k)
    if isinstance(outer, Power) and isinstance(inner, Linear) and inner.c == 0:
        return Power(outer.gamma * inner.a**outer.k, outer.k)
    return Compose(outer, inner)


class DefSet:
    """{(t, s) : 0 < s < boundary(t)}, or the closed subdiagonal.

    The region may poke above the diagonal (the set of the squaring map
    has boundary sqrt(t) > t for t < 1); nothing clamps it to {s < t}.
    """

    def __init__(self, boundary: BoundaryFn | None = None,
                 closed_diagonal: bool = False, S: float = 1.0):
        if closed_diagonal:
            if boundary is not None:
                raise ValueError("closed diagonal carries no boundary function")
        elif not isinstance(boundary, BoundaryFn):
            raise UnsupportedShapeError(
                "definition sets need a BoundaryFn, got %r" % (boundary,)
            )
        self.boundary = boundary
        self.closed_diagonal = closed_diagonal
        self.S = S

    # -- canonical sets -------------------------------------------------

    @classmethod
    def open_diagonal(cls, S: float = 1.0) -> "DefSet":
        """Delta = {s < t}."""
        return cls(Linear(1, 0), S=S)

    @classmethod
    def closed_subdiagonal(cls, S: float = 1.0) -> "DefSet":
        """Delta-bar = {s <= t}."""
        return cls(None, closed_diagonal=True, S=S)

    @classmethod
    def cone(cls, alpha, S: float = 1.0) -> "DefSet":
        """A_alpha = {alpha*s < t}, boundary t/alpha."""
        if alpha <= 0:
            raise ValueError("cone needs alpha > 0")
        return cls(Linear(1 / num(alpha), 0), S=S)

    @classmethod
    def translation(cls, lam, S: float = 1.0) -> "DefSet":
        """{s < t - |lambda|} for composition with z -> z + lambda."""
        return cls(Linear(1, -abs(lam)), S=S)

    @classmethod
    def square_map(cls, S: float = 1.0) -> "DefSet":
        """{s < sqrt(t)} for composition with z -> z**2."""
        return cls(Power(1, Fraction(1, 2)), S=S)

    def contains(self, t, s) -> bool:
        if not (0 < s <= self.S and 0 < t <= self.S):
            raise ValueError("point (%s, %s) outside (0, %s]^2" % (t, s, self.S))
        if self.closed_diagonal:
            return s <= t
        return s < self.boundary(t)

    def is_idempotent_on_grid(self, grid) -> bool:
        conv = convolve(self, self)
        return all(self.contains(t, s) == conv.contains(t, s) for t, s in grid)

    def to_dict(self) -> dict:
        if self.closed_diagonal:
            return {"set": "closed_subdiagonal", "S": self.S}
        return {"set": "boundary", "S": self.S, "boundary": self.boundary.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "DefSet":
        if d.get("set") == "closed_subdiagonal":
            return cls(None, closed_diagonal=True, S=d.get("S", 1.0))
        return cls(boundary_from_dict(d["boundary"]), S=d.get("S", 1.0))

    def __repr__(self):
        if self.closed_diagonal:
            return "DefSet(closed subdiagonal)"
        return "DefSet(s < %r)" % (self.boundary,)


def contains(A: DefSet, t, s) -> bool:
    _require_defset(A)
    return A.contains(t, s)


def _require_defset(A):
    if not isinstance(A, DefSet):
        raise UnsupportedShapeError(
            "expected a DefSet in the boundary-function grammar, got %r" % (A,)
        )


def convolve(A: DefSet, B: DefSet) -> DefSet:
    """A * B, the definition set of composed partial morphisms.

    For boundary sets {s < f(t)} and {s < g(t)} the result is
    {s < g(f(t))}; the closed subdiagonal is a unit on boundary sets
    (which are downsets).
    """
    _require_defset(A)
    _require_defset(B)
    if A.closed_diagonal and B.closed_diagonal:
        return DefSet.closed_subdiagonal(min(A.S, B.S))
    if A.closed_diagonal:
        return B
    if B.closed_diagonal:
        return A
    return DefSet(_compose_boundaries(B.boundary, A.boundary), S=min(A.S, B.S))


def is_idempotent_on_grid(A: DefSet, grid) -> bool:
    _require_defset(A)
    return A.is_idempotent_on_grid(grid)


def downset_hull(A: DefSet) -> DefSet:
    """Delta-bar * A * Delta-bar; the identity on representable sets."""
    _require_defset(A)
    closed = DefSet.closed_subdiagonal(A.S)
    return convolve(closed, convolve(A, closed))


def defset_of_exponential(norm_fn, S: float = 1.0) -> DefSet:
    """Definition set {s < t - ||u||(t)} of an exponential.

    norm_fn may be a constant (the norm of a translation-type operator),
    a pair (c0, c1) for the affine norm c0 + c1*t, or a callable; the
    affine forms stay inside the symbolic grammar.
    """
    if isinstance(norm_fn, (int, float, Fraction)):
        if norm_fn < 0:
            raise ValueError("operator norm must be >= 0")
        if norm_fn == 0:
            return DefSet.open_diagonal(S)
        return DefSet(Linear(1, -norm_fn), S=S)
    if isinstance(norm_fn, tuple):
        c0, c1 = norm_fn
        if c0 < 0 or c1 < 0:
            raise ValueError("affine norm coefficients must be >= 0")
        if c1 >= 1:
            raise DegenerateSetError("norm slope %s >= 1 leaves no domain" % (c1,))
        if c1 == 0:
            return defset_of_exponential(c0, S)
        return DefSet(Linear(1 - num(c1), -c0), S=S)
    if callable(norm_fn):
        return DefSet(CallableBoundary(lambda t: t - norm_fn(t)), S=S)
    raise UnsupportedShapeError("cannot interpret norm description %r" % (norm_fn,))


def defset_of_product(alphas, S: float = 1.0) -> DefSet:
    """{s < prod(1 - alpha_i) t}, where an infinite composition of
    exponentials with ||u_i|| <= alpha_i t converges."""
    prod = Fraction(1)
    for a in alphas:
        if not 0 <= a < 1:
            raise DegenerateSetError("factors need alpha in [0, 1), got %s" % (a,))
        prod *= 1 - num(a)
    return DefSet(Linear(prod, 0), S=S)


def tangent_slope_at_origin(A: DefSet, h: float = 1e-5) -> float:
    """Boundary slope at 0 by Richardson-extrapolated finite differences."""
    _require_defset(A)
    if A.closed_diagonal:
        return 1.0
    s1 = A.boundary(h) / h
    s2 = A.boundary(h / 2) / (h / 2)
    return 2 * s2 - s1
