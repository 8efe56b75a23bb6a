"""Definition sets of partial morphisms over the subdiagonal.

A definition set is a region {(t, s) in (0, 1]^2 : s < f(t)} cut out
of the subdiagonal by a monotone boundary function, or the closed
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
    """Monotone nondecreasing boundary expression on (0, 1]."""

    op: str | None = None  # the JSON name; None: the node has no JSON form
    _fields: tuple[str, ...] = ()

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        if self.op is None:
            raise UnsupportedShapeError("%s has no JSON form" % type(self).__name__)
        d = {"op": self.op}
        for name in self._fields:
            v = getattr(self, name)
            d[name] = v.to_dict() if isinstance(v, BoundaryFn) else fraction_str(v)
        return d

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


def _require_nodes(op, *operands):
    if not all(isinstance(node, BoundaryFn) for node in operands):
        raise UnsupportedShapeError("%s needs boundary nodes, got %r" % (op, operands))


class Linear(BoundaryFn):
    """t -> a*t + c with a > 0."""

    op = "linear"
    _fields = ("a", "c")

    def __init__(self, a, c=0):
        if a <= 0:
            raise ValueError("linear boundary needs slope a > 0")
        self.a = a
        self.c = c

    def __call__(self, t):
        return self.a * t + self.c


class Power(BoundaryFn):
    """t -> gamma * t**k with gamma > 0, k > 0."""

    op = "power"
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


class Compose(BoundaryFn):
    """outer(inner(t))."""

    op = "compose"
    _fields = ("outer", "inner")

    def __init__(self, outer: BoundaryFn, inner: BoundaryFn):
        _require_nodes(self.op, outer, inner)
        self.outer = outer
        self.inner = inner

    def __call__(self, t):
        return self.outer(self.inner(t))


class Min(BoundaryFn):
    op = "min"
    _fields = ("left", "right")

    def __init__(self, left: BoundaryFn, right: BoundaryFn):
        _require_nodes(self.op, left, right)
        self.left = left
        self.right = right

    def __call__(self, t):
        return min(self.left(t), self.right(t))


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


_OPS = {cls.op: cls for cls in (Linear, Power, Compose, Min)}


def boundary_from_dict(d: dict) -> BoundaryFn:
    """The node that to_dict wrote: each field is an object (a nested
    node), a string (a "p/q" Fraction) or a finite number that is no
    bool."""
    op = d.get("op") if isinstance(d, dict) else None
    if not isinstance(op, str) or op not in _OPS:
        raise UnsupportedShapeError("not a boundary node: %r" % (d,))
    cls = _OPS[op]
    try:
        return cls(*[_field(op, name, d[name]) for name in cls._fields])
    except KeyError as exc:
        raise UnsupportedShapeError("%s boundary needs field %s" % (op, exc)) from None
    except ZeroDivisionError as exc:
        raise ValueError("%s boundary has a zero denominator: %s" % (op, exc)) from None


def _field(op, name, v):
    if isinstance(v, dict):
        return boundary_from_dict(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise UnsupportedShapeError("%s boundary field %s is no number: %r" % (op, name, v))
    return v


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
    """{(t, s) in (0, 1]^2 : s < boundary(t)}, or the closed subdiagonal.

    The region may poke above the diagonal (the set of the squaring map
    has boundary sqrt(t) > t for t < 1); nothing clamps it to {s < t}.
    """

    S = 1.0  # every set lives in (0, S]^2

    def __init__(self, boundary: BoundaryFn | None):
        """A boundary of None gives the closed subdiagonal."""
        if boundary is not None and not isinstance(boundary, BoundaryFn):
            raise UnsupportedShapeError(
                "definition sets need a BoundaryFn, got %r" % (boundary,)
            )
        self.boundary = boundary

    # -- canonical sets -------------------------------------------------

    @classmethod
    def open_diagonal(cls) -> "DefSet":
        """Delta = {s < t}."""
        return cls(Linear(1, 0))

    @classmethod
    def closed_subdiagonal(cls) -> "DefSet":
        """Delta-bar = {s <= t}."""
        return cls(None)

    @classmethod
    def cone(cls, alpha) -> "DefSet":
        """A_alpha = {alpha*s < t}, boundary t/alpha."""
        if alpha <= 0:
            raise ValueError("cone needs alpha > 0")
        return cls(Linear(1 / num(alpha), 0))

    @classmethod
    def translation(cls, lam) -> "DefSet":
        """{s < t - |lambda|} for composition with z -> z + lambda."""
        return cls(Linear(1, -abs(lam)))

    @classmethod
    def square_map(cls) -> "DefSet":
        """{s < sqrt(t)} for composition with z -> z**2."""
        return cls(Power(1, Fraction(1, 2)))

    def contains(self, t, s) -> bool:
        if not (0 < s <= self.S and 0 < t <= self.S):
            raise ValueError("point (%s, %s) outside (0, %s]^2" % (t, s, self.S))
        if self.boundary is None:
            return s <= t
        return s < self.boundary(t)

    def is_idempotent_on_grid(self, grid) -> bool:
        conv = convolve(self, self)
        return all(self.contains(t, s) == conv.contains(t, s) for t, s in grid)

    def to_dict(self) -> dict:
        if self.boundary is None:
            return {"set": "closed_subdiagonal", "S": self.S}
        return {"set": "boundary", "S": self.S, "boundary": self.boundary.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "DefSet":
        kind = d.get("set") if isinstance(d, dict) else None
        if not (kind == "closed_subdiagonal" or kind == "boundary" and "boundary" in d):
            raise UnsupportedShapeError("not a definition set: %r" % (d,))
        if d.get("S", cls.S) != cls.S:
            raise ValueError("definition sets live in (0, 1]^2, got S=%r" % (d["S"],))
        if kind == "closed_subdiagonal":
            return cls(None)
        return cls(boundary_from_dict(d["boundary"]))

    def __repr__(self):
        if self.boundary is None:
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
    if A.boundary is None:
        return B
    if B.boundary is None:
        return A
    return DefSet(_compose_boundaries(B.boundary, A.boundary))


def is_idempotent_on_grid(A: DefSet, grid) -> bool:
    _require_defset(A)
    return A.is_idempotent_on_grid(grid)


def downset_hull(A: DefSet) -> DefSet:
    """Delta-bar * A * Delta-bar; the identity on representable sets."""
    _require_defset(A)
    closed = DefSet.closed_subdiagonal()
    return convolve(closed, convolve(A, closed))


def defset_of_exponential(norm_fn) -> DefSet:
    """Definition set {s < t - ||u||(t)} of an exponential.

    norm_fn may be a constant (the norm of a translation-type operator),
    a pair (c0, c1) for the affine norm c0 + c1*t, or a callable; the
    affine forms stay inside the symbolic grammar.
    """
    if isinstance(norm_fn, (int, float, Fraction)):
        if norm_fn < 0:
            raise ValueError("operator norm must be >= 0")
        if norm_fn == 0:
            return DefSet.open_diagonal()
        return DefSet(Linear(1, -norm_fn))
    if isinstance(norm_fn, tuple):
        c0, c1 = norm_fn
        if c0 < 0 or c1 < 0:
            raise ValueError("affine norm coefficients must be >= 0")
        if c1 >= 1:
            raise DegenerateSetError("norm slope %s >= 1 leaves no domain" % (c1,))
        if c1 == 0:
            return defset_of_exponential(c0)
        return DefSet(Linear(1 - num(c1), -c0))
    if callable(norm_fn):
        return DefSet(CallableBoundary(lambda t: t - norm_fn(t)))
    raise UnsupportedShapeError("cannot interpret norm description %r" % (norm_fn,))


def defset_of_product(alphas) -> DefSet:
    """{s < prod(1 - alpha_i) t}, where an infinite composition of
    exponentials with ||u_i|| <= alpha_i t converges."""
    prod = Fraction(1)
    for a in alphas:
        if not 0 <= a < 1:
            raise DegenerateSetError("factors need alpha in [0, 1), got %s" % (a,))
        prod *= 1 - num(a)
    return DefSet(Linear(prod, 0))


def tangent_slope_at_origin(A: DefSet) -> float:
    """Boundary slope at 0, Richardson-extrapolated from steps 1e-5, 5e-6."""
    _require_defset(A)
    if A.boundary is None:
        return 1.0
    s1 = A.boundary(1e-5) / 1e-5
    s2 = A.boundary(5e-6) / 5e-6
    return 2 * s2 - s1
