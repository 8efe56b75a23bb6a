"""Definition sets of partial morphisms over the subdiagonal.

A definition set is a region {(t, s) in (0, 1]^2 : s < f(t)} cut out
of the subdiagonal by a monotone boundary function, or the closed
subdiagonal itself.  A set is built from a boundary node or is one of
the canonical sets (the open diagonal, the closed subdiagonal, a cone).
Convolution of two such sets (the set over which composed partial
morphisms exist) is composition of their boundaries, which is carried
out symbolically on a small expression grammar.
DefSet.to_dict writes a set; the one reader, boundary_from_dict, reads
a boundary node, the form that the command line's --set takes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from fractions import Fraction

from . import fraction_str, num


class UnsupportedShapeError(TypeError):
    """Input is outside the representable boundary-function grammar."""


class BoundaryFn:
    """Monotone nondecreasing boundary expression on (0, 1]."""

    op: str | None = None  # the JSON name; None: the node has no JSON form
    _fields: tuple[str, ...] = ()
    _node_fields = False  # whether the fields hold nodes, not numbers

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
    _node_fields = True

    def __init__(self, outer: BoundaryFn, inner: BoundaryFn):
        _require_nodes(self.op, outer, inner)
        self.outer = outer
        self.inner = inner

    def __call__(self, t):
        return self.outer(self.inner(t))


class Min(BoundaryFn):
    op = "min"
    _fields = ("left", "right")
    _node_fields = True

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
    """The node that to_dict wrote: a field of compose or min is an
    object (a nested node), any other field a string (a "p/q" Fraction)
    or a finite number that is no bool."""
    op = d.get("op") if isinstance(d, dict) else None
    if not isinstance(op, str) or op not in _OPS:
        raise UnsupportedShapeError("not a boundary node: %r" % (d,))
    cls = _OPS[op]
    try:
        return cls(*[_field(cls, name, d[name]) for name in cls._fields])
    except KeyError as exc:
        raise UnsupportedShapeError("%s boundary needs field %s" % (op, exc)) from None
    except ZeroDivisionError as exc:
        raise ValueError("%s boundary has a zero denominator: %s" % (op, exc)) from None


def _field(cls, name, v):
    op = cls.op
    if cls._node_fields:
        if isinstance(v, dict):
            return boundary_from_dict(v)
        raise UnsupportedShapeError("%s boundary field %s is no node: %r" % (op, name, v))
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

    def __repr__(self):
        if self.boundary is None:
            return "DefSet(closed subdiagonal)"
        return "DefSet(s < %r)" % (self.boundary,)


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


def tangent_slope_at_origin(A: DefSet) -> float:
    """Boundary slope at 0, Richardson-extrapolated from steps 1e-5, 5e-6."""
    _require_defset(A)
    if A.boundary is None:
        return 1.0
    s1 = A.boundary(1e-5) / 1e-5
    s2 = A.boundary(5e-6) / 5e-6
    return 2 * s2 - s1
