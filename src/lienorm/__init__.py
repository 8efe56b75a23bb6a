"""Exact Lie-iteration normal forms with certified convergence bounds.

Layers, bottom up:

- :mod:`lienorm.power_series`: exact truncated series algebra, Lie
  exponentials of derivations, the division map.
- :mod:`lienorm.disc_norms`: majorant norms on discs, local-operator
  bound algebra with calibration, weight-sequence summation checks.
- :mod:`lienorm.defsets`: definition-set geometry (boundary functions,
  convolution, idempotents).
- :mod:`lienorm.prisma`: the finite-dimensional iteration that governs
  the norm bounds, with exact closed forms.
- :mod:`lienorm.normalform`: the Lie iteration itself, formal and
  certified, plus convergence certificates.
- :mod:`lienorm.paramopt`: certificate parameter optimization and the
  certified-vs-true radius tables.

Loading is lazy (PEP 562): ``import lienorm`` imports none of these
modules.  The first access to a public name, such as ``lienorm.lie_exp``,
or to a module, such as ``lienorm.prisma``, imports the module that
defines it.  A public name is looked up in its module on every access
and never stored here, so a patch of ``lienorm.power_series.lie_exp``
shows through ``lienorm.lie_exp`` and goes away with its undo.

The two number rules that every layer shares live here, in the one
module each layer loads.  :func:`num` is the scalar rule: callers apply
it once where a value enters, and from there an int or ``Fraction``
stays exact until a float joins it.  :func:`fraction_str` writes the
``"p/q"`` wire form.
"""

import sys
from fractions import Fraction

__version__ = "0.1.0"

# each public name and the module that defines it
_SOURCE = {
    **dict.fromkeys([
        "TruncSeries", "apply_derivation", "j_map", "lie_exp",
        "CompositionDomainError", "NotInvertibleError",
        "NonTerminatingExponentialError", "InsufficientTruncationError",
    ], "power_series"),
    **dict.fromkeys([
        "MajorantValue", "LocalOpBound", "WeightSequence", "majorant_norm",
        "nagumo_check", "compose_local_bounds", "calibrate",
    ], "disc_norms"),
    **dict.fromkeys([
        "DefSet", "convolve",
    ], "defsets"),
    **dict.fromkeys([
        "PrismaState", "IterConfig", "rapid_convergence_check",
    ], "prisma"),
    **dict.fromkeys([
        "LieTrace", "Certificate", "lie_iterate_formal", "normalizer_series",
        "certify", "threshold_T0", "lie_iterate_certified",
    ], "normalform"),
    **dict.fromkeys([
        "OptResult", "QRow", "maximize_basic", "maximize_equalized",
        "q_table", "true_radius", "radius_oracle_series",
    ], "paramopt"),
}

__all__ = list(_SOURCE)


def num(x):
    """The scalar rule: int/Fraction as an exact Fraction, float otherwise."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def fraction_str(x):
    """The "p/q" wire form of a Fraction; any other value passes through."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    return x


def __getattr__(name):
    if name in _SOURCE.values():
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(__name__ + "." + name)
        return sys.modules[__name__ + "." + name]
    if name in _SOURCE:
        return getattr(__getattr__(_SOURCE[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__, *_SOURCE.values()})
