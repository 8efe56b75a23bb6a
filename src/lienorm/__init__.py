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
modules, and the first access to one, such as ``lienorm.prisma``,
imports it.  Library names are imported from their modules, as in
``from lienorm.power_series import TruncSeries``.

The two number rules that every layer shares live here, in the one
module each layer loads.  :func:`num` is the scalar rule: callers apply
it once where a value enters, and from there an int or ``Fraction``
stays exact until a float joins it.  :func:`fraction_str` writes the
``"p/q"`` wire form.
"""

import sys
from fractions import Fraction

__version__ = "0.1.0"

# the modules that ``lienorm.<module>`` imports on first access
_MODULES = ("power_series", "disc_norms", "defsets", "prisma", "normalform",
            "paramopt")


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
    if name in _MODULES:
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(__name__ + "." + name)
        return sys.modules[__name__ + "." + name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

