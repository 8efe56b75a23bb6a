"""Every public function of the library serves a command, or is listed
here with the criterion, item or entry point that keeps it.

The golden argvs and README command lines of ``test_cli`` run in process
through ``cli.run`` under ``sys.setprofile``, which records each code
object called.  A public name has no leading underscore, so dunders and
private helpers are out.  The public functions, methods and properties
of the package root and the library modules that no run calls must equal
``UNREACHED``: a new function that no command reaches fails, and so does
a stale entry.
"""

import importlib
import inspect
import sys

from lienorm import cli
from test_cli import GOLDEN, README_COMMANDS

MODULES = ["lienorm", "lienorm.power_series", "lienorm.disc_norms", "lienorm.defsets",
           "lienorm.prisma", "lienorm.normalform", "lienorm.paramopt", "lienorm.cli"]

CRITERION_2 = "criterion 2: the normalizer equals the compositional inverse series"
CRITERION_9 = ("criterion 9 and the certified benchmark workload: the prisma "
               "closed form is exact along the iteration")
CRITERION_10 = "criterion 10: Nagumo, calibrated composition, Borel domination"
CRITERION_11 = "criterion 11: cones, idempotents, tangent slopes"
ITEM_8 = "item 8: rapid convergence proved for every n from one exact state"
ITEM_15 = "item 15, stage 2: the certificate's R built from the operator algebra"
ITEM_21 = "item 21, stage 2: the certified factor of monomial division by z^(m-1)"

# each public name that no command reaches, and what keeps it
UNREACHED = {
    "power_series.TruncSeries.invert": CRITERION_2,
    "power_series.TruncSeries.binomial_pow": CRITERION_2,
    "power_series.TruncSeries.weierstrass_div_monomial": CRITERION_2 + " (invert)",
    "power_series.TruncSeries.zero": CRITERION_2
    + " (weierstrass_div_monomial's remainder at degree 0)",
    "power_series.TruncSeries.one": CRITERION_2 + " (binomial_pow)",
    "paramopt.radius_oracle_series": "criterion 8: the series oracle within 2% "
    "of the true radius",
    "prisma.iterate": CRITERION_9,
    "prisma.in_invariant_set": CRITERION_9,
    "prisma.closed_form_xn": CRITERION_9,
    "disc_norms.compose_local_bounds": CRITERION_10,
    "disc_norms.calibrate": CRITERION_10,
    "disc_norms.majorant_norm": CRITERION_10,
    "defsets.DefSet.cone": CRITERION_11,
    "defsets.tangent_slope_at_origin": CRITERION_11,
    "defsets.is_idempotent_on_grid": CRITERION_11,
    "prisma.t_infinity": ITEM_8,
    "prisma.closed_form_xn_bound": ITEM_8,
    "disc_norms.division_by_z_bound": ITEM_15,
    "disc_norms.derivative_bound": ITEM_15,
    "disc_norms.division_bound": ITEM_21,
    "cli.main": "the console script lienorm = lienorm.cli:main; the tests call cli.run",
}


def _public_code(module):
    """(name, code object) of each public function, method and property
    that the module defines, the name qualified by module and class."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = ([(name + "." + n, m) for n, m in vars(obj).items() if not n.startswith("_")]
                   if inspect.isclass(obj) else [(name, obj)])
        for qualname, member in members:
            member = member.fget if isinstance(member, property) else member
            member = inspect.unwrap(getattr(member, "__func__", member))
            if inspect.isfunction(member):
                yield module.__name__.rsplit(".", 1)[-1] + "." + qualname, member.__code__


def test_every_public_function_is_reached_or_listed(capsys):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        for argv in [case["argv"] for case in GOLDEN] + README_COMMANDS:
            cli.run(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    public = dict(pair for name in MODULES for pair in _public_code(importlib.import_module(name)))
    assert {name for name, code in public.items() if code not in called} == set(UNREACHED)
