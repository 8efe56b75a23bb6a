import os
import subprocess
import sys

import pytest

import lienorm

SRC = os.path.dirname(os.path.dirname(lienorm.__file__))
MODULES = ["power_series", "disc_norms", "defsets", "prisma", "normalform", "paramopt"]


def loaded_by(code, *argv, packages=("lienorm",), flags=()):
    """The modules of packages a fresh interpreter, started with flags,
    holds after running code."""
    code += ("\nprint(*sorted(m for m in sys.modules if m.split('.')[0] in %r),"
             " file=sys.stderr)" % (tuple(packages),))
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", "import sys\n" + code, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    return set(proc.stderr.splitlines()[-1].split())


def test_import_loads_no_submodule():
    assert loaded_by("import lienorm") == {"lienorm"}
    assert loaded_by("import lienorm.cli") == {"lienorm", "lienorm.cli"}


# each subcommand's argv and the library modules it must load
SUBCOMMANDS = [
    (["qtable", "--n", "3"], ["paramopt"]),
    (["optimize", "--mode", "basic"], ["paramopt"]),
    (["plot-grid", "--resolution", "3"], ["paramopt"]),
    # prisma and defsets work on scalars and load no series code
    (["prisma", "--t", "1/2", "--s", "1/4", "--x", "1/8", "--steps", "3"], ["prisma"]),
    (["defset", "idempotent", "--set", "diagonal", "--grid", "2"], ["defsets"]),
    (["defset", "contains", "--set", "diagonal", "--t", "1", "--s", "1/2"], ["defsets"]),
    (["defset", "convolve", "--set", "diagonal", "--other", "closed-diagonal"],
     ["defsets"]),
    # disc_norms names TruncSeries only in annotations
    (["norms", "lambda-p", "--grid", "2"], ["disc_norms"]),
    (["norms", "nagumo"], ["power_series", "disc_norms"]),
    (["norms", "borel", "--x", "1/2"], ["disc_norms"]),
    (["morse-trace", "--steps", "1"], ["power_series", "prisma", "normalform"]),
    (["normalize", "--steps", "1"], ["power_series", "prisma", "normalform"]),
    (["certify", "--t0", "1/250"], ["power_series", "prisma", "normalform"]),
    (["threshold"], ["power_series", "prisma", "normalform"]),
    (["qtable", "--n", "3,x"], []),  # an argparse error
]


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS,
                         ids=[" ".join(argv) for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_only_its_modules(argv, modules):
    got = loaded_by("import lienorm.cli\nlienorm.cli.run(sys.argv[1:])", *argv)
    assert got == {"lienorm", "lienorm.cli", *("lienorm." + m for m in modules)}


# the library takes its annotation types from collections.abc and builds
# its records from collections.namedtuple and __slots__, so no command loads
# typing, or dataclasses and the modules it imports; -S keeps a site hook
# (which may import any of them at start-up) out of the count
@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMANDS],
                         ids=[" ".join(argv) for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_no_typing(argv):
    code = "import lienorm.cli\nlienorm.cli.run(sys.argv[1:])"
    unwanted = ("typing", "dataclasses", "inspect", "ast", "dis", "tokenize")
    assert loaded_by(code, *argv, packages=unwanted, flags=["-S"]) == set()


# every subcommand in one interpreter: the optimizers' Newton step and the
# convergent prisma run are decided without numpy
NUMPY_FREE = [
    ["optimize", "--mode", "basic"],
    ["qtable", "--n", "3"],
    ["morse-trace", "--steps", "1"],
    ["normalize", "--steps", "1"],
    ["certify", "--t0", "1/250", "--steps", "3"],
    ["threshold"],
    ["plot-grid", "--resolution", "3"],
    ["prisma", "--t", "1", "--s", "7/10", "--x", "3/10", "--R", "8", "--lambda", "5/8"],
    ["prisma", "--t", "1", "--s", "7/10", "--x", "3/2", "--steps", "4"],
    ["defset", "idempotent", "--set", "diagonal", "--grid", "2"],
    ["norms", "lambda-p", "--grid", "2"],
]


def test_no_subcommand_imports_numpy():
    code = "import lienorm.cli\n" + "".join(
        "assert lienorm.cli.run(%r) in (0, 1)\n" % argv for argv in NUMPY_FREE)
    assert loaded_by(code, packages=("numpy",)) == set()


def test_optimizers_run_with_numpy_blocked():
    # None in sys.modules makes every `import numpy` raise ImportError
    code = ("import sys, contextlib, io\n"
            "sys.modules['numpy'] = None\n"
            "import lienorm.cli\n"
            "for argv in %r:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert lienorm.cli.run(argv) == 0, argv\n"
            % [["optimize", "--mode", "basic"], ["optimize", "--mode", "equalized"],
               ["qtable", "--n", "3"]])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_modules_resolve_from_the_root():
    assert all(getattr(lienorm, m).__name__ == "lienorm." + m for m in MODULES)


# a library name is read from its module, never from the package root
@pytest.mark.parametrize("name", ["no_such_name", "TruncSeries", "lie_exp", "certify",
                                  "DefSet", "maximize_basic", "__all__"])
def test_unknown_attribute_is_named(name):
    with pytest.raises(AttributeError, match="no attribute '%s'" % name):
        getattr(lienorm, name)
