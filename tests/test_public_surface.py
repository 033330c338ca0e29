"""The package's public names, each check in a fresh interpreter so that no
earlier import in the test process decides what ``import mglab`` binds; what
``dir(mglab)`` lists does not depend on that, so it is also checked in process."""
import subprocess
import sys

import pytest

import mglab

MONTECARLO_NAMES = (
    "MAX_DOUBLING_LEVELS", "CrossValidationReport", "DoublingModel", "DoublingProfitReport",
    "EstimateReport", "Functional", "PathEnsemble", "WalkModel", "cross_validate",
    "estimate_functional", "exact_doubling_process", "exact_functional_value",
    "simulate_doubling_strategy", "simulate_walk",
)


def run_child(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_resolves_through_getattr():
    out = run_child(
        "import mglab\n"
        "print([n for n in mglab.__all__ if not hasattr(mglab, n)])\n"
    )
    assert out == "[]\n"


def test_star_import_binds_every_public_name():
    out = run_child(
        "from mglab import *\n"
        "import mglab\n"
        "print([n for n in mglab.__all__ if globals().get(n) is not getattr(mglab, n)])\n"
    )
    assert out == "[]\n"


SUBMODULES = ("numeric", "measure", "integration", "conditioning", "processes", "montecarlo",
              "jsonio")


def test_bare_import_loads_no_submodule_and_no_numpy():
    out = run_child(
        "import sys\n"
        "import mglab\n"
        "print([m for m in sys.modules if m.startswith('mglab.') or m.split('.')[0] == 'numpy'])\n"
    )
    assert out == "[]\n"


def test_dir_lists_every_public_name_and_loads_nothing():
    out = run_child(
        "import sys\n"
        "import mglab\n"
        "names = dir(mglab)\n"
        "print([n for n in mglab.__all__ if n not in names],"
        " [m for m in sys.modules if m.startswith('mglab.')])\n"
    )
    assert out == "[] []\n"


def test_dir_in_process_lists_every_public_name_and_submodule():
    names = dir(mglab)
    assert names == sorted(names)
    assert set(mglab.__all__) | set(SUBMODULES) <= set(names)


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_montecarlo_submodule_is_an_attribute_after_a_bare_import(submodule):
    out = run_child(
        "import sys, types\n"
        "import mglab\n"
        f"mod = mglab.{submodule}\n"
        "print(isinstance(mod, types.ModuleType), mod.__name__,"
        f" mod is sys.modules['mglab.{submodule}'])\n"
    )
    assert out == f"True mglab.{submodule} True\n"


def test_montecarlo_names_are_the_engine_objects():
    out = run_child(
        "import mglab\n"
        "first = mglab.simulate_walk\n"
        "mc = mglab.montecarlo\n"
        f"print(first is mc.simulate_walk, [n for n in {MONTECARLO_NAMES!r}\n"
        "       if n not in mglab.__all__ or getattr(mglab, n) is not getattr(mc, n)])\n"
    )
    assert out == "True []\n"


def test_unknown_name_raises_the_standard_attribute_error():
    out = run_child(
        "import mglab\n"
        "try:\n"
        "    mglab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'mglab' has no attribute 'no_such_name'\n"
