"""The package is lazy: `import vbx` runs no submodule, every public name
still resolves, and a cold command loads only the modules it runs. A
command's process takes one BLAS thread unless told otherwise and freezes
its import heap; a program that calls main() or imports numpy first does
neither."""

import importlib
import json
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vbx
from vbx.specio import gallery_path

SRC = Path(vbx.__file__).resolve().parent.parent


def fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, writing no bytecode, as a cold command
    runs; env adds variables (it sets no BLAS variable of its own)."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", **env})
    assert proc.returncode == 0, proc.stderr
    return proc


# A cold command, then the state it leaves, as the last line of stderr:
# the BLAS thread setting, the frozen object count and every loaded module.
_ENTRIES = {
    "module": "runpy.run_module('vbx.cli', run_name='__main__', alter_sys=True)",  # python -m
    "script": "from vbx.cli import console; sys.exit(console())",  # the `vbx` console script
}
_AFTER = ("import atexit, gc, json, os, runpy, sys; atexit.register(lambda: print(json.dumps("
          "[os.environ.get('OPENBLAS_NUM_THREADS'), gc.get_freeze_count(), sorted(sys.modules)]"
          "), file=sys.stderr)); ")


def after(*argv: str, entry: str = "module", **env: str) -> tuple:
    """(BLAS threads, frozen count, loaded modules) at the end of a cold
    `vbx` command run through entry."""
    blas, frozen, modules = json.loads(
        fresh("-c", _AFTER + _ENTRIES[entry], *argv, **env).stderr.splitlines()[-1])
    return blas, frozen, set(modules)


def imported(*argv: str) -> set:
    """The modules a cold `vbx` command imports, read from sys.modules when
    it ends: -X importtime does not log a `from . import x`."""
    return after(*argv)[2]


def test_import_vbx_runs_no_submodule():
    code = "import sys, vbx; print(sorted(m for m in sys.modules if m.startswith('vbx.')))"
    assert fresh("-c", code).stdout == "[]\n"


CHECK = ("check", str(gallery_path("mobius")), "--samples", "5")
EVAL = ("eval", str(gallery_path("mobius")), "--target", "halfwave", "--chart", "east",
        "--point", "0.5")


@pytest.mark.parametrize("argv,loads", [(CHECK, "vbx.bundles"), (EVAL, "vbx.spec")],
                         ids=["check", "eval"])
def test_check_and_eval_load_no_construction_and_no_statistics(argv, loads):
    loaded = imported(*argv)
    assert {"vbx", loads, "vbx.specio"} <= loaded  # vbx.cli runs as __main__
    assert not loaded & {"vbx.constructions", "vbx.pullbacks", "vbx.symmat", "statistics"}


def test_construct_loads_the_constructions_and_still_writes_its_output(tmp_path):
    out = tmp_path / "dual.json"
    loaded = imported("construct", "dual", str(gallery_path("mobius")), "-o", str(out))
    assert "vbx.constructions" in loaded and "statistics" not in loaded
    assert out.exists()


# The modules by the commands that load them. Every command loads the core;
# check adds the check layer (the suites, sampling, reports, batched
# determinants); construct adds the constructions on top of both. No
# command loads the library-only modules. vbx.cli is each command's entry.
CORE = {"vbx", "vbx.calculus", "vbx.coords", "vbx.errors", "vbx.expr", "vbx.record", "vbx.spec",
        "vbx.specio"}
CHECK_LAYER = {"vbx.bundles", "vbx.dets", "vbx.geometry", "vbx.report"}
CONSTRUCT_LAYER = {"vbx.constructions", "vbx.intervals", "vbx.symmat"}
LIBRARY_ONLY = {"vbx.linalg", "vbx.pointwise", "vbx.pullbacks", "vbx.tensors"}


def test_the_layers_cover_the_package_once():
    layers = [CORE, CHECK_LAYER, CONSTRUCT_LAYER, LIBRARY_ONLY, {"vbx.cli"}]
    package = {"vbx"} | {f"vbx.{m.name}" for m in pkgutil.iter_modules(vbx.__path__)}
    assert set().union(*layers) == package
    assert sum(map(len, layers)) == len(package)


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("command", ["check", "eval", "construct"])
def test_each_command_loads_its_layers_and_nothing_else(tmp_path, command, entry):
    out = tmp_path / "dual.json"
    argv, layers = {
        "check": (CHECK, CORE | CHECK_LAYER),
        "eval": (EVAL, CORE),
        "construct": (("construct", "dual", str(gallery_path("mobius")), "-o", str(out)),
                      CORE | CHECK_LAYER | CONSTRUCT_LAYER),
    }[command]
    loaded = {m for m in after(*argv, entry=entry)[2] if m == "vbx" or m.startswith("vbx.")}
    assert loaded - {"vbx.cli"} == layers  # so no library-only module, and eval no check layer
    assert out.exists() == (command == "construct")


def test_the_readme_states_the_source_lines_each_command_loads():
    # README § Command line: per command, `wc -l` summed over the modules it
    # loads (the layers above, pinned to sys.modules), vbx.cli included.
    files = {m: SRC / "vbx" / f"{m.partition('.')[2] or '__init__'}.py"
             for m in CORE | CHECK_LAYER | CONSTRUCT_LAYER | {"vbx.cli"}}
    lines = {m: path.read_bytes().count(b"\n") for m, path in files.items()}
    loads = [CORE, CORE | CHECK_LAYER, CORE | CHECK_LAYER | CONSTRUCT_LAYER]
    section = (SRC.parent / "README.md").read_text(encoding="utf-8").split("## Command line\n")[1]
    stated = re.findall(r"\(([\d,]+)\s+(?:source\s+)?lines", section.split("\n## ")[0])
    assert stated == [f"{sum(lines[m] for m in layers | {'vbx.cli'}):,}" for layers in loads]


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_a_command_takes_one_blas_thread_and_freezes_its_import_heap(entry):
    blas, frozen, loaded = after(*EVAL, entry=entry)
    assert blas == "1" and frozen > 0
    assert "numpy" in loaded


def test_a_users_blas_thread_count_is_kept():
    assert after(*EVAL, OPENBLAS_NUM_THREADS="3")[0] == "3"


def test_a_program_that_imports_numpy_first_keeps_its_environment():
    code = ("import os, numpy; before = dict(os.environ); import vbx.cli; "
            "print(dict(os.environ) == before, 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert fresh("-c", code).stdout == "True False\n"


def test_main_called_in_process_never_freezes():
    code = ("import gc, sys; from vbx.cli import main; "
            f"codes = [main({list(EVAL)!r}) for _ in range(3)]; "
            "print(codes, gc.get_freeze_count(), file=sys.stderr)")
    assert fresh("-c", code).stderr.splitlines()[-1] == "[0, 0, 0] 0"


def test_every_public_name_resolves_to_its_submodules_object():
    modules = {name for name in vbx.__all__ if vbx._HOME[name] == name}
    assert modules == {"bundles", "calculus", "constructions", "errors", "expr", "geometry",
                       "linalg", "pullbacks", "report", "specio", "symmat", "tensors"}
    assert modules < {m.name for m in pkgutil.iter_modules(vbx.__path__)}
    assert vbx.__all__ == sorted(set(vbx.__all__)) and len(vbx.__all__) == 121
    for name in vbx.__all__:
        home = importlib.import_module(f"vbx.{vbx._HOME[name]}")
        assert getattr(vbx, name) is (home if name in modules else getattr(home, name)), name
    namespace: dict = {}
    exec("from vbx import *", namespace)
    assert {name: namespace[name] for name in vbx.__all__} == {
        name: getattr(vbx, name) for name in vbx.__all__}


def test_dir_covers_the_public_names():
    assert set(vbx.__all__) <= set(dir(vbx))
    assert set(vbx.__all__) <= set(vbx.__dir__())
    assert "__version__" in dir(vbx)


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'vbx' has no attribute 'no_such_name'"):
        vbx.__getattr__("no_such_name")
    with pytest.raises(AttributeError, match="'check_tensor_fields'"):
        vbx.check_tensor_fields  # noqa: B018
    assert not hasattr(vbx, "cli_main")
