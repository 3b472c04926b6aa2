"""The package is lazy: `import vbx` runs no submodule, every public name
still resolves, and a cold command loads only the modules it runs."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import vbx
from vbx.specio import gallery_path

SRC = Path(vbx.__file__).resolve().parent.parent


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, writing no bytecode, as a cold command runs."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return proc


def imported(*argv: str) -> set:
    """The modules a cold `vbx` command imports, read from -X importtime."""
    err = fresh("-X", "importtime", "-m", "vbx.cli", *argv).stderr
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def test_import_vbx_runs_no_submodule():
    code = "import sys, vbx; print(sorted(m for m in sys.modules if m.startswith('vbx.')))"
    assert fresh("-c", code).stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ("check", str(gallery_path("mobius")), "--samples", "5"),
    ("eval", str(gallery_path("mobius")), "--target", "halfwave", "--chart", "east",
     "--point", "0.5"),
], ids=["check", "eval"])
def test_check_and_eval_load_no_construction_and_no_statistics(argv):
    loaded = imported(*argv)
    assert {"vbx", "vbx.bundles", "vbx.specio"} <= loaded  # vbx.cli runs as __main__
    assert not loaded & {"vbx.constructions", "vbx.pullbacks", "statistics"}


def test_construct_loads_the_constructions_and_still_writes_its_output(tmp_path):
    out = tmp_path / "dual.json"
    loaded = imported("construct", "dual", str(gallery_path("mobius")), "-o", str(out))
    assert "vbx.constructions" in loaded and "statistics" not in loaded
    assert out.exists()


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
