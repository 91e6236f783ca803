"""Start-up cost: `import proofbench` loads no submodule, and each CLI
command loads only the modules it uses.  Each check runs in a fresh
interpreter, since the suite itself has imported everything."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proofbench

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "fixtures" / "paper_3_1.drv")


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter has loaded after running code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_importing_the_package_loads_no_submodule():
    loaded = _loaded_after("import proofbench")
    assert "proofbench" in loaded
    assert not {m for m in loaded if m.startswith("proofbench.")}


def test_star_import_binds_every_export_from_its_home_module():
    namespace: dict = {}
    exec("from proofbench import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(proofbench.__all__) == sorted(proofbench._HOMES)
    for name, value in namespace.items():
        assert value is getattr(importlib.import_module(f"proofbench.{proofbench._HOMES[name]}"), name)
    with pytest.raises(AttributeError):
        proofbench.no_such_name


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["enumerate", "--count", "3"], {"proofbench.enumerator"},
         {"proofbench.qlang", "proofbench.pi_system", "proofbench.proof_search", "dataclasses"}),
        (["qlang", "nth", "5"], {"proofbench.qlang"}, {"proofbench.pi_system", "proofbench.proof_search"}),
        (["check", FIXTURE], {"proofbench.pi_system"}, {"proofbench.proof_search"}),
    ],
    ids=["enumerate", "qlang-nth", "check"],
)
def test_each_command_loads_only_its_modules(argv, loads, skips):
    loaded = _loaded_after(f"from proofbench.cli import main\nassert main({argv!r}) == 0")
    assert loads <= loaded
    assert not loaded & skips
