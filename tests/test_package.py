"""Package surface: every module imports, every exported name exists, no module
pulls in a dependency beyond numpy, and the SweepRow field order that
positional readers rely on."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import noiselab
from noiselab.sweep import SweepRow

MODULES = ["noiselab"] + [f"noiselab.{m.name}" for m in pkgutil.iter_modules(noiselab.__path__)]


def test_every_module_is_listed():
    assert {"noiselab.denoiser", "noiselab.training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_sweep_row_field_order():
    # rows read back from sweep.csv are rebuilt positionally as SweepRow(*row)
    assert [f.name for f in fields(SweepRow)] == [
        "schedule", "scale", "metric", "wall_ms", "seed", "status", "error",
    ]


def test_imports_load_numpy_and_stdlib_only():
    # a fresh interpreter: this test process may have loaded anything
    code = (
        "import importlib, json, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    src = str(Path(noiselab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert "noiselab" in loaded and "numpy" in loaded
    assert loaded & {"scipy", "numba", "torch"} == set()


def test_cli_import_leaves_the_worker_pool_unloaded():
    # sweeps import the process pool when they first fork, and a row split
    # imports mmap when it opens; train never does
    code = (
        "import sys\n"
        "import noiselab.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(\n"
        "    ('multiprocessing', 'concurrent.futures.process', 'mmap'))))\n"
    )
    src = str(Path(noiselab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
