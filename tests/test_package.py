"""Package surface: every module imports, every exported name exists, no module
pulls in a dependency beyond numpy or imports a name it does not use, and the
SweepRow field order that positional readers rely on."""

import ast
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
from noiselab.core import _openblas_thread_funcs
from noiselab.sweep import SweepRow

MODULES = ["noiselab"] + [f"noiselab.{m.name}" for m in pkgutil.iter_modules(noiselab.__path__)]
ROOT = Path(__file__).resolve().parent.parent


def test_every_module_is_listed():
    assert {"noiselab.denoiser", "noiselab.training"} <= set(MODULES)


def test_readme_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in MODULES[1:] if f"`{name}`" not in readme] == []


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def unused_imports(path: Path) -> list[str]:
    """The names an import binds in the file at path that nothing there reads.

    A name listed in the module's __all__ counts as read.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_every_import_is_used():
    paths = sorted((ROOT / "src" / "noiselab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_only_core_names_box_muller():
    """Normal draws have one layout: the trainer takes core._normals, not the transform."""
    paths = sorted((ROOT / "src" / "noiselab").glob("*.py"))
    assert [p.name for p in paths if "_box_muller" in p.read_text(encoding="utf-8")] \
        == ["core.py"]


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
    # forking is core.fork_map's os.fork and pipes: a parallel sweep and a
    # split generate load no process pool and no shared memory
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "forks, real_fork = [], os.fork\n"
        "def fork():\n"
        "    pid = real_fork()\n"
        "    forks.append(pid)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "import noiselab.cli\n"
        "from noiselab.config import Config, SweepSettings\n"
        "from noiselab.datasets import DatasetSpec, ar1_covariance\n"
        "from noiselab.forward import CompoundSchedule\n"
        "from noiselab.oracle import GaussianOracle\n"
        "from noiselab.sampler import SamplerConfig, generate\n"
        "from noiselab.schedules import ScheduleSpec\n"
        "from noiselab.sweep import run_sweep\n"
        "cfg = Config(sweep=SweepSettings(schedules=('linear',), scales=(0.5, 1.0),\n"
        "             metric='covariance_error', base_seed=0, oracle=True, n_eval=50),\n"
        "             dataset=DatasetSpec(kind='gaussian_ar1', n_train=2, seed=0, dim=4,\n"
        "                                 rho=0.5),\n"
        "             sampler=SamplerConfig(steps=5, seed=0))\n"
        "assert run_sweep(cfg).ok\n"
        "generate(GaussianOracle(ar1_covariance(4, 0.5)),\n"
        "         CompoundSchedule(ScheduleSpec.linear(), 1.0, 'off'),\n"
        "         SamplerConfig(steps=5, seed=0), 1024)\n"
        "print(len(forks), sorted(m for m in sys.modules if m.startswith(\n"
        "    ('multiprocessing', 'concurrent.futures', 'mmap'))))\n"
    )
    src = str(Path(noiselab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    forked = 2 if _openblas_thread_funcs() is not None else 0
    assert proc.stdout.strip() == f"{forked} []"
