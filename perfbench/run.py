"""noiselab benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload train_recipe --seed 1 --seconds 25 --trace 0

It benchmarks the package in ``src/`` next to this directory. The
process pins BLAS to one thread, holds freed memory for reuse, sets the
workload up three times (the median is ``setup_s``), then runs a fixed
number of repetition units back to back through ``noiselab.cli.main`` and
checks every output against ``reference.json``. ``--seconds`` sets the
number of units: as many as typically took that long at the seed commit.
With ``--trace 1`` each unit runs a second time, right after itself,
under span wrappers, and the last line reports per-layer metrics instead.
The last line of stdout is one JSON object; the lines before it give
every metric by name with its unit, the checks, and the environment. Exit 0 means the run finished (check ``correct``); exit 2
means it could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
MIN_COVERAGE = 0.95


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library when it can be."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return f"env OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment(root: Path) -> dict:
    import hashlib
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "src_sha256": digest.hexdigest(),
    }


def tail(values):
    """(q, value) of the highest whole percentile q > 50 with at least ten
    samples beyond it, or None when there are too few samples."""
    from spans import percentile

    n = len(values)
    q = 100 * (n - 10) // n if n > 10 else 0
    return (q, percentile(sorted(values), q)) if q > 50 else None


def _timed_unit(wl, ctx, seed: int, out: Path):
    """(UnitResult, seconds) of one unit; a failing unit is counted, not fatal."""
    from workloads import failed_unit

    t0 = time.perf_counter()
    try:
        unit = wl.run_unit(ctx, seed, out)
    except Exception as e:  # noqa: BLE001 - a failing op is counted, not fatal
        print(f"unit {out.name} (--seed {seed}) failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        unit = failed_unit(wl.ops_per_unit)
    return unit, time.perf_counter() - t0


def timed_phase(wl, ctx, seeds, out_dir: Path, tracer=None):
    """Run one unit per seed back to back.

    With a tracer, each unit is run again right after itself with the span
    wrappers installed, so host-speed drift hits both sides alike. Returns
    (units, wall seconds of each, traced units, wall seconds of each).
    """
    units, traced, unit_s, traced_s = [], [], [], []
    for u, seed in enumerate(seeds):
        unit, seconds = _timed_unit(wl, ctx, seed, out_dir / f"unit{u}")
        units.append(unit)
        unit_s.append(seconds)
        if tracer is not None:
            tracer.install()
            try:
                unit, seconds = _timed_unit(wl, ctx, seed, out_dir / f"traced{u}")
            finally:
                tracer.uninstall()
            traced.append(unit)
            traced_s.append(seconds)
    return units, unit_s, traced, traced_s


def run(args, memory_held: bool, out) -> dict:
    import resource
    import shutil

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    n_units = max(1, round(args.seconds / wl.nominal_unit_s))
    seeds = workloads.variant_seeds(wl, args.seed, n_units)
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    checks = []  # (name, passed, detail)
    try:
        setup_s = []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            ctx = wl.setup(work / f"setup{k}")
            setup_s.append(time.perf_counter() - t0)
            bad = [key for key, want in reference["setup"].items()
                   if ctx["values"].get(key) != want]
            checks.append((f"setup {k} matches reference", not bad, ", ".join(bad)))

        tracer = spans.Tracer() if args.trace else None
        units, unit_s, traced, traced_s = timed_phase(wl, ctx, seeds, work, tracer)
        wall, traced_wall = sum(unit_s), sum(traced_s)
        if units[0].core_s > 0.0:
            try:
                extra = wl.post_score(ctx, work / "unit0")
            except Exception as e:  # noqa: BLE001 - fails unit 0's op via a key with no reference
                print(f"scoring unit 0 failed: {type(e).__name__}: {e}", file=sys.stderr)
                extra = {"post_score_error": str(e)}
            units[0].values.update(extra)
            units[0].ops = [op + list(extra) for op in units[0].ops]

        phases = [units]
        if tracer is not None:
            phases.append(traced)
            leftovers = spans.leftover_wrappers()
            checks.append(("wrappers restored", not leftovers, ", ".join(leftovers)))
            same = all(t.core_s > 0.0
                       and all(u.values.get(k) == v for k, v in t.values.items())
                       for t, u in zip(traced, units))
            checks.append(("traced outputs bit-identical to untraced", same, ""))
            coverage = tracer.self_total_s() / traced_wall
            checks.append((f"span self time covers >= {MIN_COVERAGE:.0%} of traced wall",
                           coverage >= MIN_COVERAGE, f"{coverage:.4f}"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = failed = compared = identical = 0
    for phase in phases:
        for seed, unit in zip(seeds, phase):
            f, c, i = workloads.judge(unit, reference["variants"][str(seed)])
            attempted += len(unit.ops)
            failed += f
            compared += c
            identical += i

    op_s = [s for u in units for s in u.op_s]
    op_p50 = statistics.median(op_s) if op_s else 0.0
    unit_p50 = statistics.median(unit_s)
    rate = wl.work_per_op / op_p50 if op_p50 > 0.0 else 0.0
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "unit_p50_s": (unit_p50, "s"),
        "work_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    print(f"workload {wl.name} seed {args.seed}: {n_units} unit(s), --seed {seeds}", file=out)
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} {value!r} {unit}", file=out)
    print(f"metric wall_s {wall!r} s", file=out)
    print(f"metric {wl.rate_name} {rate!r} {wl.work_unit}/s", file=out)
    if op_s:
        t = tail(op_s)
        tail_txt = f"p{t[0]} {t[1]!r} s" if t else "no tail percentile with 10 samples beyond"
        print(f"metric op_latency p50 {op_p50!r} s, {tail_txt}, "
              f"n {len(op_s)}", file=out)
    print(f"metric ops_attempted {attempted} count", file=out)
    print(f"metric ops_failed {failed} count", file=out)
    print(f"check output digests bit-identical to reference: {identical}/{compared} files",
          file=out)
    for name, passed, detail in checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'} {detail}".rstrip(), file=out)
    env = dict(environment(ROOT), freed_memory_held=memory_held)
    print("env " + json.dumps(env, sort_keys=True), file=out)

    correct = failed == 0 and all(passed for _, passed, _ in checks)
    if tracer is not None:
        layer = tracer.metrics()
        units_of = dict(spans.metric_names())
        metrics = {k: {"value": v, "unit": units_of[k]} for k, v in layer.items()}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics["trace.coverage_pct"] = {"value": 100.0 * coverage, "unit": "%"}
        for k, m in metrics.items():
            print(f"layer {k} {m['value']!r} {m['unit']}", file=out)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def prepare_imports() -> None:
    """Pin BLAS to one thread and put ``src/`` first on the import path.

    Call before numpy is imported: OpenBLAS reads these variables once,
    when numpy first loads it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def hold_freed_memory() -> bool:
    """Keep the memory numpy frees in the process, for its next arrays.

    By default glibc hands each freed array of 128 KiB or more back to the
    kernel, and the next one faults its pages in again: about 660 thousand
    page faults a sample call and 2.8 million an oracle grid. On the shared
    two-core host the benchmark was built on, those faults took 1.7 to 1.9
    s of kernel time in a 7.5 to 8.1 s sample call, and their cost drifted
    with the host's load, far more than the program's own work did. With
    arrays up to 32 MiB served from a heap that is never trimmed, the same
    call took 5.8 to 6.0 s, and the timings follow the program. Returns
    False where the C library has no mallopt.
    """
    import ctypes

    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    return bool(mallopt(m_mmap_threshold, 32 << 20) & mallopt(m_trim_threshold, 2**31 - 1))


def main(argv=None) -> int:
    args = _parse_args(argv)
    prepare_imports()
    held = hold_freed_memory()
    src = ROOT / "src"
    try:
        import noiselab.cli
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import noiselab from {src}: {e}", file=sys.stderr)
        return 2
    if src not in Path(noiselab.cli.__file__).resolve().parents:
        print(f"perfbench: noiselab was imported from {noiselab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (HERE / "reference.json").is_file():
        print("perfbench: reference.json is missing; run perfbench/record.py", file=sys.stderr)
        return 2
    result = run(args, held, sys.stdout)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
