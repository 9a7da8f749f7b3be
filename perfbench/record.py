"""Record reference.json: every workload variant's scores and output digests.

    python3 perfbench/record.py [workload ...]

Run it at the commit whose outputs are the reference: the benchmark's
checks then hold later commits to them, at rel 1e-6 for scores and bit
for bit for files. Takes about four minutes on two cores; the named
workloads are re-recorded and the others kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    import run

    run.prepare_imports()
    import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    names = argv or list(workloads.WORKLOADS)
    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            ctx = wl.setup(work / name / "setup")
            variants = {}
            for k in range(workloads.VARIANTS):
                seed = wl.seed_flag_default + k
                out = work / name / f"seed{seed}"
                unit = wl.run_unit(ctx, seed, out)
                unit.values.update(wl.post_score(ctx, out))
                variants[str(seed)] = unit.values
                print(f"{name} --seed {seed}: {unit.core_s:.2f} s", flush=True)
            reference[name] = {"setup": ctx["values"], "variants": variants}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = run.environment(run.ROOT)
    reference["recorded_at"] = {k: env[k] for k in ("git_sha", "src_sha256", "numpy", "blas")}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
