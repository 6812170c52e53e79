"""styledl benchmark: run one workload in its own process and print its result.

    python3 bench/run.py --workload train-full --seed 0 --seconds 15 --trace 0

Workloads: `train-full`, `train-backbone-128`, `predict` (described in
`bench/workloads.py`). `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer ones. Run it from the root of a source checkout;
the package is imported from `src/`, nothing needs installing.

The workload runs in a child process whose BLAS/OpenMP thread count is set
before numpy loads, and never above the number of usable cores. The child
works in `.bench_work/` under the checkout, which is removed afterwards.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record
the environment (Python, numpy, BLAS build and threads, core count) and the
sample count behind every metric.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1    # one thread keeps run-to-run spread low on a shared machine
TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "styledl" / "__init__.py").is_file():
        print(f"error: no styledl source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONDONTWRITEBYTECODE="1")
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), *sys.argv[1:], "--workdir", str(workdir)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
