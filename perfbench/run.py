"""Launcher of the tidaldisk benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload solve-B-linear --seed 1 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1

It pins the BLAS/OpenMP thread count before numpy is imported and puts the
checkout's own src/ first on the import path, so the package measured is
the one in this source tree.  It exits with code 2, printing no result,
when that tree is missing.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "tidaldisk", "__init__.py")):
        print(f"error: no tidaldisk sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        threads = min(json.load(fh)["blas_threads"], os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import bench  # loads numpy, after the thread count is set
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
