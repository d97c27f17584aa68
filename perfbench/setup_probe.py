"""Print the seconds one workload's set-up takes in a fresh process.

Set-up is importing the ``repro`` layers the workload uses and building
its inputs (for ``plan_service``, also opening a service).  The clock
starts before the first ``repro`` import; interpreter start-up is not
included.  ``run.py`` runs this several times and reports the median::

    python3 perfbench/setup_probe.py --workload halo_stencil --seed 1
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from run import TMP_ROOT, import_repro  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_repro()
    from workloads import get_workload

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="probe-", dir=TMP_ROOT)
    try:
        get_workload(args.workload).setup(args.seed, tmp)
        elapsed = time.perf_counter() - START
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
