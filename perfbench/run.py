"""Host-time benchmark of the simulator and the tuning-plan service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload halo_stencil --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace
1`` prints the per-layer metrics of a traced run.  The last line of
standard output is the JSON verdict: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``); the lines
before it are a readable report with sample counts.  The workloads,
metrics and the predictions they test are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for service stores, inside the checkout.
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")


def import_repro() -> str:
    """Import ``repro`` from this checkout's ``src``; its package dir."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    if repro_dir != os.path.join(SRC, "repro"):
        raise SystemExit(f"perfbench: imported repro from {repro_dir}, "
                         f"not from {SRC}")
    return repro_dir


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    repro_dir = import_repro()
    import harness
    from workloads import get_workload

    workload = get_workload(args.workload)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        if args.trace:
            result = harness.traced_run(workload, args.seed, tmp, repro_dir)
        else:
            probe = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                     "--workload", args.workload, "--seed", str(args.seed)]
            result = harness.timed_run(workload, args.seed, args.seconds,
                                       tmp, probe)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    harness.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
