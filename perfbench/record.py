"""Record the expected outputs every DES unit must reproduce bit for bit.

Run from the root of a checkout, at a commit whose outputs are trusted::

    python3 perfbench/record.py

It runs every point of every DES workload once per input variant and
writes ``perfbench/expected.json``: for each workload and variant, each
point's outputs in the canonical encoding of ``measure.encode`` (floats
as ``float.hex``).  A later commit that changes any recorded value has
changed behaviour, not performance.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from measure import encode
from run import TMP_ROOT, import_repro


def main() -> None:
    import_repro()
    from harness import EXPECTED
    from workloads import VARIANTS, WORKLOADS

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=TMP_ROOT)
    recorded = {}
    try:
        for name, workload in WORKLOADS.items():
            variants = {}
            for variant in range(VARIANTS):
                units = workload.setup(variant, tmp)
                if not any(unit.has_expected for unit in units):
                    break
                variants[str(variant)] = {
                    unit.label: encode(unit.run().outputs)
                    for unit in units}
                print(f"{name} variant {variant}: {len(units)} points",
                      file=sys.stderr, flush=True)
            if variants:
                recorded[name] = variants
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(EXPECTED, "w") as fh:
        json.dump({"format": 1, "variants": VARIANTS,
                   "workloads": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
