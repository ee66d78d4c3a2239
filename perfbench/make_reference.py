#!/usr/bin/env python3
"""Recompute perfbench/reference.json from the code in this checkout.

Run from the repository root:  python3 perfbench/make_reference.py

The reference holds, per item, the e1/e2/fixed ranks and the key numbers
(decay points, invariant-density spectrum, b.a.u. tails) at seed 0.  The
benchmark compares every item against it within workloads.KEY_RTOL and
KEY_ATOL.  Nothing is written if any verdict fails.
"""

import json
import os
import sys
import tempfile

from run import OUT_DIR, bootstrap


def main():
    bootstrap()
    import workloads

    reference, failures = {}, []
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="ref-") as workdir:
            wl = workloads.WORKLOAD_CLASSES[name](0, workdir, None)
            wl.build()
            for key, summary, item_failures in wl.reference_entries():
                reference[key] = summary
                failures += [f"{key}: {f}" for f in item_failures]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
