"""Record the output digests that `digests.json` pins for the default seed.

Usage, from the root of a checkout: python3 bench/pin_digests.py

Runs one untraced pass of every workload at the default seed and size and
writes the sha256 of each invocation's pinned outputs. Outputs are promised to
be byte-identical across reruns, so re-pin only for a change that is meant to
alter them, never for a performance change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    run.import_package()
    from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS

    pinned = {}
    for name, workload in sorted(WORKLOADS.items()):
        work = os.path.join(run.WORK, name)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        workload.generate(DEFAULT_SEED, work, workload.rows)
        result = run.run_pass(workload, workload.rows, work, False, time.monotonic() + run.RUN_LIMIT_S)
        if result["failed"]:
            print(f"error: {name}: {result['problems']}", file=sys.stderr)
            return 1
        pinned[name] = result["digests"]
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
