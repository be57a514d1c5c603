"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs one pass of every workload in sorted unit order and writes
``perfbench/reference.json``: the claim verdicts of the verify batch, the
SHA-256 of every replay transcript (survivor line included), and the
steps verified and per-epoch invariants of every audited script.  Re-record
only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.load(name, run.OUT, with_reference=False)
        observed = workload.run_pass(workload.units()).observed
        if name == workloads.VerifyWorkload.name:
            batch = observed.pop("batch")
            if observed != batch:
                raise SystemExit("single-claim verdicts disagree with the batch")
            observed = batch
        reference[name] = observed
        print(f"{name}: {len(observed)} units recorded")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
