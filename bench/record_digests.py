"""Rewrite bench/digests.json from one pass of every workload.

    python3 bench/record_digests.py

Run it only when the program's answers change on purpose; the diff of
digests.json then shows which ops moved.
"""

import json
import sys

import run


def main():
    record = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, spec in run.WORKLOADS.items():
        m, ops, _ = run.setup(spec, run.DEFAULT_SEED, None)
        measured = run.Run(spec, m, ops, reference=None)
        measured.one_pass()
        if measured.failed:
            print(f"{name}: {measured.problems}", file=sys.stderr)
            return 1
        record["workloads"][name] = measured.first
        print(f"{name}: {len(ops)} ops in {measured.passes[0]:.2f}s")
    run.DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
