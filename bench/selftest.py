"""Self-test of the benchmark itself, at tiny size.

    python3 bench/selftest.py

1. The acceptance-family generator reproduces the acceptance suite's
   200-instance batch (seed 1405), compared as `emit_problem` text.
2. A corrupted reference digest makes an op fail, so `failed` rises.
3. Every workload, run through the command line with two ops, prints each
   metric named in BENCHMARK.json with its unit: end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1.
"""

import importlib.util
import json
import random
import subprocess
import sys

import run

BATCH_SIZE = 200


def check_acceptance_batch():
    spec = importlib.util.spec_from_file_location(
        "instance_gen", run.ROOT / "tests" / "instance_gen.py"
    )
    m, families = run.import_fresh()
    instance_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instance_gen)
    rng = random.Random(families.ACCEPTANCE_SEED)
    Case = sys.modules["pblp"].Case
    expected = [
        m.cli_io.emit_problem(
            instance_gen.random_pblp(rng, Case.ONE if i % 2 == 0 else Case.TWO)
        )
        for i in range(BATCH_SIZE)
    ]
    got = [
        m.cli_io.emit_problem(p)
        for p in families.acceptance_family(families.ACCEPTANCE_SEED, BATCH_SIZE)
    ]
    assert got == expected, "acceptance family drifted from tests/instance_gen.py"
    print(f"ok: acceptance family reproduces the {BATCH_SIZE}-instance batch")


def check_corrupted_reference():
    reference = run.load_digests("batch-check", run.DEFAULT_SEED)
    clean, _ = run.measure("batch-check", run.DEFAULT_SEED, 0, 0, limit=2, reference=reference)
    corrupted = list(reference)
    corrupted[1] = "0" * len(corrupted[1])
    broken, lines = run.measure(
        "batch-check", run.DEFAULT_SEED, 0, 0, limit=2, reference=corrupted
    )
    assert clean["failed"] == 0, clean
    assert broken["failed"] == 1 and not broken["correct"], broken
    assert any("differs from the committed one" in line for line in lines), lines
    print(f"ok: fail ratio 0/{clean['attempted']} -> 1/{broken['attempted']} "
          "with one corrupted reference")


def check_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seconds", "0", "--limit", "2", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170, check=False,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, result
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            assert got == wanted, (workload, trace, got, wanted)
            print(f"ok: {workload} --trace {trace} prints {len(got)} metrics with units")


if __name__ == "__main__":
    check_acceptance_batch()
    check_corrupted_reference()
    check_metric_names()
