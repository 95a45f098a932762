"""The benchmark's self-test, run the way the benchmark is run.

bench/run.py traces the layers from outside, by wrapping module
attributes, and refuses to report when a traced layer recorded no calls.
So a decomposition that stops going through wsd.find_extreme_image, or a
lexicographic solve that stops going through lp_core.solve_lex_lp,
fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert run.returncode == 0, run.stdout + run.stderr
