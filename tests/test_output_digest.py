"""Byte and pivot identity of the solver on a fixed workload.

The acceptance batch (instance_gen.random_pblp, Random(1405), 200
instances, cases alternating) is solved by both interval routes and
emitted, then the bundled instances are swept.  The sha256 of the
concatenated documents pins every output byte, and the sha256 of the
repr of the (row, label) list of every simplex pivot taken after the
draw pins the pivot path.  Both hold on Python 3.10 to 3.13.

A change that moves output bytes or pivots on purpose updates the
constants below and says why in CHANGES.md.
"""

import hashlib
import random
from fractions import Fraction

from pblp import Case, Method, enumerate_breakpoints, lp_core, sweep_lambda
from pblp.cli_io import emit_solution, emit_sweep
from conftest import load_instance
from instance_gen import random_pblp

DOCUMENTS_SHA256 = "678abde767a6993fb3d0ea3b71ec30251a546f8ba78debba5626d225b65a4929"
PIVOT_COUNT = 7211
PIVOTS_SHA256 = "216c88e1e25a91b3343ef57153c089d1954a64591f8553c661ecb14b0844b88c"
SWEEPS = (("example2", 6, 60), ("example2_case1", 4, 40), ("example1", 4, 40))


def test_documents_and_pivots_are_pinned(monkeypatch):
    rng = random.Random(1405)
    batch = [random_pblp(rng, Case.ONE if i % 2 == 0 else Case.TWO) for i in range(200)]
    pivots = []
    pivot = lp_core._Tableau._pivot

    def recording_pivot(tab, r, col):
        pivots.append((r, col))
        return pivot(tab, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", recording_pivot)
    documents = [
        emit_solution(p, enumerate_breakpoints(p, method))
        for p in batch
        for method in (Method.LP, Method.ADAPTED)
    ]
    for name, lambda_max, steps in SWEEPS:
        p = load_instance(f"{name}.pblp")
        documents.append(emit_sweep(p, sweep_lambda(p, Fraction(lambda_max), steps)))
    digest = hashlib.sha256("".join(documents).encode()).hexdigest()
    assert digest == DOCUMENTS_SHA256
    assert len(pivots) == PIVOT_COUNT
    assert hashlib.sha256(repr(pivots).encode()).hexdigest() == PIVOTS_SHA256
