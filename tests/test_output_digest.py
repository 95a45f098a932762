"""Byte and pivot identity of the solver on a fixed workload.

The acceptance batch (instance_gen.random_pblp, Random(1405), 200
instances, cases alternating) is solved by both interval routes and
emitted, then the bundled instances are swept.  The sha256 of the
concatenated documents pins every output byte, and the sha256 of the
repr of the (row, label) list of every simplex pivot taken after the
draw pins the pivot path.  Both hold on Python 3.10 to 3.13.

The degenerate family (instance_gen.degenerate_pblp, Random(7), 105
instances, cases alternating) is pinned the same way, by its documents
only: its duplicated columns, collinear images and repeated rows make
degenerate pivots, where a change of pivot rule is most likely to move
a byte.

Sweeps beyond the bundled three are pinned by their documents too: 24
acceptance records (random_pblp, Random(1405)) and 12 degenerate ones
(degenerate_pblp, Random(7)), cases alternating in each, swept to
lambda 7/3 in 14 steps.  The same 36 records' plot files, on that
grid, are pinned as well.

At scale, the large family (random_pblp, Random(7), 4 instances of
16-20 variables and up to 24 rows, cases alternating; the recipe of
bench/families._family(7, 4, 16, 20, 24)) pins its decompose and
LP-route pivot counts, each problem's Decomposition.lp_solves and
interval_lp_solves, and both methods' documents.  Each of its systems
has one or two equality rows among 6 to 21, so it also reaches the rank
reduction at a size the small families do not.

A change that moves output bytes or pivots on purpose updates the
constants below and says why in CHANGES.md.
"""

import hashlib
import random
from fractions import Fraction

from pblp import (
    Case,
    Method,
    solve_on_decomposition,
    decompose,
    emit_plot_data,
    enumerate_breakpoints,
    lp_core,
    sweep_lambda,
)
from pblp.cli_io import emit_solution, emit_sweep
from pblp.oracle import lambda_grid
from conftest import load_instance
from instance_gen import degenerate_pblp, random_pblp

DOCUMENTS_SHA256 = "678abde767a6993fb3d0ea3b71ec30251a546f8ba78debba5626d225b65a4929"
PIVOT_COUNT = 6209
PIVOTS_SHA256 = "e3cf300f52f2b795e966f76f96459d7875e4f14e1be18c1ba5f9b10ca8baea3f"
DEGENERATE_SHA256 = "0e1ae3fdda10781650b743abf720c61cbebb93146725b0c9ae49e8ca7b8fc1f5"
SWEEP_SHA256 = "8f8f68e8df1c5a6f63993d90161732441d4fe32273c64085ff40d6c01922231f"
PLOT_SHA256 = "0103b52bcb0f76c3372d97291fa0ffdbf09e242a6cd74b2663e5687352599b74"
LARGE_DECOMPOSE_PIVOTS = 3728
LARGE_LP_ROUTE_PIVOTS = 3155
LARGE_SOLVES = ((51, 102), (20, 40), (74, 148), (29, 58))
LARGE_SHA256 = "14aa7b2cba878513f1df4fe0782c5efd9709af64345e29630101ab008a9f4cde"
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


def test_degenerate_documents_are_pinned():
    rng = random.Random(7)
    family = [degenerate_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(105)]
    documents = [
        emit_solution(p, enumerate_breakpoints(p, method))
        for p in family
        for method in (Method.LP, Method.ADAPTED)
    ]
    digest = hashlib.sha256("".join(documents).encode()).hexdigest()
    assert digest == DEGENERATE_SHA256


def _sweep_family():
    rng = random.Random(1405)
    family = [random_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(24)]
    rng = random.Random(7)
    family += [degenerate_pblp(rng, (Case.ONE, Case.TWO)[i % 2]) for i in range(12)]
    return family


def test_sweep_documents_are_pinned():
    family = _sweep_family()
    documents = [
        emit_sweep(p, sweep_lambda(p, Fraction(7, 3), 14)) for p in family
    ]
    digest = hashlib.sha256("".join(documents).encode()).hexdigest()
    assert digest == SWEEP_SHA256


def test_plot_files_are_pinned():
    grid = lambda_grid(Fraction(7, 3), 14)
    documents = [emit_plot_data(decompose(p), p.case, grid) for p in _sweep_family()]
    digest = hashlib.sha256("".join(documents).encode()).hexdigest()
    assert digest == PLOT_SHA256


def test_large_family_counts_and_documents_are_pinned(monkeypatch):
    rng = random.Random(7)
    family = [
        random_pblp(rng, (Case.ONE, Case.TWO)[i % 2], min_vars=16, max_vars=20, max_rows=24)
        for i in range(4)
    ]
    pivots = [0]
    pivot = lp_core._Tableau._pivot

    def counting_pivot(tab, r, col):
        pivots[0] += 1
        return pivot(tab, r, col)

    monkeypatch.setattr(lp_core._Tableau, "_pivot", counting_pivot)
    decompose_pivots = lp_route_pivots = 0
    solves, documents = [], []
    for p in family:
        start = pivots[0]
        dec = decompose(p)
        middle = pivots[0]
        by_lp = solve_on_decomposition(p, dec, Method.LP)
        decompose_pivots += middle - start
        lp_route_pivots += pivots[0] - middle
        solves.append((dec.lp_solves, by_lp.interval_lp_solves))
        documents.append(emit_solution(p, by_lp))
        documents.append(emit_solution(p, solve_on_decomposition(p, dec, Method.ADAPTED)))
    assert decompose_pivots == LARGE_DECOMPOSE_PIVOTS
    assert lp_route_pivots == LARGE_LP_ROUTE_PIVOTS
    assert tuple(solves) == LARGE_SOLVES
    digest = hashlib.sha256("".join(documents).encode()).hexdigest()
    assert digest == LARGE_SHA256
