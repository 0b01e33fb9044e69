"""Kernel probes: falinalg and gfield timed on one workload's own shapes.

Each workload hands over one elimination matrix, one matmul pair, one
full-column-rank matrix, one intersection pair and one field, all built
from its first instance.  Work counts next to the timings are computed from
the shapes (rows * cols * rank cells, rows * inner * cols multiply-
accumulates), not measured inside the program.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from treepin import FMatrix
from treepin.falinalg import col_space_intersect, left_inverse, rank, rref
from treepin.gfield import ExtFieldCtx


@dataclass
class ProbeMaterial:
    elim: FMatrix                    # rank / rref
    matmul: tuple[FMatrix, FMatrix]
    left_inv: FMatrix                # full column rank
    intersect: tuple[FMatrix, FMatrix]
    field: ExtFieldCtx
    label: str                       # what the matrices are, for the report


def _median_call(fn, min_total: float = 0.15, min_reps: int = 3, max_reps: int = 200) -> float:
    times = []
    total = 0.0
    while len(times) < min_reps or (total < min_total and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        times.append(dt)
        total += dt
    return statistics.median(times)


def _ns_per_op(op, pairs, reps: int = 5) -> float:
    samples = []
    for _ in range(reps):
        t = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        samples.append((time.perf_counter() - t) / len(pairs) * 1e9)
    return statistics.median(samples)


def run_probes(mat: ProbeMaterial) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Returns ({metric: (value, unit)}, report lines)."""
    m = mat.elim
    r = rank(m)
    cells = m.rows * m.cols * max(r, 1)
    rank_s = _median_call(lambda: rank(m))
    rref_s = _median_call(lambda: rref(m))
    a, b = mat.matmul
    macs = a.rows * a.cols * b.cols
    matmul_s = _median_call(lambda: a @ b)
    linv_s = _median_call(lambda: left_inverse(mat.left_inv))
    x, y = mat.intersect
    inter_s = _median_call(lambda: col_space_intersect(x, y))

    ctx = mat.field
    rng = random.Random(0)
    pairs = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order)) for _ in range(20000)]
    mul_ns = _ns_per_op(ctx.mul_code, pairs)
    add_ns = _ns_per_op(ctx.add_code, pairs)

    # a fresh context for the same field: table construction without the cache
    make_s = _median_call(lambda: ExtFieldCtx(ctx.q, ctx.n, ctx.modulus), min_total=0.05)
    metrics = {
        "falinalg.rank.ns_per_cell": (rank_s / cells * 1e9, "ns"),
        "falinalg.rref.ns_per_cell": (rref_s / cells * 1e9, "ns"),
        "falinalg.matmul.ns_per_mac": (matmul_s / max(macs, 1) * 1e9, "ns"),
        "falinalg.left_inverse.busy_s": (linv_s, "s"),
        "falinalg.col_space_intersect.busy_s": (inter_s, "s"),
        "falinalg.cells": (cells, "count"),
        "gfield.mul_code.ns": (mul_ns, "ns"),
        "gfield.add_code.ns": (add_ns, "ns"),
        "gfield.make_ext_field.busy_s": (make_s, "s"),
    }
    lines = [
        f"probe material: {mat.label}",
        f"probe field: GF({ctx.q}^{ctx.n}), order {ctx.order}",
        f"probe rank/rref: {m.rows}x{m.cols}, rank {r}, computed cells rows*cols*rank = {cells}",
        f"probe matmul: {a.rows}x{a.cols} @ {b.rows}x{b.cols}, computed MACs = {macs}",
        f"probe left_inverse: {mat.left_inv.rows}x{mat.left_inv.cols}",
        f"probe col_space_intersect: {x.rows}x{x.cols} and {y.rows}x{y.cols}",
        "probe mul_code/add_code: ns per call including the Python loop, 20000 nonzero pairs",
        "probe make_ext_field: one uncached ExtFieldCtx construction for the probe field",
    ]
    return metrics, lines

