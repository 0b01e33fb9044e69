"""Stripping the part of the source the eavesdropper already knows.

An instance is irreducible when no edge shares a common function with the
eavesdropper (equivalently: the wiretap column space contains no nonzero
vector supported on a single edge's coordinate block).  A reducible instance
can be transformed, one edge at a time, into an irreducible one with the
same key capacity and the same leakage rate:

 * bring N_W[:, block_e] to reduced row echelon form, reading it off the
   left-null basis N_W the wiretapper keeps.  That one echelon form gives
   all three parts of the step: its null space is the common part G of
   edge e and the eavesdropper (dimension l >= 1, presented by the block
   column basis Me; see `capacity` for the overlap identity), its pivots J
   are the greedy completion of Me (the block coordinates the step
   records), and its rows map the block to a residual block of mult - l
   fresh symbols;
 * keep the columns of W at the pivots past l of [T | W_P], T = S_e Me and
   W both at the tap's pivot coordinates P, and rewrite only the edge's
   rows of those columns in the residual coordinates.

Both endpoints of e can compute G, the eavesdropper can compute G, and G is
independent of everything else, so removing it changes no rate of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import _edge_overlaps
from .falinalg import FMatrix, _mat, _null_basis_rows, _null_pivot_rows, rref
from .model import TreePinSource, Wiretapper

__all__ = [
    "ReductionError",
    "ReductionStep",
    "ReductionTrace",
    "is_irreducible",
    "reduce_full",
]


class ReductionError(ValueError):
    """The requested reduction step does not exist or leaves the model."""


@dataclass(frozen=True)
class ReductionStep:
    """Record of one edge reduction."""

    edge_id: int
    dim: int                 # dimension l of the removed common part
    edge_map: FMatrix        # mult x l basis of the common part on the block
    completion: tuple[int, ...]  # block coordinates whose unit vectors complete edge_map
    new_mult: int
    new_wiretapper: Wiretapper


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    original: tuple[TreePinSource, Wiretapper]
    final: tuple[TreePinSource, Wiretapper]


def is_irreducible(source: TreePinSource, wiretapper: Wiretapper) -> bool:
    """True when no edge has a common function with the eavesdropper."""
    return not any(_edge_overlaps(source, wiretapper))


def _reduce_step(
    source: TreePinSource, wiretapper: Wiretapper, edge_id: int
) -> tuple[TreePinSource, Wiretapper, ReductionStep]:
    """Strip the common part of one edge and the eavesdropper."""
    block = source.edge_range(edge_id)
    w = wiretapper.matrix
    # N_W[:, block] has kernel col Me, so a column is a pivot of its RREF
    # exactly when its unit vector is independent of col Me and the units
    # before it: the pivots are Me's greedy completion J.  Its rows
    # annihilate Me and are the identity at J, as only rows l.. of
    # [Me | E_J]^-1 are: they map the block to its residual coordinates.
    # Me itself is the reduced row echelon basis of that kernel, read as
    # rows, and the kernel is read off the same echelon form.
    echelon = rref(wiretapper.null_rows(block).transpose())
    j, mult = echelon.pivots, len(block)
    null_rows = _null_pivot_rows(w.ctx, echelon.matrix._codes, j, mult)
    null = _null_basis_rows(w.ctx, j, null_rows, range(mult), mult - echelon.rank)
    edge_map = rref(null.transpose()).matrix.transpose()
    l = edge_map.cols
    if l == 0:
        raise ReductionError(
            f"edge {edge_id} shares nothing with the eavesdropper"
        )
    if l == mult:
        raise ReductionError(
            f"edge {edge_id} is fully absorbed by the eavesdropper; the "
            f"reduced source would lose the edge entirely"
        )
    residual = echelon.matrix.take_rows(range(echelon.rank))

    # The common part lies in col W: S_e Me = W X, and W's columns at X's
    # greedy completion span col W together with it.  At the tap's pivot
    # coordinates P, W_P is invertible and T = (S_e Me)_P = W_P X, so unit
    # j extends col X exactly when W_P's column j extends col T: the kept
    # columns are the pivots past l of [T | W_P]; X is never formed.
    pivots = wiretapper.pivot_coords
    on_block = edge_map.to_code_rows()
    zero = [0] * l
    w_p = w.take_rows(pivots).to_code_rows()
    t_w = [(on_block[c - block.start] if c in block else zero) + row for c, row in zip(pivots, w_p)]
    kept = w.take_cols([j - l for j in rref(_mat(w.ctx, t_w, l + w.cols)).pivots[l:]])
    # with the block's rows rewritten in residual coordinates, the kept
    # columns are the eavesdropper's view of the rest
    grid = kept.to_code_rows()
    grid[block.start : block.stop] = (residual @ kept.take_rows(block)).to_code_rows()
    reduced = _mat(w.ctx, grid, kept.cols)

    new_source = source.with_multiplicity(edge_id, mult - l)
    new_wiretapper = Wiretapper(reduced)
    step = ReductionStep(
        edge_id=edge_id,
        dim=l,
        edge_map=edge_map,
        completion=j,
        new_mult=mult - l,
        new_wiretapper=new_wiretapper,
    )
    return new_source, new_wiretapper, step


def reduce_full(
    source: TreePinSource, wiretapper: Wiretapper
) -> ReductionTrace:
    """Reduce edges until the instance is irreducible.  Each step takes the
    first edge, in the order source.edges lists them, that shares something
    with the eavesdropper."""
    original = (source, wiretapper)
    steps: list[ReductionStep] = []
    while True:
        overlaps = zip(source.edges, _edge_overlaps(source, wiretapper))
        target = next((e.edge_id for e, dim in overlaps if dim), None)
        if target is None:
            break
        source, wiretapper, step = _reduce_step(source, wiretapper, target)
        steps.append(step)
    return ReductionTrace(
        steps=tuple(steps), original=original, final=(source, wiretapper)
    )
