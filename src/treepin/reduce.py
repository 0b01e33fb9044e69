"""Stripping the part of the source the eavesdropper already knows.

An instance is irreducible when no edge shares a common function with the
eavesdropper (equivalently: the wiretap column space contains no nonzero
vector supported on a single edge's coordinate block).  A reducible instance
can be transformed, one edge at a time, into an irreducible one with the
same key capacity and the same leakage rate:

 * find the common part G of edge e and the eavesdropper (dimension l >= 1),
   presented by the block column basis Me;
 * complete Me to an invertible change of basis [Me | E_J] on the edge
   block, E_J the unit vectors at the greedy completion J of Me (the block
   coordinates the step records), so the block splits into G (known to the
   eavesdropper) and a residual block of mult - l fresh symbols;
 * keep the columns of W at the greedy completion of X, the unique
   solution of W X = S_e Me (X says which tap columns carry G), and rewrite
   only the edge's rows of those columns in the residual coordinates.

The common part on the block is null(N_W[:, block_e]), read off the left-null
basis N_W the wiretapper keeps (see `capacity` for the overlap identity).

Both endpoints of e can compute G, the eavesdropper can compute G, and G is
independent of everything else, so removing it changes no rate of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import _edge_overlaps
from .falinalg import (
    FMatrix,
    _mat,
    completion_indices,
    inverse,
    left_nullspace_basis,
    rref,
    solve_right,
)
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


def _common_on_block(wiretapper: Wiretapper, block: range) -> FMatrix:
    """mult x l basis of the common part on the block: the reduced row
    echelon basis of null(N_W[:, block]), read as rows."""
    return rref(left_nullspace_basis(wiretapper.null_rows(block))).matrix.transpose()


def _reduce_step(
    source: TreePinSource, wiretapper: Wiretapper, edge_id: int, edge_map: FMatrix
) -> tuple[TreePinSource, Wiretapper, ReductionStep]:
    """Strip the common part of one edge and the eavesdropper, given its
    basis on the edge's block (mult x l)."""
    l = edge_map.cols
    if l == 0:
        raise ReductionError(
            f"edge {edge_id} shares nothing with the eavesdropper"
        )
    edge = source.edge(edge_id)
    if l == edge.mult:
        raise ReductionError(
            f"edge {edge_id} is fully absorbed by the eavesdropper; the "
            f"reduced source would lose the edge entirely"
        )
    block = source.edge_range(edge_id)
    w = wiretapper.matrix

    completion = completion_indices(edge_map)
    # rows l.. of the inverse change of basis [Me | E_J], J the completion,
    # map the block to its residual coordinates
    change = edge_map.hstack(FMatrix.basis_columns(edge_map.ctx, edge.mult, completion))
    residual = inverse(change).take_rows(range(l, edge.mult))

    # The common part is a function of the eavesdropper's view: X with
    # W X = S_e Me exists and is unique, since W has full column rank, so it
    # is solved on the tap's pivot coordinates, where W is square and
    # invertible.
    pivots = wiretapper.pivot_coords
    on_block = edge_map.to_code_rows()
    zero = [0] * l
    target = [on_block[c - block.start] if c in block else zero for c in pivots]
    x = solve_right(w.take_rows(pivots), _mat(w.ctx, target, l))

    # [X | E_J] is invertible for X's greedy completion J, so W's columns at
    # J and the common part S_e Me span col W together: with the block's
    # rows rewritten in residual coordinates, they are the eavesdropper's
    # view of the rest.
    kept = w.take_cols(completion_indices(x))
    grid = kept.to_code_rows()
    grid[block.start : block.stop] = (residual @ kept.take_rows(block)).to_code_rows()
    reduced = _mat(w.ctx, grid, kept.cols)

    new_source = source.with_multiplicity(edge_id, edge.mult - l)
    new_wiretapper = Wiretapper(reduced)
    step = ReductionStep(
        edge_id=edge_id,
        dim=l,
        edge_map=edge_map,
        completion=completion,
        new_mult=edge.mult - l,
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
        edge_map = _common_on_block(wiretapper, source.edge_range(target))
        source, wiretapper, step = _reduce_step(source, wiretapper, target, edge_map)
        steps.append(step)
    return ReductionTrace(
        steps=tuple(steps), original=original, final=(source, wiretapper)
    )
