"""Stripping the part of the source the eavesdropper already knows.

An instance is irreducible when no edge shares a common function with the
eavesdropper (equivalently: the wiretap column space contains no nonzero
vector supported on a single edge's coordinate block).  A reducible instance
can be transformed, one edge at a time, into an irreducible one with the
same key capacity and the same leakage rate:

 * find the common part G of edge e and the eavesdropper (dimension l >= 1),
   presented by the block column basis Me;
 * complete Me to an invertible change of basis [Me | Ne] on the edge block,
   so the block splits into G (known to the eavesdropper) and a residual
   block of mult - l fresh symbols;
 * rewrite the wiretap matrix in the new coordinates, column-reduce it so
   the G rows carry an identity block, and drop those rows and columns.

Both endpoints of e can compute G, the eavesdropper can compute G, and G is
independent of everything else, so removing it changes no rate of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .falinalg import FMatrix, completion_indices, inverse, solve_right
from .mcf import mcf_edge_wiretap
from .model import TreePinSource, Wiretapper

__all__ = [
    "ReductionError",
    "ReductionStep",
    "ReductionTrace",
    "is_irreducible",
    "reduce_once",
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
    completion: FMatrix      # mult x (mult - l) basis completion
    new_mult: int
    new_wiretapper: Wiretapper


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    original: tuple[TreePinSource, Wiretapper]
    final: tuple[TreePinSource, Wiretapper]


def is_irreducible(source: TreePinSource, wiretapper: Wiretapper) -> bool:
    """True when no edge has a common function with the eavesdropper."""
    return all(
        mcf_edge_wiretap(source, wiretapper, e.edge_id).dim == 0
        for e in source.edges
    )


def _greedy_basis_completion(m: FMatrix) -> FMatrix:
    """Standard basis columns (ascending index) completing m's columns to a
    basis of the ambient space."""
    return FMatrix.basis_columns(m.ctx, m.rows, completion_indices(m))


def reduce_once(
    source: TreePinSource, wiretapper: Wiretapper, edge_id: int
) -> tuple[TreePinSource, Wiretapper, ReductionStep]:
    """Strip the common part of one edge and the eavesdropper."""
    common = mcf_edge_wiretap(source, wiretapper, edge_id)
    l = common.dim
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
    ctx = source.base_ctx
    d = source.base_dim
    n_w = wiretapper.dim

    # Basis of the common part restricted to the edge block (rows outside
    # the block are zero because the common part is a function of the edge).
    edge_map = common.matrix.take_rows(block)
    completion = _greedy_basis_completion(edge_map)
    change = edge_map.hstack(completion)          # mult x mult, invertible
    change_inv = inverse(change)

    # Rewrite the wiretap matrix in the new block coordinates.
    w = wiretapper.matrix
    new_block = change_inv @ w.take_rows(block)
    grid = w.to_code_rows()
    grid[block.start : block.stop] = new_block.to_code_rows()
    w_new = FMatrix.from_rows(ctx, grid, cols=n_w)

    # The common part's coordinates are now the first l rows of the block.
    g_rows = [block.start + k for k in range(l)]
    g_selector = FMatrix.basis_columns(ctx, d, g_rows)

    # The common part is a function of the eavesdropper's view, so the
    # selector columns lie in the column space of w_new; pivot them into the
    # leading columns.
    coeffs = solve_right(w_new, g_selector)
    if coeffs is None:
        raise AssertionError("common part not contained in the wiretap span")
    u = coeffs.hstack(_greedy_basis_completion(coeffs))
    w_pivoted = w_new @ u

    # The leading l columns are exactly the selector columns, so dropping
    # the G rows and those columns leaves the eavesdropper's view of the
    # rest.
    g_set = set(g_rows)
    reduced = FMatrix.from_rows(
        ctx,
        [row[l:] for i, row in enumerate(w_pivoted.to_code_rows()) if i not in g_set],
        cols=n_w - l,
    )

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
    """Reduce edges (ascending id) until the instance is irreducible."""
    original = (source, wiretapper)
    steps: list[ReductionStep] = []
    while True:
        target = None
        for e in source.edges:
            if mcf_edge_wiretap(source, wiretapper, e.edge_id).dim > 0:
                target = e.edge_id
                break
        if target is None:
            break
        source, wiretapper, step = reduce_once(source, wiretapper, target)
        steps.append(step)
    return ReductionTrace(
        steps=tuple(steps), original=original, final=(source, wiretapper)
    )
