"""Maximal common functions of jointly distributed linear sources.

For two linear functions Y1 = X M1 and Y2 = X M2 of a uniform base vector X,
the finest function computable from either observation alone is itself
linear: X Mg where col(Mg) = col(M1) intersect col(M2).  Its entropy is
dim * log2(q) bits.

For one edge e and the eavesdropper's full-column-rank matrix W there is a
cheaper route than intersecting the two column spaces.  A vector W x lies
on edge e's coordinate block exactly when the rows of W outside the block
annihilate x, so the common part is W null(W_{-e}), where W_{-e} is W
without e's rows.  Full column rank makes x -> W x injective, so the
overlap dimension is the nullity n_w - rank(W_{-e}): one elimination of a
(D - mult) x n_w matrix instead of a (mult + n_w) x 2D Zassenhaus block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .falinalg import FMatrix, col_space_intersect, right_nullspace_basis, rref
from .model import TreePinSource, Wiretapper

__all__ = ["LinearMcf", "mcf_linear", "mcf_edge_wiretap"]


@dataclass(frozen=True)
class LinearMcf:
    """A common function presented by a column basis of its functional."""

    matrix: FMatrix

    @property
    def dim(self) -> int:
        return self.matrix.cols

    @property
    def entropy_bits(self) -> float:
        return self.dim * math.log2(self.matrix.ctx.q)


def mcf_linear(m1: FMatrix, m2: FMatrix) -> LinearMcf:
    """Maximal common function of X m1 and X m2, X uniform."""
    return LinearMcf(col_space_intersect(m1, m2))


def mcf_edge_wiretap(
    source: TreePinSource, wiretapper: Wiretapper, edge_id: int
) -> LinearMcf:
    """Common part of one edge's symbols and the eavesdropper's view.

    The basis is the reduced row echelon basis of the common column space
    (read as rows), the same one mcf_linear(edge selector, W) returns.
    """
    if wiretapper.rows != source.base_dim:
        raise ValueError("wiretap matrix does not match the source dimension")
    block = source.edge_range(edge_id)
    w = wiretapper.matrix
    outside = [i for i in range(w.rows) if i not in block]
    null = right_nullspace_basis(w.take_rows(outside))
    if not null.cols:
        return LinearMcf(FMatrix.zeros(w.ctx, w.rows, 0))
    common = rref((w @ null).transpose())
    return LinearMcf(common.matrix.take_rows(range(common.rank)).transpose())
