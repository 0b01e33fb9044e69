"""Maximal common functions of jointly distributed linear sources.

For two linear functions Y1 = X M1 and Y2 = X M2 of a uniform base vector X,
the finest function computable from either observation alone is itself
linear: X Mg where col(Mg) = col(M1) intersect col(M2).  Its entropy is
dim * log2(q) bits.

For one edge e and the eavesdropper's matrix W (D x n_w, full column rank)
take N_W, the left-null basis of W ((D - n_w) x D): col W is exactly what
N_W annihilates, so rank([W | S_e]) = n_w + rank(N_W S_e) for the selector
S_e of e's block.  The overlap is then mult_e - rank(N_W[:, block_e]) and
the common part is S_e null(N_W[:, block_e]).  N_W is computed once per
Wiretapper, when it is built, and read transposed, so an edge's part of it
is a slice of rows.

N_W^T comes from one forward elimination of W^T: its rows at the free
(non-pivot) coordinates of that elimination are distinct unit vectors, so
the Wiretapper keeps only its rows at the pivot coordinates (n_w of them)
and builds an edge's rows on demand.  An edge whose block holds no pivot
coordinate has a block of rank mult_e and overlaps the tap in nothing, so
`Wiretapper.null_rank` ranks only the blocks that hold a pivot (at most
n_w of them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .falinalg import FMatrix, left_nullspace_basis, rref
from .model import TreePinSource, Wiretapper

__all__ = ["LinearMcf", "mcf_edge_wiretap"]


@dataclass(frozen=True)
class LinearMcf:
    """A common function presented by a column basis of its functional."""

    matrix: FMatrix

    @property
    def dim(self) -> int:
        return self.matrix.cols


def _check_tap(source: TreePinSource, wiretapper: Wiretapper) -> None:
    if wiretapper.rows != source.base_dim:
        raise ValueError("wiretap matrix does not match the source dimension")


def _edge_overlaps(source: TreePinSource, wiretapper: Wiretapper) -> Iterator[int]:
    """Each edge's overlap dimension with the tap, lazily, in listed order."""
    _check_tap(source, wiretapper)
    for e in source.edges:
        yield e.mult - wiretapper.null_rank(source.edge_range(e.edge_id))


def _common_on_block(wiretapper: Wiretapper, block: range) -> FMatrix:
    """mult x l basis of the common part on the block: the reduced row
    echelon basis of null(N_W[:, block]), read as rows."""
    return rref(left_nullspace_basis(wiretapper.null_rows(block))).matrix.transpose()


def mcf_edge_wiretap(
    source: TreePinSource, wiretapper: Wiretapper, edge_id: int
) -> LinearMcf:
    """Common part of one edge's symbols and the eavesdropper's view.

    The basis is the reduced row echelon basis of the common column space
    (read as rows), the same one col_space_intersect(edge selector, W)
    returns.
    """
    _check_tap(source, wiretapper)
    on_block = _common_on_block(wiretapper, source.edge_range(edge_id))
    return LinearMcf(source.edge_block_selector(edge_id) @ on_block)
