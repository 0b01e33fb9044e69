"""Secret key capacity and leakage rates for tree sources with a linear
eavesdropper.

All quantities are integer counts of q-ary symbols per base realisation
(`*_dims`), converted to bits by multiplying with log2(q).  The wiretap
secret key capacity is the smallest residual entropy of an edge given the
common part of that edge and the eavesdropper's view; the minimum leakage
rate for omniscience complements it against the eavesdropper-adjusted total.

Each edge's overlap with the tap comes from N_W, the left-null basis of the
tap matrix W (D x n_w, full column rank; N_W @ W = 0): col W is exactly
what N_W annihilates, so rank([W | S_e]) = n_w + rank(N_W S_e) for the
selector S_e of e's block, and the overlap is mult_e - rank(N_W[:, block_e]).
The wiretapper keeps N_W from its one elimination; an edge whose block holds
no pivot coordinate of that elimination overlaps in nothing and skips its
rank (`Wiretapper.null_rank`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .model import TreePinSource, Wiretapper

__all__ = [
    "EdgeResidual",
    "CapacityReport",
    "capacity_report",
]


def _edge_overlaps(source: TreePinSource, wiretapper: Wiretapper) -> Iterator[int]:
    """Each edge's overlap dimension with the tap, lazily, in listed order."""
    if wiretapper.rows != source.base_dim:
        raise ValueError("wiretap matrix does not match the source dimension")
    for e in source.edges:
        yield e.mult - wiretapper.null_rank(source.edge_range(e.edge_id))


@dataclass(frozen=True)
class EdgeResidual:
    """Per-edge accounting: multiplicity, common-part dimension with the
    eavesdropper, and what remains private to the edge."""

    edge_id: int
    mult: int
    mcf_dim: int

    @property
    def residual_dims(self) -> int:
        return self.mult - self.mcf_dim


@dataclass(frozen=True)
class CapacityReport:
    q: int
    base_dim: int
    wiretap_dim: int
    min_mult: int
    per_edge: tuple[EdgeResidual, ...]

    @property
    def cs_dims(self) -> int:
        """Key capacity without an eavesdropper, in q-ary symbols."""
        return self.min_mult

    @property
    def cw_dims(self) -> int:
        """Wiretap key capacity, in q-ary symbols."""
        return min(e.residual_dims for e in self.per_edge)

    @property
    def rl_dims(self) -> int:
        """Minimum omniscience leakage to the eavesdropper, in symbols."""
        return self.base_dim - self.wiretap_dim - self.cw_dims

    @property
    def rco_dims(self) -> int:
        """Minimum communication for omniscience, in symbols."""
        return self.base_dim - self.min_mult

    @property
    def argmin_edges(self) -> tuple[int, ...]:
        low = self.cw_dims
        return tuple(e.edge_id for e in self.per_edge if e.residual_dims == low)

    def _bits(self, dims: int) -> float:
        return dims * math.log2(self.q)

    @property
    def cs_bits(self) -> float:
        return self._bits(self.cs_dims)

    @property
    def cw_bits(self) -> float:
        return self._bits(self.cw_dims)

    @property
    def rl_bits(self) -> float:
        return self._bits(self.rl_dims)

    @property
    def rco_bits(self) -> float:
        return self._bits(self.rco_dims)


def capacity_report(source: TreePinSource, wiretapper: Wiretapper) -> CapacityReport:
    overlaps = _edge_overlaps(source, wiretapper)
    per_edge = tuple(
        EdgeResidual(e.edge_id, e.mult, dim) for e, dim in zip(source.edges, overlaps)
    )
    return CapacityReport(
        q=source.q,
        base_dim=source.base_dim,
        wiretap_dim=wiretapper.dim,
        min_mult=source.min_mult,
        per_edge=per_edge,
    )
