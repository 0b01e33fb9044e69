"""Secret key capacity and leakage rates for tree sources with a linear
eavesdropper.

All quantities are integer counts of q-ary symbols per base realisation
(`*_dims`), converted to bits by multiplying with log2(q).  The wiretap
secret key capacity is the smallest residual entropy of an edge given the
common part of that edge and the eavesdropper's view; the minimum leakage
rate for omniscience complements it against the eavesdropper-adjusted total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mcf import mcf_edge_wiretap
from .model import TreePinSource, Wiretapper

__all__ = [
    "EdgeResidual",
    "CapacityReport",
    "capacity_report",
]


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
    per_edge = tuple(
        EdgeResidual(
            edge_id=e.edge_id,
            mult=e.mult,
            mcf_dim=mcf_edge_wiretap(source, wiretapper, e.edge_id).dim,
        )
        for e in source.edges
    )
    return CapacityReport(
        q=source.q,
        base_dim=source.base_dim,
        wiretap_dim=wiretapper.dim,
        min_mult=source.min_mult,
        per_edge=per_edge,
    )
