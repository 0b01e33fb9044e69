"""Independent checks of a communication scheme against a source model.

Everything here works from the communication matrix, the owner list and the
key columns alone; synthesis byproducts such as the certificate are never
consulted, so these checks are meaningful for hand-written schemes too.

All quantities are ranks over the extension field GF(q**n), i.e. symbol
counts per block of n base realisations.  One symbol dimension corresponds
to n*log2(q) bits per block, or log2(q) bits per realisation.

Every check rests on one elimination of the communication matrix F
(d x c).  The rows of N = left_nullspace_basis(F) (k x d, N @ F = 0,
k = d - rank F) give, for any X with d rows,

    rank([F | X]) = rank F + rank(N @ X),

so with W the lifted tap and K the key columns:

 * node v is omniscient  iff  N restricted to v's coordinates has rank k;
 * the scheme is aligned  iff  N @ W = 0;
 * leakage dims = rank([F | W]) - n_w = (d - k) + rank(N @ W) - n_w;
 * the key is secret  iff  rank([N @ W | N @ K]) = rank(N @ W) + s.

Per node only a k-row slice of N is left to eliminate (k = s on a
scheme that passes `CommScheme.validate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import capacity_report
from .falinalg import FMatrix, left_nullspace_basis, lift, rank
from .model import TreePinSource, Wiretapper
from .scheme import CommScheme

__all__ = [
    "check_perfect_omniscience",
    "check_perfect_alignment",
    "leakage_symbol_dims",
    "leakage_bits_per_realization",
    "check_key_secrecy",
    "VerifyReport",
    "verify_scheme",
]


def _tap_image(null: FMatrix, wiretapper: Wiretapper) -> FMatrix:
    """N @ W_lifted (k x n_w): what is left of the tap once col F is
    factored out."""
    if wiretapper.dim == 0:
        return FMatrix.zeros(null.ctx, null.rows, 0)
    return null @ lift(wiretapper.matrix, null.ctx)


def _omniscience(null: FMatrix, source: TreePinSource) -> dict[int, bool]:
    if null.cols != source.base_dim:
        raise ValueError("scheme does not match the source")
    return {
        v: rank(null.take_cols(source.node_view(v).coords)) == null.rows
        for v in range(source.vertex_count)
    }


def _leakage_dims(null: FMatrix, tap: FMatrix) -> int:
    return null.cols - null.rows + rank(tap) - tap.cols


def _key_secret(scheme: CommScheme, null: FMatrix, tap: FMatrix) -> bool:
    if scheme.key is None:
        return False
    return rank(tap.hstack(null @ scheme.key.matrix)) == rank(tap) + scheme.s


def check_perfect_omniscience(
    scheme: CommScheme, source: TreePinSource
) -> dict[int, bool]:
    """Can every node reconstruct the whole block vector from the
    communication plus its own observation?  True per node iff the
    communication columns and the node's coordinate selectors span
    everything, i.e. iff N restricted to the node's coordinates has
    full row rank."""
    return _omniscience(left_nullspace_basis(scheme.comm_matrix), source)


def check_perfect_alignment(scheme: CommScheme, wiretapper: Wiretapper) -> bool:
    """Does the eavesdropper's view lie inside the communication span?
    When it does, listening to the channel tells the eavesdropper nothing
    it could not already compute."""
    null = left_nullspace_basis(scheme.comm_matrix)
    return _tap_image(null, wiretapper).is_zero()


def leakage_symbol_dims(scheme: CommScheme, wiretapper: Wiretapper) -> int:
    """Extension-field dimensions the communication reveals beyond what the
    eavesdropper already observes: rank([F | W]) - rank(W)."""
    null = left_nullspace_basis(scheme.comm_matrix)
    return _leakage_dims(null, _tap_image(null, wiretapper))


def leakage_bits_per_realization(
    scheme: CommScheme, wiretapper: Wiretapper
) -> float:
    return leakage_symbol_dims(scheme, wiretapper) * math.log2(scheme.ext_ctx.q)


def check_key_secrecy(scheme: CommScheme, wiretapper: Wiretapper) -> bool:
    """Is the key independent of communication and wiretap view combined?
    Holds iff the key columns add full extra rank on top of [F | W]."""
    null = left_nullspace_basis(scheme.comm_matrix)
    return _key_secret(scheme, null, _tap_image(null, wiretapper))


@dataclass(frozen=True)
class VerifyReport:
    omniscient: dict[int, bool]
    aligned: bool
    key_secret: bool
    leakage_dims: int
    optimal_leakage_dims: int
    key_dims: int
    optimal_key_dims: int

    @property
    def leakage_optimal(self) -> bool:
        return self.leakage_dims == self.optimal_leakage_dims

    @property
    def all_pass(self) -> bool:
        return (
            all(self.omniscient.values())
            and self.aligned
            and self.key_secret
            and self.leakage_optimal
        )


def verify_scheme(
    scheme: CommScheme, source: TreePinSource, wiretapper: Wiretapper
) -> VerifyReport:
    """Full audit: omniscience at every node, wiretap alignment, key
    secrecy, and leakage matched against the minimum achievable."""
    return _verify(scheme, source, wiretapper, left_nullspace_basis(scheme.comm_matrix))


def _verify(scheme: CommScheme, source: TreePinSource, wiretapper: Wiretapper, null: FMatrix) -> VerifyReport:
    """verify_scheme, given N = left_nullspace_basis(F)."""
    report = capacity_report(source, wiretapper)
    tap = _tap_image(null, wiretapper)
    return VerifyReport(
        omniscient=_omniscience(null, source),
        aligned=tap.is_zero(),
        key_secret=_key_secret(scheme, null, tap),
        leakage_dims=_leakage_dims(null, tap),
        optimal_leakage_dims=report.rl_dims,
        key_dims=scheme.s if scheme.key is not None else 0,
        optimal_key_dims=report.cw_dims,
    )
