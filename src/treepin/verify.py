"""Independent checks of a communication scheme against a source model.

Everything here works from the communication matrix and the key
coordinates alone, what a scheme file carries, so these checks are
meaningful for hand-written schemes too.  The owner list is not read: that each column is
computable by its owner is checked by `CommScheme.check_owners`, which
`CommScheme.validate` (and so every CLI command) runs first.

All quantities are ranks over the extension field GF(q**n), i.e. symbol
counts per block of n base realisations.  One symbol dimension corresponds
to n*log2(q) bits per block, or log2(q) bits per realisation.

Every check rests on one elimination of the communication matrix F
(d x c).  The rows of N (k x d, N @ F = 0, k = d - rank F) give, for any
X with d rows,

    rank([F | X]) = rank F + rank(N @ X),

so with W the lifted tap and K the unit vectors at the key coordinates
(N @ K is N's columns there):

 * node v is omniscient  iff  N restricted to v's coordinates has rank k;
 * the scheme is aligned  iff  N @ W = 0;
 * leakage dims = rank([F | W]) - n_w = (d - k) + rank(N @ W) - n_w;
 * the key is secret  iff  rank([N @ W | N @ K]) = rank(N @ W) + s.

Per node only a k-row slice of N is left to eliminate (k = s on a
scheme that passes `CommScheme.validate`).  N lives on the scheme
(`CommScheme.null`, left_nullspace_basis(F)) and is built once per
communication matrix, so `validate` and `verify_scheme` on one scheme
share a single elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import capacity_report
from .falinalg import FMatrix, lift, rank
from .model import TreePinSource, Wiretapper
from .scheme import CommScheme

__all__ = ["leakage_symbol_dims", "VerifyReport", "verify_scheme"]


def _tap_image(null: FMatrix, wiretapper: Wiretapper) -> FMatrix:
    """N @ W_lifted (k x n_w): what is left of the tap once col F is
    factored out."""
    return null @ lift(wiretapper.matrix, null.ctx)


def _check_rows(scheme: CommScheme, base_dim: int) -> None:
    """Refuse a scheme whose F has the wrong row count before N is built."""
    if scheme.base_dim != base_dim:
        raise ValueError("scheme does not match the source")


def _omniscience(null: FMatrix, source: TreePinSource) -> dict[int, bool]:
    return {
        v: rank(null.take_cols(source.node_view(v).coords)) == null.rows
        for v in range(source.vertex_count)
    }


def _leakage_dims(null: FMatrix, tap: FMatrix, tap_rank: int) -> int:
    """(d - k) + rank(N @ W) - n_w, with tap = N @ W of rank tap_rank."""
    return null.cols - null.rows + tap_rank - tap.cols


def _key_secret(scheme: CommScheme, null: FMatrix, tap: FMatrix, tap_rank: int) -> bool:
    if scheme.key is None:
        return False
    return rank(tap.hstack(null.take_cols(scheme.key))) == tap_rank + scheme.s


def leakage_symbol_dims(scheme: CommScheme, wiretapper: Wiretapper) -> int:
    """Extension-field dimensions the communication reveals beyond what the
    eavesdropper already observes: rank([F | W]) - rank(W)."""
    _check_rows(scheme, wiretapper.rows)
    null = scheme.null
    tap = _tap_image(null, wiretapper)
    return _leakage_dims(null, tap, rank(tap))


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
    _check_rows(scheme, source.base_dim)
    report = capacity_report(source, wiretapper)
    null = scheme.null
    tap = _tap_image(null, wiretapper)
    tap_rank = rank(tap)  # once, for the leakage and the key's secrecy
    return VerifyReport(
        omniscient=_omniscience(null, source),
        aligned=tap.is_zero(),
        key_secret=_key_secret(scheme, null, tap, tap_rank),
        leakage_dims=_leakage_dims(null, tap, tap_rank),
        optimal_leakage_dims=report.rl_dims,
        key_dims=scheme.s if scheme.key is not None else 0,
        optimal_key_dims=report.cw_dims,
    )
