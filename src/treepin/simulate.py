"""Monte Carlo execution of a communication scheme on sampled blocks.

Each trial draws one block vector (base_dim symbols of GF(q**n), i.e. n
base realisations per coordinate), broadcasts the communication, lets every
node decode the full vector from the communication plus its own coordinates,
extracts the key, and replays the eavesdropper's side: its observation and,
when the scheme is aligned, the reconstruction of that observation from the
public communication alone.

The trial loop works on integer element codes with the field context's
bound operations; matrices are flattened to code rows up front.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .falinalg import FMatrix, left_inverse, lift, rank, solve_right
from .gfield import ExtFieldCtx, FieldElem
from .model import TreePinSource, Wiretapper
from .scheme import CommScheme

__all__ = ["SimulationError", "SimReport", "sample_block", "run_protocol"]


class SimulationError(RuntimeError):
    """The scheme cannot be executed on this source at all."""


def sample_block(rng: random.Random, ctx: ExtFieldCtx, dim: int) -> list[FieldElem]:
    """One uniform block vector."""
    return [ctx(rng.randrange(ctx.order)) for _ in range(dim)]


@dataclass(frozen=True)
class SimReport:
    trials: int
    block_len: int
    decode_failures: int
    key_mismatches: int
    wiretap_predictable: bool
    wiretap_mispredictions: int
    eavesdropper_unknown_dims: int
    key_counts: dict[tuple[int, ...], int]

    @property
    def perfect(self) -> bool:
        return (
            self.decode_failures == 0
            and self.key_mismatches == 0
            and (not self.wiretap_predictable or self.wiretap_mispredictions == 0)
        )


def _sparse_cols(m: FMatrix) -> list[list[tuple[int, int]]]:
    rows = m.to_code_rows()
    return [
        [(i, rows[i][j]) for i in range(m.rows) if rows[i][j]]
        for j in range(m.cols)
    ]


def run_protocol(
    scheme: CommScheme,
    source: TreePinSource,
    wiretapper: Wiretapper,
    seed: int,
    trials: int = 32,
) -> SimReport:
    """Run the protocol `trials` times and tally every mismatch."""
    if scheme.key is None:
        raise SimulationError("scheme has no key extractor")
    ext = scheme.ext_ctx
    d = source.base_dim
    f = scheme.comm_matrix
    if f.rows != d:
        raise SimulationError("scheme does not match the source")
    scheme.check_owners(source)
    add = ext.add_code
    mul = ext.mul_code

    comm_cols = _sparse_cols(f)

    # per-node decoders: known = (communication, own coordinates); the
    # decoder T satisfies [F | selector] @ T^T = I, so x = T applied to known
    decoders = []
    for v in range(source.vertex_count):
        coords = source.node_view(v).coords
        m = f.hstack(source.node_view(v).selector(ext))
        if rank(m) != d:
            raise SimulationError(
                f"node {v} cannot reach omniscience with this scheme"
            )
        dec = left_inverse(m.transpose())
        decoders.append((coords, dec.to_code_rows()))

    key_rows = scheme.key.matrix.to_code_rows()
    key_cols = range(scheme.key.matrix.cols)

    wl = lift(wiretapper.matrix, ext)
    wiretap_cols = _sparse_cols(wl)
    recon = solve_right(f, wl)
    recon_rows = recon.to_code_rows() if recon is not None else None
    unknown_dims = d - rank(f.hstack(wl))

    rng = random.Random(seed)
    order = ext.order
    decode_failures = 0
    key_mismatches = 0
    mispredictions = 0
    key_counts: dict[tuple[int, ...], int] = {}

    for _ in range(trials):
        x = [rng.randrange(order) for _ in range(d)]

        comm = [_sparse_dot(x, col, add, mul) for col in comm_cols]

        key_true = tuple(
            _col_dot(x, key_rows, j, add, mul) for j in key_cols
        )
        key_counts[key_true] = key_counts.get(key_true, 0) + 1

        for coords, dec in decoders:
            known = comm + [x[c] for c in coords]
            recovered = [_row_dot(dec[r], known, add, mul) for r in range(d)]
            if recovered != x:
                decode_failures += 1
                continue
            key_here = tuple(
                _col_dot(recovered, key_rows, j, add, mul) for j in key_cols
            )
            if key_here != key_true:
                key_mismatches += 1

        z = [_sparse_dot(x, col, add, mul) for col in wiretap_cols]
        if recon_rows is not None and wiretap_cols:
            z_pred = [
                _col_dot(comm, recon_rows, j, add, mul)
                for j in range(len(wiretap_cols))
            ]
            if z_pred != z:
                mispredictions += 1

    return SimReport(
        trials=trials,
        block_len=ext.n,
        decode_failures=decode_failures,
        key_mismatches=key_mismatches,
        wiretap_predictable=recon is not None,
        wiretap_mispredictions=mispredictions,
        eavesdropper_unknown_dims=unknown_dims,
        key_counts=key_counts,
    )


def _sparse_dot(vec, col, add, mul):
    acc = 0
    for i, c in col:
        acc = add(acc, mul(vec[i], c))
    return acc


def _col_dot(vec, rows, j, add, mul):
    acc = 0
    for i, code in enumerate(vec):
        c = rows[i][j]
        if c and code:
            acc = add(acc, mul(code, c))
    return acc


def _row_dot(row, vec, add, mul):
    acc = 0
    for k, c in enumerate(row):
        if c:
            acc = add(acc, mul(vec[k], c))
    return acc
