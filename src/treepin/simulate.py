"""Monte Carlo execution of a communication scheme on sampled blocks.

Each trial draws one block vector (base_dim symbols of GF(q**n), i.e. n
base realisations per coordinate), broadcasts the communication, lets every
node decode the full vector from the communication plus its own coordinates,
extracts the key, and replays the eavesdropper's side: its observation and,
when the scheme is aligned, the reconstruction of that observation from the
public communication alone.

Decoding rests on one elimination of the communication matrix F (d x c):
`falinalg._left_null_and_ginverse` reduces [F^T | I_c] once and returns
N (k x d, the rows spanning {y : y @ F = 0}, k = d - rank F) and a
generalized inverse L (c x d, F @ L @ F = F).  The broadcast comm = x @ F
fixes x up to the row span of N, and x0 = comm @ L is one such vector,
computed once per batch for every node.  Node v sees x_v (its own
coordinates) and recovers

    x = x0 + ((x_v - x0_v) @ R_v) @ N,

where R_v is a right inverse of N restricted to v's coordinates.  R_v
exists iff that k-row slice has full row rank, which is exactly when v can
reach omniscience (rank([F | selector_v]) = rank F + rank(N @ selector_v));
it comes from an elimination of at most |coords_v| x k entries.  The same
N and L serve the eavesdropper's replay: the tap W is predictable from the
communication iff N @ W = 0, L @ W then reconstructs it, and
d - rank([F | W]) = k - rank(N @ W) dimensions stay unknown to it.

Trials run in batches of up to _CHUNK rows.  The draws of a batch become
a rows x (base_dim * n) array of base-q digits, and every linear map (the
communication, L, each node's R_v, N, the key, the lifted tap and the
reconstruction) is applied to the whole batch as its F_q realisation
(`falinalg.expand_to_base`): one integer matrix product reduced mod q.
Running GF(q**n) maps as F_q-linear maps on digit arrays is how the galois
package (https://github.com/mhostetter/galois) vectorises extension-field
arithmetic.  Arrays are int64 while every inner product fits (small q),
Python-int object arrays above that.  The draws are the same
`randrange(order)` calls, trial by trial, as a loop over single trials
would make, so the tallies and the order of `key_counts` do not depend on
the batching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .falinalg import (
    _expand,
    _from_digits,
    _int_dtype,
    _left_null_and_ginverse,
    _to_digits,
    left_inverse,
    lift,
    rank,
)
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


# Trials per batch: bounds every digit array at _CHUNK x (base_dim + cols) * n.
_CHUNK = 1024


def run_protocol(
    scheme: CommScheme,
    source: TreePinSource,
    wiretapper: Wiretapper,
    seed: int,
    trials: int = 32,
) -> SimReport:
    """Run the protocol `trials` times and tally every mismatch."""
    if trials < 0:
        raise SimulationError(f"trials must be non-negative, got {trials}")
    if scheme.key is None:
        raise SimulationError("scheme has no key extractor")
    ext = scheme.ext_ctx
    q, n = ext.q, ext.n
    d = source.base_dim
    f = scheme.comm_matrix
    if f.rows != d:
        raise SimulationError("scheme does not match the source")
    scheme.check_owners(source)

    # One elimination of F serves every node (see the module docstring):
    # node v recovers x = x0 + ((x_v - x0_v) @ R_v) @ N, with x0 = comm @ L
    # shared by all nodes and R_v a right inverse of N's columns at v's
    # coordinates, which exists iff v can decode.
    null, ginv = _left_null_and_ginverse(f)
    dtype = _int_dtype(ext, (d + f.cols) * n)
    decoders = []
    for v in range(source.vertex_count):
        coords = source.node_view(v).coords
        try:
            right_inv = left_inverse(null.take_cols(coords).transpose())
        except ValueError:
            raise SimulationError(
                f"node {v} cannot reach omniscience with this scheme"
            ) from None
        digit_cols = np.array(
            [c * n + k for c in coords for k in range(n)], dtype=np.intp
        )
        decoders.append((digit_cols, _expand(right_inv.transpose(), dtype)))

    wl = lift(wiretapper.matrix, ext)
    tap = null @ wl
    recon = ginv @ wl if tap.is_zero() else None
    unknown_dims = null.rows - rank(tap)

    comm_map = _expand(f, dtype)
    ginv_map = _expand(ginv, dtype)
    null_map = _expand(null, dtype)
    key_map = _expand(scheme.key.matrix, dtype)
    # the tap is replayed only for an aligned scheme with a nonempty tap
    wiretap_map = recon_map = None
    if recon is not None and wl.cols:
        wiretap_map, recon_map = _expand(wl, dtype), _expand(recon, dtype)

    rng = random.Random(seed)
    randrange, order = rng.randrange, ext.order
    decode_failures = 0
    key_mismatches = 0
    mispredictions = 0
    key_counts: dict[tuple[int, ...], int] = {}

    for start in range(0, trials, _CHUNK):
        rows = min(_CHUNK, trials - start)
        codes = np.array([randrange(order) for _ in range(rows * d)], dtype=dtype)
        x = _to_digits(codes.reshape(rows, d), ext)
        comm = x @ comm_map % q
        key_true = x @ key_map % q
        for key in map(tuple, _from_digits(key_true, ext).tolist()):
            key_counts[key] = key_counts.get(key, 0) + 1

        x0 = comm @ ginv_map % q
        for digit_cols, right_inv in decoders:
            y = (x[:, digit_cols] - x0[:, digit_cols]) @ right_inv % q
            recovered = (x0 + y @ null_map) % q
            decoded = (recovered == x).all(axis=1)
            decode_failures += rows - int(np.count_nonzero(decoded))
            key_here = recovered[decoded] @ key_map % q
            key_mismatches += int(
                np.count_nonzero((key_here != key_true[decoded]).any(axis=1))
            )

        if recon_map is not None:
            z = x @ wiretap_map % q
            z_pred = comm @ recon_map % q
            mispredictions += int(np.count_nonzero((z_pred != z).any(axis=1)))

    return SimReport(
        trials=trials,
        block_len=n,
        decode_failures=decode_failures,
        key_mismatches=key_mismatches,
        wiretap_predictable=recon is not None,
        wiretap_mispredictions=mispredictions,
        eavesdropper_unknown_dims=unknown_dims,
        key_counts=key_counts,
    )
