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

Trials run in batches of up to _CHUNK, and each batch is a fixed number
of array operations, whatever the vertex count.  A batch holds its trials
as columns: the maps act from the left as transposed views, which BLAS
takes as they are, and every gather below takes whole rows.  Every linear
map is applied to the whole batch as its F_q realisation
(`falinalg.expand_to_base`): one matrix product of digit arrays reduced
mod q.  Running GF(q**n) maps as F_q-linear maps on digit arrays is how
the galois package (https://github.com/mhostetter/galois) vectorises
extension-field arithmetic.  Every map a run uses ([F | W], L, N and the
stacked R_v) comes out of one expansion: one digit product over the
entries of all four (`falinalg._expand`).

The arrays are float64, where numpy multiplies through BLAS, whenever
that is exact: every code fits 2**53 (order <= 2**53), and every sum a
batch forms stays below 2**53.  No product has an inner dimension above
(d + c)*n, and the one negative array, x - comm @ L, goes down to
-(q-1)**2 * c*n, whose reduction needs q-1 more (`falinalg._floor_mod`);
the bound checked, (q-1)**2 * ((d + c)*n + 1) < 2**53
(`falinalg._exact_f64`), covers both.  Each product
is then reduced in place as x - q*floor(x/q) by `falinalg._floor_mod`, the
kernel the exhaustive oracles share.  Past the bound the arrays are int64
while every sum fits 2**63 (`falinalg._int_dtype`), and Python-int object
arrays above that, each reduced by `%`.  A batch runs:

- Draws.  They are the values `randrange(order)` returns, in order, so the
  tallies and the order of `key_counts` do not depend on the batching.  For
  an order of at most 32 bits randrange keeps the top order.bit_length()
  bits of one MT19937 word and draws again while the value is >= order.
  getrandbits(32 * m) returns m such words, lowest first, so one call, one
  shift and one filter give a batch of draws; accepted values past the
  batch wait in a buffer for the next one.  Wider orders (only a prime
  field above 2**32 has one) call randrange once per value.  On the
  float64 route with an order of at most _DIGIT_TABLE, the draws index a
  float64 (order, n) table of every code's digits (`_digit_table`, shared
  by every run over the field), so one lookup gives the batch's digit
  array; otherwise `falinalg._to_digits` splits the codes.
- Keys.  The key is x at the key coordinates, so it is read off the
  batch's codes, before they become digits, and tallied as tuples of
  Python ints with a Counter, which keeps first-seen order.
- One product of the digits x with F gives comm.
- Decoders, stacked.  e = x - x0 = (x - comm @ L) mod q.  Node v's digit
  rows are padded to the widest view into one (V, w*n) index array, and
  its R_v, padded with zero rows and transposed, into one (V, k*n, w*n)
  array, so one batched product of R with the gathered digits of e is
  every node's y_v at once.
- Decode check.  N is the identity at the free coordinates of the
  elimination; let a be the digits of e there.  x0 + y_v @ N = x means
  y_v @ N = e, and at the free coordinates y_v @ N is y_v itself, so node v
  decodes iff y_v = a and a @ N = e (mod q): one (d*n) x trials check for
  all nodes.
- Key mismatches.  A node that decodes holds x itself, and so the key at
  its coordinates, so `key_mismatches` is 0 by construction; the field
  stays in SimReport because the CLI prints it.  The per-trial referee in
  tests/test_simulate.py still computes it from each decoded vector.
- Tap replay.  The prediction comm @ (L @ W) equals x0 @ W, so it misses
  the observation x @ W iff e @ W != 0.

numpy is imported inside the functions that build arrays (`_digit_table`,
`_code_draws` and `run_protocol`), not with the module: the CLI imports
this module for every command, and only `simulate` needs numpy.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .falinalg import (
    _EXACT,
    _exact_f64,
    _expand,
    _floor_mod,
    _int_dtype,
    _left_null_and_ginverse,
    _mat,
    _to_digits,
    left_inverse,
    lift,
    rank,
)
from .gfield import ExtFieldCtx
from .model import TreePinSource, Wiretapper
from .scheme import CommScheme, _check_key

__all__ = ["SimulationError", "SimReport", "run_protocol"]

if TYPE_CHECKING:
    import numpy as np


class SimulationError(RuntimeError):
    """The scheme cannot be executed on this source at all."""


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


# Trials per batch: bounds every digit array at _CHUNK x (base_dim + cols) * n
# entries, and the stacked decoder gather at _CHUNK x vertex_count x w * n.
_CHUNK = 1024

# Largest order whose draws take their digits from a table: beyond it a
# batch draws fewer codes than the table would hold
_DIGIT_TABLE = 2**16


@functools.lru_cache(maxsize=8)
def _digit_table(ctx: ExtFieldCtx) -> np.ndarray:
    """(order, n) float64 array whose row c holds the digits of code c; runs
    over one field share it, so it is read-only."""
    import numpy as np

    table = _to_digits(np.arange(ctx.order).reshape(-1, 1), ctx).astype(np.float64)
    table.setflags(write=False)
    return table


def _code_draws(rng: random.Random, order: int, dtype):
    """draw(count): the next `count` values of rng.randrange(order), as a
    dtype array.  Up to 32 bits, randrange's rule (top bits of one MT19937
    word, rejected while >= order) runs on whole words from getrandbits;
    the module docstring has the details.  The filter is needed for a
    power of two as well: randrange(2**m) reads m + 1 bits
    (order.bit_length()) and draws again on about half of the values."""
    import numpy as np

    shift = 32 - order.bit_length()
    if shift < 0:
        randrange = rng.randrange

        def draw(count: int) -> np.ndarray:
            return np.array([randrange(order) for _ in range(count)], dtype=dtype)

        return draw

    getrandbits = rng.getrandbits
    accept = order / 2 ** order.bit_length()   # at least 1/2
    left = np.empty(0, dtype=np.uint32)

    def draw(count: int) -> np.ndarray:
        nonlocal left
        while len(left) < count:
            words = int((count - len(left)) / accept) + 16
            raw = getrandbits(32 * words).to_bytes(4 * words, "little")
            values = np.frombuffer(raw, "<u4") >> shift
            left = np.concatenate([left, values[values < order]])
        out, left = left[:count], left[count:]
        return out.astype(dtype)

    return draw


def run_protocol(
    scheme: CommScheme,
    source: TreePinSource,
    wiretapper: Wiretapper,
    seed: int,
    trials: int = 32,
) -> SimReport:
    """Run the protocol `trials` times and tally every mismatch."""
    import numpy as np

    if trials < 0:
        raise SimulationError(f"trials must be non-negative, got {trials}")
    if scheme.key is None:
        raise SimulationError("scheme has no key")
    ext = scheme.ext_ctx
    q, n = ext.q, ext.n
    d = source.base_dim
    f = scheme.comm_matrix
    if f.rows != d:
        raise SimulationError("scheme does not match the source")
    scheme.check_owners(source)
    # the keys are read off the draws at these coordinates, where -1 would
    # silently be the last one
    _check_key(scheme.key, scheme.s, d)

    # One elimination of F serves every node (see the module docstring):
    # node v recovers x = x0 + ((x_v - x0_v) @ R_v) @ N, with x0 = comm @ L
    # shared by all nodes and R_v a right inverse of N's columns at v's
    # coordinates, which exists iff v can decode.
    null, ginv, free = _left_null_and_ginverse(f)
    null_t = null.transpose()
    k = null.rows
    inner = (d + f.cols) * n
    # float64 while exact, else int64 or object (module docstring); the
    # draws that no digit table serves stay integer codes
    if ext.order <= _EXACT and _exact_f64(q, inner + 1):
        dtype, code_dtype, mod = np.float64, np.int64, _floor_mod
    else:
        dtype = code_dtype = _int_dtype(ext, inner)
        mod = np.remainder
    views = [source.node_view(v).coords for v in range(source.vertex_count)]
    width = max(map(len, views), default=0)
    # R_v stacked, each padded with zero rows to `width` rows; the padded
    # digit columns point at column 0 and meet only those zero rows
    stacked: list[list[int]] = []
    digit_cols = np.zeros((len(views), width * n), dtype=np.intp)
    for v, coords in enumerate(views):
        try:
            left_inv = left_inverse(null_t.take_rows(coords))
        except ValueError:
            raise SimulationError(
                f"node {v} cannot reach omniscience with this scheme"
            ) from None
        stacked += left_inv.transpose().to_code_rows()
        stacked += [(0,) * k] * (width - len(coords))
        digit_cols[v, : len(coords) * n] = [c * n + i for c in coords for i in range(n)]
    free_cols = np.array([c * n + i for c in free for i in range(n)], dtype=np.intp)

    wl = lift(wiretapper.matrix, ext)
    tap = null @ wl
    predictable = tap.is_zero()
    unknown_dims = k - rank(tap)
    # the tap is replayed only for an aligned scheme with a nonempty tap
    replay = predictable and wl.cols > 0
    # every map in one expansion; F and the tap share their d rows, and so
    # one block of it
    comm_cols = f.cols * n
    maps, ginv_map, null_map, right_invs = _expand(
        [f.hstack(wl), ginv, null, _mat(ext, stacked, k)], dtype
    )
    # a batch holds its trials as columns (module docstring): each map acts
    # from the left as its transpose, a view BLAS takes as it is, and the
    # R_v are transposed once, into one (V, k*n, w*n) array
    comm_t = maps[:, :comm_cols].T
    wiretap_t = maps[:, comm_cols:].T
    ginv_t, null_map_t = ginv_map.T, null_map.T
    right_invs = np.ascontiguousarray(
        right_invs.reshape(len(views), width * n, k * n).transpose(0, 2, 1)
    )

    rng = random.Random(seed)
    if dtype is np.float64 and ext.order <= _DIGIT_TABLE:
        table = _digit_table(ext)
        draw = _code_draws(rng, ext.order, np.uint32)

        def digits(codes: np.ndarray) -> np.ndarray:
            return np.take(table, codes, axis=0).reshape(len(codes), d * n)
    else:
        draw = _code_draws(rng, ext.order, code_dtype)

        def digits(codes: np.ndarray) -> np.ndarray:
            return _to_digits(codes, ext).astype(dtype, copy=False)

    decode_failures = 0
    mispredictions = 0
    key_counts: Counter[tuple[int, ...]] = Counter()

    for start in range(0, trials, _CHUNK):
        rows = min(_CHUNK, trials - start)
        codes = draw(rows * d).reshape(rows, d)
        key_counts.update(map(tuple, codes[:, scheme.key].tolist()))
        x = digits(codes).T
        comm = mod(comm_t @ x, q)

        # node v decodes iff y_v @ N = e, and N is the identity at the free
        # coordinates (see the module docstring)
        e = ginv_t @ comm   # x0 = comm @ L, then x - x0 in place
        np.subtract(x, e, out=e)
        e = mod(e, q)
        y = mod(right_invs @ np.take(e, digit_cols, axis=0), q)
        a = e[free_cols]
        consistent = (mod(null_map_t @ a, q) == e).all(axis=0)
        decoded = (y == a).all(axis=1) & consistent
        decode_failures += decoded.size - int(np.count_nonzero(decoded))

        if replay:
            # the prediction comm @ (L @ W) is x0 @ W, so it misses iff e @ W != 0
            mispredictions += int(np.count_nonzero(mod(wiretap_t @ e, q).any(axis=0)))

    return SimReport(
        trials=trials,
        block_len=n,
        decode_failures=decode_failures,
        # a node that decodes holds x itself, and so the true key
        key_mismatches=0,
        wiretap_predictable=predictable,
        wiretap_mispredictions=mispredictions,
        eavesdropper_unknown_dims=unknown_dims,
        key_counts=dict(key_counts),
    )
