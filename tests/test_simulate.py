"""Monte Carlo protocol runs."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from treepin import (
    CommScheme,
    FMatrix,
    SchemeError,
    SimReport,
    SimulationError,
    TreePinSource,
    Wiretapper,
    make_ext_field,
    random_instance,
    run_protocol,
    synth_explicit_unit,
    synth_random,
)
from treepin import simulate
from treepin.falinalg import (
    _expand,
    _to_digits,
    left_inverse,
    lift,
    rank,
)
from treepin.simulate import _CHUNK, _code_draws

from conftest import (
    REFEREE_FIELDS,
    parity_path,
    published_scheme,
    scheme_over as _scheme_over,
    solve_right,
    star3_no_wiretap,
)


def test_parity_scheme_runs_perfectly():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    rep = run_protocol(scheme, src, wt, seed=99, trials=300)
    assert rep.trials == 300
    assert rep.block_len == 2
    assert rep.decode_failures == 0
    assert rep.key_mismatches == 0
    assert rep.wiretap_predictable
    assert rep.wiretap_mispredictions == 0
    assert rep.eavesdropper_unknown_dims == 1
    assert rep.perfect
    assert sum(rep.key_counts.values()) == 300
    assert all(len(k) == 1 for k in rep.key_counts)


def test_published_scheme_runs_perfectly():
    src, wt, scheme = published_scheme()
    rep = run_protocol(scheme, src, wt, seed=5, trials=100)
    assert rep.perfect
    # over 100 trials every GF(4) key value should show up
    assert len(rep.key_counts) == 4


def test_key_uniformity():
    """1e5 parity runs: every GF(4) key lands within 4 sigma of 25000."""
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    trials = 100_000
    rep = run_protocol(scheme, src, wt, seed=1234, trials=trials)
    assert rep.perfect
    assert len(rep.key_counts) == 4
    sigma = math.sqrt(trials * 0.25 * 0.75)
    for count in rep.key_counts.values():
        assert abs(count - trials / 4) <= 4 * sigma
    assert sum(rep.key_counts.values()) == trials


def test_same_seed_same_tallies():
    src, wt = star3_no_wiretap()
    scheme = synth_random(src, wt, seed=17)
    a = run_protocol(scheme, src, wt, seed=3, trials=64)
    b = run_protocol(scheme, src, wt, seed=3, trials=64)
    assert a == b
    c = run_protocol(scheme, src, wt, seed=4, trials=64)
    assert a != c


def test_single_edge_source_needs_no_communication():
    src = TreePinSource(2, 2, [(0, 0, 1, 1)])
    wt = Wiretapper(FMatrix.zeros(src.base_ctx, 1, 0))
    scheme = synth_random(src, wt, seed=0)
    assert scheme.comm_matrix.cols == 0
    rep = run_protocol(scheme, src, wt, seed=8, trials=50)
    assert rep.perfect
    assert rep.eavesdropper_unknown_dims == 1
    assert not rep.wiretap_predictable or rep.wiretap_mispredictions == 0


def test_misaligned_scheme_has_unpredictable_wiretap():
    """When the tap is outside the communication span the replay is skipped
    and the unknown dimension count drops accordingly."""
    src, wt = parity_path()
    ext = make_ext_field(2, 2)
    raw = CommScheme(
        ext_ctx=ext,
        s=1,
        comm_matrix=FMatrix.basis_columns(ext, 3, [1, 2]),
        owners=(1, 2),
        key=(0,),
    )
    with pytest.raises(SimulationError):
        # nodes 2 and 3 decode, nodes 0 and 1 cannot: refuse to run
        run_protocol(raw, src, wt, seed=1, trials=10)


def test_missing_key_is_an_error():
    """A scheme with no key, or with a key that is not s distinct
    coordinates of the source, is refused."""
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    keyless = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=1,
        comm_matrix=scheme.comm_matrix,
        owners=scheme.owners,
    )
    with pytest.raises(SimulationError, match="^scheme has no key$"):
        run_protocol(keyless, src, wt, seed=1, trials=10)
    # keys are read off the draws at the key coordinates, so a coordinate
    # out of range is refused, not read as the last one (-1) or an error
    for key in ((-1,), (src.base_dim,), (0, 0)):
        with pytest.raises(SchemeError, match=r"^keycols must be distinct coordinates in \[0, 3\)$"):
            run_protocol(replace(scheme, key=key), src, wt, seed=1, trials=10)


def test_source_mismatch_is_an_error():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    other = TreePinSource(2, 3, [(0, 0, 1, 2), (1, 1, 2, 2)])
    with pytest.raises(SimulationError):
        run_protocol(scheme, other, Wiretapper(
            FMatrix.zeros(other.base_ctx, 4, 0)
        ), seed=1, trials=10)


def test_negative_trials_is_an_error():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    with pytest.raises(SimulationError):
        run_protocol(scheme, src, wt, seed=1, trials=-5)


def test_node_views_are_built_once_per_source(monkeypatch):
    """check_owners and the decoder set-up share one set of views, and a
    second run on the same source builds none."""
    built = []
    real = TreePinSource._build_view

    def build_view(self, v):
        built.append(v)
        return real(self, v)

    monkeypatch.setattr(TreePinSource, "_build_view", build_view)
    src, wt, scheme = published_scheme()
    run_protocol(scheme, src, wt, seed=1, trials=10)
    run_protocol(scheme, src, wt, seed=2, trials=10)
    assert built == list(range(src.vertex_count))


def test_column_on_an_unseen_coordinate_is_refused():
    """Node 0 sees only coordinate 0 of the parity path, so a column it
    owns may not use coordinate 1; verify refuses such a scheme and the
    simulator must refuse it too."""
    src, wt, scheme = published_scheme()
    bad = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=scheme.s,
        comm_matrix=scheme.comm_matrix,
        owners=(0, 2),
        key=scheme.key,
    )
    with pytest.raises(SchemeError, match="cannot observe"):
        run_protocol(bad, src, wt, seed=1, trials=10)


# ---------------------------------------------------------------------------
# Referee: the per-trial loop that run_protocol batched.  Every trial pushes
# one block vector through each map with the field's code operations.


def _reference_run_protocol(scheme, source, wiretapper, seed, trials):
    ext = scheme.ext_ctx
    d = source.base_dim
    f = scheme.comm_matrix
    add = ext.add_code
    mul = ext.mul_code

    comm_cols = _sparse_cols(f)

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

    key_rows = FMatrix.basis_columns(ext, d, scheme.key).to_code_rows()
    key_cols = range(len(scheme.key))

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
    key_counts = {}

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


def _sparse_cols(m):
    rows = m.to_code_rows()
    return [
        [(i, rows[i][j]) for i in range(m.rows) if rows[i][j]]
        for j in range(m.cols)
    ]


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


# The referee fields, and a prime field of the int64-only band: the largest
# prime below 2**28, whose squared digits pass 2**53 but not 2**63
SIM_FIELDS = REFEREE_FIELDS + [(268435399, 1)]


@pytest.mark.parametrize("q, n", SIM_FIELDS)
def test_batched_run_matches_per_trial_referee(q, n):
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    for trials in (0, 1, _CHUNK + 1):
        seed = 4000 + trials
        got = run_protocol(scheme, src, wt, seed=seed, trials=trials)
        want = _reference_run_protocol(scheme, src, wt, seed, trials)
        assert got == want
        assert list(got.key_counts.items()) == list(want.key_counts.items())
    assert got.perfect


@pytest.mark.parametrize(
    "q, n, dtype, table",
    [
        (3, 2, np.float64, True),          # digits by table lookup
        (65537, 1, np.float64, False),     # the prime above 2**16: no table
        (94906249, 1, np.int64, False),    # (q-1)**2 < 2**53, not times inner
        (268435399, 1, np.int64, False),   # (q-1)**2 past 2**53
        (4294967311, 1, object, False),    # the prime above 2**32
    ],
)
def test_each_dtype_route_matches_referee(monkeypatch, q, n, dtype, table):
    """Each field takes its route: the dtype of the maps, and whether the
    draws index a digit table (they then stay uint32)."""
    routes = []
    real_expand, real_draws = simulate._expand, simulate._code_draws

    def expand(mats, dtype):
        routes.append(dtype)
        return real_expand(mats, dtype)

    def code_draws(rng, order, dtype):
        routes.append(dtype is np.uint32)
        return real_draws(rng, order, dtype)

    monkeypatch.setattr(simulate, "_expand", expand)
    monkeypatch.setattr(simulate, "_code_draws", code_draws)
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    for trials in (1, 64):
        got = run_protocol(scheme, src, wt, seed=trials, trials=trials)
        want = _reference_run_protocol(scheme, src, wt, trials, trials)
        assert got == want
        assert list(got.key_counts.items()) == list(want.key_counts.items())
        assert all(type(c) is int for key in got.key_counts for c in key)
    assert routes == [dtype, table] * 2


def _owner_of(src, coord):
    return next(v for v in range(src.vertex_count) if coord in src.node_view(v).coords)


def _widened(scheme, extra, owners):
    return CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=scheme.s,
        comm_matrix=scheme.comm_matrix.hstack(extra),
        owners=scheme.owners + owners,
        key=scheme.key,
    )


@pytest.mark.parametrize("q, n", SIM_FIELDS)
def test_dependent_columns_and_full_row_rank_match_referee(q, n):
    """F with a repeated (scaled) column, so rank F < cols, and F widened
    by the key columns, so rank F = base_dim and the left nullspace of F
    is empty."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    ext = scheme.ext_ctx
    f = scheme.comm_matrix
    dependent = _widened(
        scheme,
        f.take_cols([0]) @ FMatrix.from_rows(ext, [[ext.order - 1]], cols=1),
        (scheme.owners[0],),
    )
    full = _widened(
        scheme,
        FMatrix.basis_columns(ext, src.base_dim, scheme.key),
        tuple(_owner_of(src, c) for c in scheme.key),
    )
    for variant in (dependent, full):
        for trials in (1, 64):
            got = run_protocol(variant, src, wt, seed=trials, trials=trials)
            want = _reference_run_protocol(variant, src, wt, trials, trials)
            assert got == want
            assert list(got.key_counts.items()) == list(want.key_counts.items())
            assert got.perfect
    assert got.eavesdropper_unknown_dims == 0


@pytest.mark.parametrize("n", (1, 2))
def test_first_node_that_cannot_decode_is_named(n):
    """Columns X_0 + X_1 (node 1) and X_2 (node 2) on the parity path:
    nodes 0, 1 and 2 decode, node 3 only ever learns X_0 + X_1."""
    src, wt = parity_path()
    ext = make_ext_field(2, n)
    scheme = CommScheme(
        ext_ctx=ext,
        s=1,
        comm_matrix=FMatrix.from_cols(ext, [[1, 1, 0], [0, 0, 1]], rows=3),
        owners=(1, 2),
        key=(0,),
    )
    message = "node 3 cannot reach omniscience with this scheme"
    with pytest.raises(SimulationError, match=message):
        _reference_run_protocol(scheme, src, wt, seed=1, trials=10)
    with pytest.raises(SimulationError, match=message):
        run_protocol(scheme, src, wt, seed=1, trials=10)


@pytest.mark.parametrize("q, n", SIM_FIELDS)
def test_tap_outside_col_f_matches_referee(q, n):
    """A tap widened by a key coordinate, which lies outside col F: every
    node still decodes, the tap is no longer predictable, and the
    eavesdropper misses one dimension fewer."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    unit = FMatrix.basis_columns(src.base_ctx, src.base_dim, scheme.key[:1])
    tap = Wiretapper(wt.matrix.hstack(unit))
    got = run_protocol(scheme, src, tap, seed=7, trials=64)
    want = _reference_run_protocol(scheme, src, tap, 7, 64)
    assert got == want
    assert list(got.key_counts.items()) == list(want.key_counts.items())
    assert not got.wiretap_predictable
    assert got.eavesdropper_unknown_dims == scheme.s - 1


# ---------------------------------------------------------------------------
# Draws: whole MT19937 words against randrange, value by value.

DRAW_ORDERS = [
    2, 8, 2**16, 2**31,                   # powers of two
    3, 9, 5**3, 7**2, 3**13, 3**20,       # odd prime powers
    2**31 + 11, 2**32 - 1,                # largest shift 1 and shift 0
]
DRAW_SPLIT = (1, 0, 5, 1000, 3, 2500, 7)


def _split_draws(order, seed, split, dtype=np.int64):
    draw = _code_draws(random.Random(seed), order, dtype)
    parts = [draw(count) for count in split]
    assert [len(p) for p in parts] == list(split)
    assert all(p.dtype == dtype for p in parts)
    return [v for p in parts for v in p.tolist()]


def _randrange_draws(order, seed, count):
    rng = random.Random(seed)
    return [rng.randrange(order) for _ in range(count)]


@pytest.mark.parametrize("order", DRAW_ORDERS)
@pytest.mark.parametrize("seed", (0, 7, 20260419))
def test_code_draws_match_randrange(order, seed):
    """The stream split over several calls, so the buffer of accepted
    values carries draws from one call into the next."""
    want = _randrange_draws(order, seed, sum(DRAW_SPLIT))
    assert _split_draws(order, seed, DRAW_SPLIT) == want
    assert _split_draws(order, seed, (sum(DRAW_SPLIT),)) == want


@seed(20260419)
@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.integers(2, 2**32 - 1),
        st.sampled_from(DRAW_ORDERS),
        st.builds(pow, st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 9)),
    ),
    st.integers(0, 2**64),
    st.lists(st.integers(0, 400), max_size=8),
)
def test_code_draws_match_randrange_hypothesis(order, seed_value, split):
    want = _randrange_draws(order, seed_value, sum(split))
    assert _split_draws(order, seed_value, split) == want


class _CountingRandom(random.Random):
    def randrange(self, *args):
        self.calls = getattr(self, "calls", 0) + 1
        return super().randrange(*args)


@pytest.mark.parametrize(
    "order, dtype, calls",
    [
        (2**32 - 1, np.int64, 0),
        (2**32, np.int64, 300),         # 33 bits
        (4294967311, object, 300),      # the prime above 2**32
        (7**20, np.int64, 300),
    ],
)
def test_orders_above_32_bits_call_randrange(order, dtype, calls):
    rng = _CountingRandom(5)
    draw = _code_draws(rng, order, dtype)
    got = draw(100).tolist() + draw(200).tolist()
    assert getattr(rng, "calls", 0) == calls
    assert got == _randrange_draws(order, 5, 300)


# ---------------------------------------------------------------------------
# The stacked decode check against the per-node check it replaced: node v
# decodes a trial iff (x0 + y_v @ N) % q == x.  The per-trial referee above
# builds its own decoders, so it cannot see a fault in run_protocol's L or
# R_v; this one reads them through the functions run_protocol calls.  It
# runs on int64 digits and takes every product but y_v @ N over the nonzero
# entries of its map, column block by column block, so it stays cheap
# without floats at the scale below as well.


def _sparse_product(x, m, q):
    """x @ expand_to_base(m) mod q in int64: the n digit columns of column j
    of m come from x's digit columns at that column's nonzero rows."""
    n = m.ctx.n
    full = _expand([m], np.int64)[0]
    out = np.zeros((x.shape[0], m.cols * n), dtype=np.int64)
    for j, col in enumerate(zip(*m.to_code_rows())):
        rows = [i * n + t for i, c in enumerate(col) if c for t in range(n)]
        out[:, j * n : (j + 1) * n] = x[:, rows] @ full[rows, j * n : (j + 1) * n]
    return out % q


def _from_digits(digits, ctx):
    """Inverse of falinalg._to_digits: the codes of an array of base-q
    digits, lowest first, n digits per code."""
    n = ctx.n
    powers = np.array([ctx.q**k for k in range(n)], dtype=digits.dtype)
    return digits.reshape(*digits.shape[:-1], digits.shape[-1] // n, n) @ powers


def _per_node_report(scheme, source, wiretapper, seed, trials):
    """The whole SimReport in int64: x0 = comm @ L, and node v recovers
    x0 + ((x_v - x0_v) @ R_v) @ N, checked against x and keyed again."""
    ext = scheme.ext_ctx
    q, n, d = ext.q, ext.n, source.base_dim
    f = scheme.comm_matrix
    key = FMatrix.basis_columns(ext, d, scheme.key)
    null, ginv, _ = simulate._left_null_and_ginverse(f)
    wl = lift(wiretapper.matrix, ext)
    recon = solve_right(f, wl)
    rng = random.Random(seed)
    codes = np.array([rng.randrange(ext.order) for _ in range(trials * d)], dtype=np.int64)
    x = _to_digits(codes.reshape(trials, d), ext)
    comm = _sparse_product(x, f, q)
    x0 = _sparse_product(comm, ginv, q)
    key_digits = _sparse_product(x, key, q)
    null_map = _expand([null], np.int64)[0]
    failures = mismatches = 0
    for v in range(source.vertex_count):
        coords = source.node_view(v).coords
        right_inv = simulate.left_inverse(null.take_cols(coords).transpose()).transpose()
        cols = [c * n + i for c in coords for i in range(n)]
        y = _sparse_product((x[:, cols] - x0[:, cols]) % q, right_inv, q)
        # y @ N, as an einsum: numpy's int64 matmul is slower at inner k*n
        recovered = (x0 + np.einsum("tk,kj->tj", y, null_map)) % q
        decoded = (recovered == x).all(axis=1)
        failures += trials - int(np.count_nonzero(decoded))
        wrong_key = (_sparse_product(recovered, key, q) != key_digits).any(axis=1)
        mismatches += int(np.count_nonzero(decoded & wrong_key))
    mispredictions = 0
    if recon is not None and wl.cols:
        missed = (_sparse_product(comm, recon, q) != _sparse_product(x, wl, q)).any(axis=1)
        mispredictions = int(np.count_nonzero(missed))
    key_counts = Counter(map(tuple, _from_digits(key_digits, ext).tolist()))
    return SimReport(
        trials=trials,
        block_len=n,
        decode_failures=failures,
        key_mismatches=mismatches,
        wiretap_predictable=recon is not None,
        wiretap_mispredictions=mispredictions,
        eavesdropper_unknown_dims=d - rank(f.hstack(wl)),
        key_counts=dict(key_counts),
    )


def _per_node_decode_failures(scheme, source, seed, trials):
    empty = Wiretapper(FMatrix.zeros(source.base_ctx, source.base_dim, 0))
    return _per_node_report(scheme, source, empty, seed, trials).decode_failures


def _bumped(m, i, j):
    """m with 1 added to entry (i, j)."""
    rows = m.to_code_rows()
    rows[i][j] = m.ctx.add_code(rows[i][j], 1)
    return FMatrix.from_rows(m.ctx, rows, cols=m.cols)


FAULT_FIELDS = [(2, 1), (3, 1), (2, 3), (5, 2)]


@pytest.mark.parametrize("q, n", FAULT_FIELDS)
def test_decode_check_sees_a_wrong_generalized_inverse(monkeypatch, q, n):
    """L with one entry off at (j, i), F[i][j] != 0: then x0 @ F differs
    from comm whenever comm_j != 0, and no node can recover x."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    f = scheme.comm_matrix.to_code_rows()
    i, j = next((i, j) for i, row in enumerate(f) for j, c in enumerate(row) if c)
    real = simulate._left_null_and_ginverse

    def wrong(m):
        null, ginv, free = real(m)
        return null, _bumped(ginv, j, i), free

    monkeypatch.setattr(simulate, "_left_null_and_ginverse", wrong)
    rep = run_protocol(scheme, src, wt, seed=11, trials=200)
    assert rep.decode_failures > 0
    assert rep.decode_failures == _per_node_decode_failures(scheme, src, 11, 200)
    assert not rep.perfect


@pytest.mark.parametrize("q, n", FAULT_FIELDS)
def test_decode_check_sees_a_wrong_right_inverse(monkeypatch, q, n):
    """R_v of one node with one entry off, at a coordinate t of that node
    where N is nonzero: y_v is off whenever e_t != 0."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    null, _, _ = simulate._left_null_and_ginverse(scheme.comm_matrix)
    cols = null.transpose().to_code_rows()
    v, t = next(
        (v, t)
        for v in range(src.vertex_count)
        for t, c in enumerate(src.node_view(v).coords)
        if any(cols[c])
    )
    target = null.take_cols(src.node_view(v).coords).transpose()

    def wrong(m):
        inv = left_inverse(m)
        return _bumped(inv, 0, t) if m == target else inv

    monkeypatch.setattr(simulate, "left_inverse", wrong)
    rep = run_protocol(scheme, src, wt, seed=12, trials=200)
    assert rep.decode_failures > 0
    assert rep.decode_failures == _per_node_decode_failures(scheme, src, 12, 200)
    assert rep.decode_failures <= 200   # the other nodes still decode


# ---------------------------------------------------------------------------
# Scale: 60 vertices over GF(2^6), in two batches, against the int64
# per-node referee above.


def test_scale_run_matches_int64_per_node_referee():
    """The float64 route at V = 60, one full batch and one of 300 trials,
    reports exactly what the int64 referee does, well within 2 s."""
    src, wt = random_instance(3, vertex_count=60, max_multiplicity=2, q=2, n_w_target=15)
    scheme = synth_random(src, wt, seed=1)
    trials = _CHUNK + 300
    assert scheme.ext_ctx.n == 6
    start = time.perf_counter()
    got = run_protocol(scheme, src, wt, seed=9, trials=trials)
    elapsed = time.perf_counter() - start
    want = _per_node_report(scheme, src, wt, 9, trials)
    assert got == want
    assert list(got.key_counts.items()) == list(want.key_counts.items())
    assert got.perfect and len(got.key_counts) == 64
    assert elapsed < 2.0
