"""Monte Carlo protocol runs."""

from __future__ import annotations

import math
import random

import pytest

from treepin import (
    CommScheme,
    FMatrix,
    KeyExtractor,
    SchemeError,
    SimReport,
    SimulationError,
    TreePinSource,
    Wiretapper,
    make_ext_field,
    run_protocol,
    sample_block,
    synth_explicit_unit,
    synth_random,
)
from treepin.falinalg import left_inverse, lift, rank, solve_right
from treepin.simulate import _CHUNK

from conftest import (
    parity_path,
    published_scheme,
    scheme_over as _scheme_over,
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
        key=KeyExtractor(FMatrix.basis_columns(ext, 3, (0,)), (0,)),
    )
    with pytest.raises(SimulationError):
        # nodes 2 and 3 decode, nodes 0 and 1 cannot: refuse to run
        run_protocol(raw, src, wt, seed=1, trials=10)


def test_missing_key_is_an_error():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    keyless = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=1,
        comm_matrix=scheme.comm_matrix,
        owners=scheme.owners,
    )
    with pytest.raises(SimulationError):
        run_protocol(keyless, src, wt, seed=1, trials=10)


def test_source_mismatch_is_an_error():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    other = TreePinSource(2, 3, [(0, 0, 1, 2), (1, 1, 2, 2)])
    with pytest.raises(SimulationError):
        run_protocol(scheme, other, Wiretapper(
            FMatrix.zeros(other.base_ctx, 4, 0)
        ), seed=1, trials=10)


def test_sample_block_is_uniform_enough():
    ctx = make_ext_field(2, 2)
    rng = random.Random(6)
    seen = [0] * 4
    for _ in range(400):
        for e in sample_block(rng, ctx, 5):
            seen[e.code] += 1
    assert min(seen) > 0
    assert sum(seen) == 2000


def test_negative_trials_is_an_error():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    with pytest.raises(SimulationError):
        run_protocol(scheme, src, wt, seed=1, trials=-5)


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


REFEREE_FIELDS = [(q, n) for q in (2, 3, 5, 7) for n in range(1, 7)] + [
    (2, 13),  # no log/exp tables: generic field multiply
    (4294967311, 1),  # prime above 2**32: object arrays
]


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_batched_run_matches_per_trial_referee(q, n):
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    for trials in (0, 1, _CHUNK + 1):
        seed = 4000 + trials
        got = run_protocol(scheme, src, wt, seed=seed, trials=trials)
        want = _reference_run_protocol(scheme, src, wt, seed, trials)
        assert got == want
        assert list(got.key_counts.items()) == list(want.key_counts.items())
    assert got.perfect


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


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_dependent_columns_and_full_row_rank_match_referee(q, n):
    """F with a repeated (scaled) column, so rank F < cols, and F widened
    by the key columns, so rank F = base_dim and the left nullspace of F
    is empty."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    ext = scheme.ext_ctx
    f = scheme.comm_matrix
    dependent = _widened(
        scheme,
        f.take_cols([0]).scale(ext(ext.order - 1)),
        (scheme.owners[0],),
    )
    full = _widened(
        scheme,
        scheme.key.matrix,
        tuple(_owner_of(src, c) for c in scheme.key.coords),
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
        key=KeyExtractor(FMatrix.basis_columns(ext, 3, (0,)), (0,)),
    )
    message = "node 3 cannot reach omniscience with this scheme"
    with pytest.raises(SimulationError, match=message):
        _reference_run_protocol(scheme, src, wt, seed=1, trials=10)
    with pytest.raises(SimulationError, match=message):
        run_protocol(scheme, src, wt, seed=1, trials=10)


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_tap_outside_col_f_matches_referee(q, n):
    """A tap widened by a key coordinate, which lies outside col F: every
    node still decodes, the tap is no longer predictable, and the
    eavesdropper misses one dimension fewer."""
    src, wt, scheme = _scheme_over(q, n, seed=q * 10 + n)
    unit = FMatrix.basis_columns(src.base_ctx, src.base_dim, scheme.key.coords[:1])
    tap = Wiretapper(wt.matrix.hstack(unit))
    got = run_protocol(scheme, src, tap, seed=7, trials=64)
    want = _reference_run_protocol(scheme, src, tap, 7, 64)
    assert got == want
    assert list(got.key_counts.items()) == list(want.key_counts.items())
    assert not got.wiretap_predictable
    assert got.eavesdropper_unknown_dims == scheme.s - 1
