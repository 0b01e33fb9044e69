"""Exact linear algebra over field contexts."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from treepin import ExtFieldCtx, FMatrix, make_ext_field
from treepin.falinalg import (
    _eliminate,
    _MOD_BLOCK,
    _expand,
    _floor_mod,
    _int_dtype,
    _left_null_and_ginverse,
    col_space_intersect,
    completion_indices,
    expand_to_base,
    inverse,
    left_inverse,
    left_nullspace_basis,
    lift,
    rank,
    right_nullspace_basis,
    rref,
    solve_right,
)

from conftest import REFEREE_FIELDS, _rank_mod, dense_eliminate, in_col_span

F2 = make_ext_field(2, 1)
F4 = make_ext_field(2, 2)
F9 = make_ext_field(3, 2)
F16 = make_ext_field(2, 4)


def random_matrix(ctx, rows, cols, rng):
    return FMatrix.from_rows(
        ctx,
        [[rng.randrange(ctx.order) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_constructors_and_access():
    m = FMatrix.from_rows(F2, [[1, 0], [0, 1], [1, 1]], cols=2)
    assert m.shape == (3, 2)
    assert m[2, 0] == F2.one
    assert m.col(1) == (F2(0), F2(1), F2(1))
    assert FMatrix.identity(F2, 3) == FMatrix.basis_columns(F2, 3, [0, 1, 2])
    assert FMatrix.zeros(F2, 2, 2).is_zero()
    t = m.transpose()
    assert t.shape == (2, 3)
    assert t.transpose() == m


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        FMatrix.from_rows(F2, [[1, 0], [1]], cols=2)


def test_matmul_shapes():
    a = random_matrix(F9, 3, 4, random.Random(1))
    b = random_matrix(F9, 4, 2, random.Random(2))
    c = a @ b
    assert c.shape == (3, 2)
    with pytest.raises(ValueError):
        b @ a


def test_rref_properties():
    rng = random.Random(5)
    for _ in range(50):
        m = random_matrix(F4, 4, 6, rng)
        res = rref(m)
        assert res.rank == len(res.pivots)
        assert list(res.pivots) == sorted(res.pivots)
        again = rref(res.matrix)
        assert again.matrix == res.matrix
        assert rank(m) == res.rank


def test_det_and_inverse_random_f9():
    """100 random 4x4 matrices over F_9: inverse works iff the rank is full."""
    rng = random.Random(77)
    seen_singular = seen_regular = 0
    for _ in range(100):
        m = random_matrix(F9, 4, 4, rng)
        if rank(m) == 4:
            seen_regular += 1
            mi = inverse(m)
            assert m @ mi == FMatrix.identity(F9, 4)
            assert mi @ m == FMatrix.identity(F9, 4)
        else:
            seen_singular += 1
            with pytest.raises(ValueError):
                inverse(m)
    assert seen_regular > 0 and seen_singular > 0


def test_rank_of_product_bounded():
    rng = random.Random(3)
    for _ in range(30):
        a = random_matrix(F2, 5, 3, rng)
        b = random_matrix(F2, 3, 4, rng)
        assert rank(a @ b) <= min(rank(a), rank(b))


def test_solve_right_consistent_and_inconsistent():
    rng = random.Random(11)
    for _ in range(40):
        a = random_matrix(F9, 5, 3, rng)
        x = random_matrix(F9, 3, 2, rng)
        b = a @ x
        sol = solve_right(a, b)
        assert sol is not None
        assert a @ sol == b
    # a target outside the column space has no solution
    a = FMatrix.from_rows(F2, [[1, 0], [0, 1], [0, 0]], cols=2)
    b = FMatrix.from_rows(F2, [[0], [0], [1]], cols=1)
    assert solve_right(a, b) is None
    with pytest.raises(ValueError):
        solve_right(a, FMatrix.identity(F2, 2))


def test_nullspaces_annihilate():
    rng = random.Random(13)
    for _ in range(40):
        m = random_matrix(F4, 4, 6, rng)
        rn = right_nullspace_basis(m)
        assert rn.cols == m.cols - rank(m)
        if rn.cols:
            assert (m @ rn).is_zero()
            assert rank(rn) == rn.cols
        ln = left_nullspace_basis(m)
        assert ln.rows == m.rows - rank(m)
        if ln.rows:
            assert (ln @ m).is_zero()
            assert rank(ln) == ln.rows


def test_left_inverse():
    rng = random.Random(17)
    for _ in range(30):
        m = random_matrix(F9, 6, 3, rng)
        if rank(m) < 3:
            with pytest.raises(ValueError):
                left_inverse(m)
            continue
        e = left_inverse(m)
        assert e @ m == FMatrix.identity(F9, 3)
    wide = FMatrix.from_rows(F9, [[1, 0, 0], [0, 1, 0]], cols=3)
    with pytest.raises(ValueError):
        left_inverse(wide)


def left_inverse_referee(m):
    """Referee: the reduced echelon form of [m | I], pivoting in m's
    columns, read off as FMatrix blocks."""
    r = rref(m.hstack(FMatrix.identity(m.ctx, m.rows)), pivot_cols=m.cols)
    if r.rank < m.cols:
        raise ValueError("matrix does not have full column rank")
    return r.matrix.take_rows(range(m.cols)).take_cols(range(m.cols, m.cols + m.rows))


@pytest.mark.parametrize("ctx", [F16, make_ext_field(2, 13), make_ext_field(7, 1)])
def test_left_inverse_matches_referee(ctx):
    """The code-row kernel gives the very inverse the [m | I] echelon form
    gives, on square and tall matrices (1 x 1 included); a rank-deficient
    m raises ValueError, and inverse still refuses a non-square m."""
    rng = random.Random(ctx.order)
    shapes = [(1, 1), (2, 2), (3, 3), (2, 1), (4, 2), (5, 3)]
    for rows, cols in shapes:
        for _ in range(8):
            m = random_matrix(ctx, rows, cols, rng)
            if rank(m) < cols:
                continue
            got = left_inverse(m)
            assert got == left_inverse_referee(m)
            assert got @ m == FMatrix.identity(ctx, cols)
            if rows == cols:
                assert inverse(m) == got
    for rows, cols in shapes:
        # a repeated column, or a zero one, leaves the rank below cols
        m = random_matrix(ctx, rows, cols, rng)
        m = m.take_cols([0] * cols) if cols > 1 else FMatrix.zeros(ctx, rows, 1)
        for fn in (left_inverse, left_inverse_referee):
            with pytest.raises(ValueError, match="full column rank"):
                fn(m)
    with pytest.raises(ValueError, match="non-square"):
        inverse(random_matrix(ctx, 3, 2, rng))


def test_zassenhaus_dimension_law():
    """dim(U cap V) = dim U + dim V - dim(U + V) on random subspaces."""
    rng = random.Random(23)
    for ctx in (F2, F9):
        for _ in range(40):
            u = random_matrix(ctx, 6, rng.randint(1, 4), rng)
            v = random_matrix(ctx, 6, rng.randint(1, 4), rng)
            inter = col_space_intersect(u, v)
            assert inter.cols == rank(u) + rank(v) - rank(u.hstack(v))
            for j in range(inter.cols):
                col = inter.take_cols([j])
                assert in_col_span(u, col)
                assert in_col_span(v, col)


def test_in_col_span():
    a = FMatrix.from_cols(F2, [[1, 1, 0], [0, 1, 1]], rows=3)
    assert in_col_span(a, FMatrix.from_cols(F2, [[1, 0, 1]], rows=3))
    assert not in_col_span(a, FMatrix.from_cols(F2, [[1, 0, 0]], rows=3))


def test_lift_preserves_rank_and_codes():
    """Base matrices keep their rank and entry codes when viewed in an
    extension field (50 random 6x3 over F_2 into F_16)."""
    rng = random.Random(29)
    for _ in range(50):
        m = random_matrix(F2, 6, 3, rng)
        up = lift(m, F16)
        assert up.ctx.key == F16.key
        assert rank(up) == rank(m)
        for i in range(6):
            for j in range(3):
                assert up[i, j].code == m[i, j].code


def test_expand_to_base_is_a_ring_map():
    rng = random.Random(31)
    for _ in range(20):
        a = random_matrix(F4, 3, 2, rng)
        b = random_matrix(F4, 2, 2, rng)
        assert expand_to_base(a @ b) == expand_to_base(a) @ expand_to_base(b)
        assert expand_to_base(a.hstack(a)).shape == (6, 8)
        assert rank(expand_to_base(a)) == 2 * rank(a)


def test_expand_to_base_of_mixing_block():
    """Multiplication by 1+x in GF(4), written on the base coordinates."""
    mix = FMatrix.from_rows(F4, [[3]], cols=1)
    assert expand_to_base(mix).to_code_rows() == [[1, 1], [1, 0]]


def test_empty_shapes():
    none_cols = FMatrix.from_cols(F2, [], rows=3)
    assert none_cols.shape == (3, 0)
    assert rank(none_cols) == 0
    assert left_nullspace_basis(none_cols).rows == 3
    stacked = none_cols.hstack(FMatrix.identity(F2, 3))
    assert stacked.shape == (3, 3)


@given(st.lists(st.integers(0, 8), min_size=9, max_size=9))
@settings(max_examples=60)
def test_hypothesis_rank_transpose_f9(codes):
    m = FMatrix.from_rows(
        F9, [codes[0:3], codes[3:6], codes[6:9]], cols=3
    )
    assert rank(m) == rank(m.transpose())


# ---------------------------------------------------------------------------
# The elimination kernel against references that share no code with it.
# Prime fields cover the table path (q <= 4096) and the generic path
# (4099); extensions cover the add table (order <= 512), the generic
# addition (625, 729) and the table-less multiply (2^13).

PRIME_FIELDS = [make_ext_field(q, 1) for q in (2, 3, 5, 7, 4099)]
EXT_FIELDS = [make_ext_field(q, n) for q, n in ((2, 2), (2, 4), (3, 2), (5, 2), (5, 4), (3, 6))]


@st.composite
def matrices(draw, fields, max_dim=6):
    ctx = draw(st.sampled_from(fields))
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return FMatrix.from_rows(ctx, grid, cols=cols)


def reference_rref(m, pivot_cols=None):
    """Gauss-Jordan on FieldElem entries: first nonzero pivot scanning
    down, pivot row scaled to 1, pivot column cleared in every other row."""
    limit = m.cols if pivot_cols is None else pivot_cols
    data = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    prow = 0
    for c in range(limit):
        if prow == m.rows:
            break
        pr = next((i for i in range(prow, m.rows) if data[i][c]), None)
        if pr is None:
            continue
        data[prow], data[pr] = data[pr], data[prow]
        pinv = data[prow][c].inv()
        data[prow] = [pinv * v for v in data[prow]]
        for i in range(m.rows):
            if i != prow and data[i][c]:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[prow])]
        pivots.append(c)
        prow += 1
    return FMatrix(m.ctx, data, cols=m.cols), tuple(pivots)


def reference_completion(m):
    """Ascending greedy completion, one rank() per candidate coordinate."""
    cur, picked = m, []
    for idx in range(m.rows):
        cand = cur.hstack(FMatrix.basis_columns(m.ctx, m.rows, [idx]))
        if rank(cand) > rank(cur):
            cur = cand
            picked.append(idx)
    return tuple(picked)


@seed(20260101)
@settings(max_examples=150, deadline=None)
@given(matrices(PRIME_FIELDS))
def test_rank_matches_integer_oracle_over_prime_fields(m):
    assert rank(m) == _rank_mod(m.to_code_rows(), m.ctx.q)


@seed(20260103)
@settings(max_examples=100, deadline=None)
@given(matrices(EXT_FIELDS, max_dim=5))
def test_extension_rank_matches_base_expansion(m):
    assert m.ctx.n * rank(m) == _rank_mod(expand_to_base(m).to_code_rows(), m.ctx.q)


@seed(20260104)
@settings(max_examples=20, deadline=None)
@given(matrices([make_ext_field(2, 13)], max_dim=3))
def test_table_less_extension_rank_matches_base_expansion(m):
    assert 13 * rank(m) == _rank_mod(expand_to_base(m).to_code_rows(), 2)


@seed(20260105)
@settings(max_examples=150, deadline=None)
@given(matrices(PRIME_FIELDS + EXT_FIELDS), st.integers(0, 6))
def test_rref_matches_reference_elimination(m, pivot_cols):
    limit = min(pivot_cols, m.cols)
    got = rref(m, pivot_cols=limit)
    want, pivots = reference_rref(m, limit)
    assert got.matrix == want
    assert got.pivots == pivots and got.rank == len(pivots)


@seed(20260106)
@settings(max_examples=100, deadline=None)
@given(matrices(PRIME_FIELDS[:3] + EXT_FIELDS[:3]))
def test_completion_indices_match_greedy_rank_loop(m):
    picked = completion_indices(m)
    assert picked == reference_completion(m)
    assert len(picked) == m.rows - rank(m)


def reference_nullspace_rows(m):
    """Basis of {x : m @ x = 0} read off the reference reduced row echelon
    form: per free column f, 1 at f and -red[k, f] at the k-th pivot."""
    red, pivots = reference_rref(m, m.cols)
    out = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [m.ctx.zero] * m.cols
        v[f] = m.ctx.one
        for k, pc in enumerate(pivots):
            v[pc] = -red[k, f]
        out.append(v)
    return FMatrix(m.ctx, out, cols=m.cols)


@seed(20260108)
@settings(max_examples=150, deadline=None)
@given(matrices(PRIME_FIELDS + EXT_FIELDS + [make_ext_field(2, 13)]))
def test_nullspaces_match_reduced_echelon_reference(m):
    assert right_nullspace_basis(m) == reference_nullspace_rows(m).transpose()
    assert left_nullspace_basis(m) == reference_nullspace_rows(m.transpose())


@seed(20260109)
@settings(max_examples=150, deadline=None)
@given(matrices(PRIME_FIELDS + EXT_FIELDS + [make_ext_field(2, 13)]))
def test_left_null_and_ginverse(f):
    null, ginv, free = _left_null_and_ginverse(f)
    assert null == left_nullspace_basis(f)
    assert null.take_cols(free) == FMatrix.identity(f.ctx, null.rows)
    assert ginv.shape == (f.cols, f.rows)
    assert f @ ginv @ f == f


def reference_expand(m):
    """The per-entry loop expand_to_base replaced: block row r of entry a
    holds the coefficients of x^r * a."""
    ctx = m.ctx
    n = ctx.n
    powers = [ctx.encode([0] * r + [1]) for r in range(n)]
    grid = [[0] * (m.cols * n) for _ in range(m.rows * n)]
    for i, row in enumerate(m.to_code_rows()):
        for j, a in enumerate(row):
            if not a:
                continue
            for r in range(n):
                coeffs = ctx.decode(ctx.mul_code(powers[r], a))
                grid[i * n + r][j * n : (j + 1) * n] = coeffs
    return grid


EXPAND_FIELDS = PRIME_FIELDS + EXT_FIELDS + [
    make_ext_field(2, 13),  # no log/exp tables
    make_ext_field(4294967311, 2),  # object arrays
    ExtFieldCtx(2, 4, (1, 0, 0, 1, 1)),  # moduli other than the canonical one
    ExtFieldCtx(3, 2, (2, 2, 1)),
]


@seed(20260107)
@settings(max_examples=150, deadline=None)
@given(matrices(EXPAND_FIELDS, max_dim=4))
def test_expand_to_base_matches_reference_loop(m):
    got = expand_to_base(m)
    assert got.shape == (m.rows * m.ctx.n, m.cols * m.ctx.n)
    assert got.ctx == make_ext_field(m.ctx.q, 1)
    assert got.to_code_rows() == reference_expand(m)


@seed(20260111)
@settings(max_examples=150, deadline=None)
@given(matrices(PRIME_FIELDS[:4], max_dim=7), st.integers(1, 6))
def test_left_null_basis_commutes_with_lift(m, n):
    """Eliminating a lifted base-field matrix repeats the base-field steps
    on the same codes, so the left-null basis of the lifted matrix is the
    lifted left-null basis (synth_random lifts the tap's)."""
    ext = make_ext_field(m.ctx.q, n)
    assert lift(left_nullspace_basis(m), ext) == left_nullspace_basis(lift(m, ext))


@st.composite
def shaped_matrices(draw, fields, rows, cols):
    """A matrix over one of `fields` whose row and column counts are drawn
    from the strategies `rows` and `cols` (cols may depend on rows)."""
    ctx = draw(st.sampled_from(fields))
    r = draw(rows)
    c = draw(cols(r))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    grid = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return FMatrix.from_rows(ctx, grid, cols=c)


@seed(20260116)
@settings(max_examples=120, deadline=None)
@given(shaped_matrices(PRIME_FIELDS + EXT_FIELDS, st.integers(0, 4), lambda r: st.integers(0, 48)))
def test_wide_nullspaces_match_reduced_echelon_reference(m):
    """Few pivots and up to 48 free columns, the shape of the tap's
    transpose W^T."""
    assert right_nullspace_basis(m) == reference_nullspace_rows(m).transpose()
    assert left_nullspace_basis(m.transpose()) == reference_nullspace_rows(m)


@seed(20260117)
@settings(max_examples=60, deadline=None)
@given(shaped_matrices(PRIME_FIELDS + EXT_FIELDS, st.integers(1, 14), lambda r: st.integers(r + 1, r + 3)))
def test_many_pivot_nullspaces_match_reduced_echelon_reference(m):
    """Many pivots and 1-3 free columns, the shape of F^T for a
    communication matrix F, whose left-null basis has s rows."""
    want = reference_nullspace_rows(m)
    assert right_nullspace_basis(m) == want.transpose()
    assert left_nullspace_basis(m.transpose()) == want
    assert _left_null_and_ginverse(m.transpose())[0] == want


# ---------------------------------------------------------------------------
# The kernel skips the pivot row's zeros; the dense kernel it replaced
# (conftest.dense_eliminate) must leave the same rows and the same pivots.


def _grid(ctx, rows, cols, density, rng):
    return [
        [rng.randrange(1, ctx.order) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _kernel_cases(ctx, rng):
    """(rows, limit) pairs: dense, sparse and augmented [A | I] grids, each
    eliminated up to its width and up to a limit short of it."""
    for rows, cols in ((5, 7), (7, 5), (6, 6), (1, 9), (9, 1), (0, 4), (3, 0)):
        for density in (1.0, 0.8, 0.2):
            grid = _grid(ctx, rows, cols, density, rng)
            if rows > 2:
                # a dependent row: some columns lose their pivot
                grid[-1] = [ctx.add_code(a, b) for a, b in zip(grid[0], grid[1])]
            yield grid, cols
            yield grid, cols // 2
            augmented = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(grid)]
            yield augmented, cols
            yield augmented, cols + rows


def _assert_kernel_matches(ctx, grid, limit, full):
    got, want = [list(r) for r in grid], [list(r) for r in grid]
    assert _eliminate(ctx, got, limit, full) == dense_eliminate(ctx, want, limit, full)
    assert got == want


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_sparse_kernel_matches_dense_referee(q, n):
    ctx = make_ext_field(q, n)
    rng = random.Random(q * 100 + n)
    for grid, limit in _kernel_cases(ctx, rng):
        for full in (False, True):
            _assert_kernel_matches(ctx, grid, limit, full)


@seed(20260120)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(REFEREE_FIELDS),
    st.integers(0, 7),
    st.integers(0, 9),
    st.sampled_from((0.1, 0.4, 1.0)),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_hypothesis_sparse_kernel_matches_dense_referee(field, rows, cols, density, augment, full, data):
    ctx = make_ext_field(*field)
    grid = _grid(ctx, rows, cols, density, random.Random(data.draw(st.integers(0, 10**6))))
    if augment:
        grid = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(grid)]
    limit = data.draw(st.integers(0, len(grid[0]) if grid else cols))
    _assert_kernel_matches(ctx, grid, limit, full)


# ---------------------------------------------------------------------------
# One expansion of several matrices: each piece is the matrix's own
# expansion, whatever its neighbours, empty pieces included.


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_expansion_of_several_matrices_matches_each_alone(q, n):
    ctx = make_ext_field(q, n)
    rng = random.Random(q * 100 + n)
    d = 4
    pieces = [
        random_matrix(ctx, d, 3, rng),   # [F | key]
        FMatrix.zeros(ctx, d, 0),        # no tap columns
        random_matrix(ctx, 3, d, rng),   # L
        FMatrix.zeros(ctx, 0, d),        # L of an F with no columns
        random_matrix(ctx, 1, 2, rng),   # N
        random_matrix(ctx, 6, 1, rng),   # stacked R_v
    ]
    dtype = _int_dtype(ctx, 8 * n)
    got = _expand(pieces, dtype)
    assert len(got) == len(pieces)
    for m, part in zip(pieces, got):
        alone = _expand([m], dtype)[0]
        assert part.shape == alone.shape == (m.rows * n, m.cols * n)
        assert part.tolist() == alone.tolist() == reference_expand(m)
    # the maps of a run on a single-edge source, whose F has no columns
    f = FMatrix.zeros(ctx, 1, 0)
    null, ginv, _ = _left_null_and_ginverse(f)
    maps = [f.hstack(FMatrix.identity(ctx, 1)), ginv, null]
    for m, part in zip(maps, _expand(maps, dtype)):
        assert part.tolist() == reference_expand(m)


def test_floor_mod_is_exact_on_both_signs_and_across_blocks():
    """x - q*floor(x/q) in place against Python's %, on every integer x with
    -(2**53 - q) <= x < 2**53 (simulate reduces x - comm @ L, which is
    negative), over more than one _MOD_BLOCK; a layout the kernel cannot
    reduce in place is refused."""
    rng = random.Random(21)
    for q in (2, 3, 103, 94906249):
        low = -(2**53 - q)
        xs = [rng.randrange(low, 2**53) for _ in range(7 * (_MOD_BLOCK // 7 + 9))]
        xs[:7] = [low, low + 1, 2**53 - 1, -q, -1, 0, q - 1]
        a = np.array(xs, dtype=np.float64).reshape(-1, 7)
        assert _floor_mod(a, q) is a
        assert a.reshape(-1).tolist() == [x % q for x in xs]
    with pytest.raises(ValueError, match="C-contiguous"):
        _floor_mod(np.zeros((4, 6)).T, 5)
