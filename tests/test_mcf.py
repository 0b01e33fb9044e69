"""Maximal common functions of pairs of linear observations."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, seed, settings

from treepin import (
    FMatrix,
    LinearMcf,
    TreePinSource,
    Wiretapper,
    capacity_report,
    is_irreducible,
    make_ext_field,
    mcf_edge_wiretap,
    random_instance,
    reduce_full,
)
from treepin.falinalg import col_space_intersect, rank
from treepin.mcf import _common_on_block, _edge_overlaps
from treepin.oracle import MCF_BUDGET, mcf_exhaustive

from conftest import (
    in_col_span,
    instances,
    late_pivot_instances,
    parity_path,
    relabelled_instances,
    w_minus_e_common,
    wide_path_reducible,
)

F2 = make_ext_field(2, 1)
F3 = make_ext_field(3, 1)


def random_matrix(ctx, rows, cols, rng):
    return FMatrix.from_rows(
        ctx,
        [[rng.randrange(ctx.order) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def mcf_linear(m1, m2):
    """Referee: the maximal common function of X m1 and X m2, X uniform,
    as the intersection of the two column spaces."""
    return LinearMcf(col_space_intersect(m1, m2))


def test_self_mcf_has_full_dim():
    rng = random.Random(4)
    for _ in range(20):
        m = random_matrix(F3, 4, 3, rng)
        assert mcf_linear(m, m).dim == rank(m)


def test_independent_observations_share_nothing():
    a = FMatrix.basis_columns(F2, 4, [0, 1])
    b = FMatrix.basis_columns(F2, 4, [2, 3])
    assert mcf_linear(a, b).dim == 0


def test_entropy_bits():
    m = FMatrix.identity(F3, 2)
    assert mcf_linear(m, m).dim == 2
    assert mcf_exhaustive(m, m, 3).bits == 2 * math.log2(3)


def test_per_edge_dims_on_wide_path():
    src, wt = wide_path_reducible()
    dims = [mcf_edge_wiretap(src, wt, e.edge_id).dim for e in src.edges]
    assert dims == [1, 0, 0]
    src2, wt2 = parity_path()
    dims2 = [mcf_edge_wiretap(src2, wt2, e.edge_id).dim for e in src2.edges]
    assert dims2 == [0, 0, 0]


def test_mcf_dim_bounded_by_ranks():
    rng = random.Random(8)
    for _ in range(60):
        a = random_matrix(F2, 5, rng.randint(1, 4), rng)
        b = random_matrix(F2, 5, rng.randint(1, 4), rng)
        g = mcf_linear(a, b)
        assert g.dim <= min(rank(a), rank(b))
        if g.dim:
            for j in range(g.dim):
                col = g.matrix.take_cols([j])
                assert in_col_span(a, col)
                assert in_col_span(b, col)


def test_wiretap_column_growth_is_monotone():
    """Adding wiretap columns can only grow what the edge shares with it."""
    rng = random.Random(15)
    src, _ = wide_path_reducible()
    blk = src.edge_block_selector(0)
    for _ in range(40):
        w1 = random_matrix(F2, src.base_dim, 2, rng)
        extra = random_matrix(F2, src.base_dim, 1, rng)
        w2 = w1.hstack(extra)
        assert mcf_linear(blk, w1).dim <= mcf_linear(blk, w2).dim


def test_agrees_with_exhaustive_enumeration():
    """The subspace computation matches brute force over all base vectors."""
    rng = random.Random(42)
    checked = 0
    for _ in range(25):
        rows = rng.randint(2, 4)
        a = random_matrix(F2, rows, rng.randint(1, 3), rng)
        b = random_matrix(F2, rows, rng.randint(1, 3), rng)
        linear = mcf_linear(a, b)
        brute = mcf_exhaustive(a, b, 2)
        assert brute.n_components == 2 ** linear.dim
        assert brute.bits == math.log2(2**linear.dim)
        checked += 1
    assert checked == 25


def test_exhaustive_labels_are_functions_of_linear_mcf():
    """Both label maps factor through the linear common function and back:
    realisations of X a with equal component labels give equal X mg values,
    and distinct labels give distinct values."""
    src, wt = wide_path_reducible()
    blk = src.edge_block_selector(0)
    linear = mcf_linear(blk, wt.matrix)
    brute = mcf_exhaustive(blk, wt.matrix, src.q)
    assert brute.n_components == 2 ** linear.dim

    # map each observed left value to its mcf value by scanning base vectors
    mg = linear.matrix
    label_to_mcf: dict[int, tuple[int, ...]] = {}
    mcf_to_label: dict[tuple[int, ...], int] = {}
    for codes in _all_base_vectors(src.base_dim):
        vec = [F2(c) for c in codes]
        left = tuple(x.code for x in _apply(vec, blk))
        g = tuple(x.code for x in _apply(vec, mg))
        lab = brute.labels_left[left]
        if lab in label_to_mcf:
            assert label_to_mcf[lab] == g
        else:
            label_to_mcf[lab] = g
        if g in mcf_to_label:
            assert mcf_to_label[g] == lab
        else:
            mcf_to_label[g] = lab
    assert len(label_to_mcf) == brute.n_components


def _all_base_vectors(dim):
    for k in range(2**dim):
        yield [(k >> i) & 1 for i in range(dim)]


def _apply(vec, m):
    """Row vector times matrix."""
    return (FMatrix(m.ctx, [vec], cols=m.rows) @ m).row(0)


@seed(20260107)
@settings(max_examples=120, deadline=None)
@given(instances())
def test_edge_overlap_identity_matches_zassenhaus(inst):
    """The rank-identity route returns the very basis the Zassenhaus
    intersection returns, and its dimension is n_w - rank(W without e)."""
    src, wt = inst
    for e in src.edges:
        got = mcf_edge_wiretap(src, wt, e.edge_id)
        sel = src.edge_block_selector(e.edge_id)
        assert got.matrix == col_space_intersect(sel, wt.matrix)
        block = src.edge_range(e.edge_id)
        outside = [i for i in range(src.base_dim) if i not in block]
        assert got.dim == wt.dim - rank(wt.matrix.take_rows(outside))


@seed(20260108)
@settings(max_examples=40, deadline=None)
@given(instances(max_vertices=4, max_mult=2, qs=(2, 3)))
def test_edge_overlap_dimension_matches_exhaustive(inst):
    src, wt = inst
    assert src.q**src.base_dim <= MCF_BUDGET
    for e in src.edges:
        brute = mcf_exhaustive(src.edge_block_selector(e.edge_id), wt.matrix, src.q)
        assert brute.n_components == src.q ** mcf_edge_wiretap(src, wt, e.edge_id).dim


def assert_overlaps_match_referee(src, wt):
    """Every per-edge answer of the left-null route of the tap equals the
    W_{-e} referee and the Zassenhaus intersection, and every consumer of
    the overlaps agrees with it."""
    null_t = wt.null_t
    assert null_t.shape == (src.base_dim, src.base_dim - wt.dim)
    assert (null_t.transpose() @ wt.matrix).is_zero()
    dims = list(_edge_overlaps(src, wt))
    # the pivot-free edges skip their rank; every edge ranked gives the same
    assert dims == [
        e.mult - rank(null_t.take_rows(src.edge_range(e.edge_id))) for e in src.edges
    ]
    report = capacity_report(src, wt)
    assert [e.mcf_dim for e in report.per_edge] == dims
    assert [e.edge_id for e in report.per_edge] == [e.edge_id for e in src.edges]
    assert is_irreducible(src, wt) == (not any(dims))
    for e, dim in zip(src.edges, dims):
        ref = w_minus_e_common(src, wt, e.edge_id)
        block = src.edge_range(e.edge_id)
        assert dim == ref.cols
        assert _common_on_block(wt, block) == ref.take_rows(block)
        assert mcf_edge_wiretap(src, wt, e.edge_id).matrix == ref
        sel = src.edge_block_selector(e.edge_id)
        assert col_space_intersect(sel, wt.matrix) == ref
    return dims


@seed(20260112)
@settings(max_examples=200, deadline=None)
@given(relabelled_instances())
def test_tap_left_null_route_matches_w_minus_e_referee(inst):
    assert_overlaps_match_referee(*inst)


@seed(20260113)
@settings(max_examples=40, deadline=None)
@given(relabelled_instances(max_vertices=4, max_mult=2, qs=(2, 3)))
def test_tap_left_null_route_matches_exhaustive(inst):
    src, wt = inst
    assert src.q**src.base_dim <= MCF_BUDGET
    dims = assert_overlaps_match_referee(src, wt)
    for e, dim in zip(src.edges, dims):
        brute = mcf_exhaustive(src.edge_block_selector(e.edge_id), wt.matrix, src.q)
        assert brute.n_components == src.q**dim


@seed(20260119)
@settings(max_examples=150, deadline=None)
@given(late_pivot_instances())
def test_pivot_skip_matches_referee_on_late_pivot_taps(inst):
    """Edges before the tap's first nonzero row hold no pivot coordinate
    and skip their rank; the edges that hold the pivots are the last."""
    src, wt = inst
    first = min((i for i, row in enumerate(wt.matrix.to_code_rows()) if any(row)), default=None)
    assert first is not None and all(p >= first for p in wt.pivot_coords)
    assert_overlaps_match_referee(src, wt)


def test_pivot_skip_on_a_tap_of_the_last_edge():
    """W sees the last edge's first symbol, and the second edge's symbol
    plus twice the last edge's second one: the first edge holds no pivot
    and skips its rank, the second holds one and still overlaps in
    nothing."""
    src = TreePinSource(3, 4, [(5, 0, 1, 2), (2, 1, 2, 1), (9, 2, 3, 2)])
    w = FMatrix.from_cols(src.base_ctx, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 2]], rows=5)
    wt = Wiretapper(w)
    assert wt.pivot_coords == (2, 3)
    assert assert_overlaps_match_referee(src, wt) == [0, 0, 1]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("seed_", [1, 2, 3])
def test_tap_left_null_route_at_empty_and_full_tap(q, seed_):
    """n_w = 0 leaves N_W the identity and no edge overlaps; n_w = D leaves
    N_W empty and every edge is absorbed whole."""
    src, _ = random_instance(seed_, 6, 3, q, 0)
    d = src.base_dim
    ctx = src.base_ctx
    empty = Wiretapper(FMatrix.zeros(ctx, d, 0))
    full = Wiretapper(random_instance(seed_, 6, 3, q, d)[1].matrix)
    assert full.dim == d
    assert assert_overlaps_match_referee(src, empty) == [0] * src.edge_count
    assert empty.null_t == FMatrix.identity(ctx, d)
    assert assert_overlaps_match_referee(src, full) == [e.mult for e in src.edges]
    assert full.null_t.shape == (d, 0)


def test_mismatched_tap_raises_value_error():
    src, wt = random_instance(4, 5, 2, 3, 2)
    short = Wiretapper(wt.matrix.take_rows(range(src.base_dim - 1)))
    for call in (
        lambda: mcf_edge_wiretap(src, short, src.edges[0].edge_id),
        lambda: capacity_report(src, short),
        lambda: is_irreducible(src, short),
        lambda: reduce_full(src, short),
    ):
        with pytest.raises(ValueError, match="wiretap matrix does not match the source dimension"):
            call()
