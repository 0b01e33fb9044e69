"""Key capacity and leakage rate formulas."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, seed, settings

from treepin import (
    FMatrix,
    TreePinSource,
    Wiretapper,
    capacity_report,
    is_irreducible,
    random_instance,
    reduce_full,
)
from treepin.capacity import _edge_overlaps
from treepin.falinalg import col_space_intersect, rank
from treepin.oracle import MCF_BUDGET, mcf_exhaustive
from treepin.reduce import _common_on_block

from conftest import (
    build_irreducible_suite,
    instances,
    late_pivot_instances,
    parity_path,
    relabelled_instances,
    star3_no_wiretap,
    w_minus_e_common,
    wide_path_irreducible,
    wide_path_reducible,
)


def test_parity_path_dims_and_bits():
    src, wt = parity_path()
    rep = capacity_report(src, wt)
    assert (rep.cs_dims, rep.cw_dims, rep.rl_dims, rep.rco_dims) == (1, 1, 1, 2)
    assert rep.cs_bits == 1.0
    assert rep.cw_bits == 1.0
    assert rep.rl_bits == 1.0
    assert rep.rco_bits == 2.0
    assert rep.base_dim == 3 and rep.wiretap_dim == 1 and rep.min_mult == 1
    assert [e.mcf_dim for e in rep.per_edge] == [0, 0, 0]
    assert rep.argmin_edges == (0, 1, 2)


def test_wide_path_reducible_report():
    src, wt = wide_path_reducible()
    rep = capacity_report(src, wt)
    assert rep.cw_dims == 1
    assert rep.cs_dims == 1
    assert rep.rl_dims == 1  # (4 - 2) - 1
    assert rep.rco_dims == 3
    assert [e.mcf_dim for e in rep.per_edge] == [1, 0, 0]
    assert [e.residual_dims for e in rep.per_edge] == [1, 1, 1]
    assert rep.argmin_edges == (0, 1, 2)
    assert rep.per_edge[0].residual_dims * math.log2(rep.q) == 1.0


def test_wide_path_irreducible_report():
    src, wt = wide_path_irreducible()
    rep = capacity_report(src, wt)
    assert rep.cw_dims == rep.cs_dims == 1
    assert rep.rl_dims == 4 - 1 - 1
    assert rep.argmin_edges == (1, 2)


def test_no_wiretap_means_full_capacity():
    src, wt = star3_no_wiretap()
    rep = capacity_report(src, wt)
    assert rep.wiretap_dim == 0
    assert rep.cw_dims == rep.cs_dims == 1
    assert rep.rl_dims == rep.rco_dims == 2


def test_bits_scale_with_log_q():
    src = TreePinSource(3, 3, [(0, 0, 1, 2), (1, 1, 2, 1)])
    wt = Wiretapper(FMatrix.zeros(src.base_ctx, 3, 0))
    rep = capacity_report(src, wt)
    assert rep.cw_bits == pytest.approx(math.log2(3))
    assert rep.rco_bits == pytest.approx(2 * math.log2(3))
    assert rep.cs_bits == pytest.approx(math.log2(3))
    assert rep.rl_bits == pytest.approx(2 * math.log2(3))


def test_wiretap_never_helps():
    """More wiretap columns can only shrink the key and grow the leakage."""
    src, wt = wide_path_reducible()
    narrow = Wiretapper(wt.matrix.take_cols([0]))
    rep_narrow = capacity_report(src, narrow)
    rep_wide = capacity_report(src, wt)
    assert rep_wide.cw_dims <= rep_narrow.cw_dims
    assert rep_wide.cw_bits <= rep_narrow.cw_bits <= rep_narrow.cs_bits


def test_key_plus_leakage_identity():
    """Key dims plus leakage dims always equals base dim minus wiretap dim."""
    for build in (parity_path, wide_path_reducible, wide_path_irreducible,
                  star3_no_wiretap):
        src, wt = build()
        rep = capacity_report(src, wt)
        assert rep.cw_dims + rep.rl_dims == src.base_dim - wt.dim
        assert rep.rl_bits == pytest.approx(
            (src.base_dim - wt.dim) * math.log2(src.q) - rep.cw_bits
        )


def test_irreducible_instances_reach_unwiretapped_capacity():
    suite = build_irreducible_suite(60)
    for src, wt in suite:
        assert is_irreducible(src, wt)
        rep = capacity_report(src, wt)
        assert rep.cw_dims == rep.cs_dims == src.min_mult
        assert rep.rl_dims == src.base_dim - wt.dim - src.min_mult
        assert all(e.mcf_dim == 0 for e in rep.per_edge)


# ---------------------------------------------------------------------------
# Per-edge overlaps with the tap, from the tap's left-null basis N_W


def test_per_edge_dims_on_wide_path():
    assert list(_edge_overlaps(*wide_path_reducible())) == [1, 0, 0]
    assert list(_edge_overlaps(*parity_path())) == [0, 0, 0]


@seed(20260108)
@settings(max_examples=40, deadline=None)
@given(instances(max_vertices=4, max_mult=2, qs=(2, 3)))
def test_edge_overlap_dimension_matches_exhaustive(inst):
    src, wt = inst
    assert src.q**src.base_dim <= MCF_BUDGET
    for e, dim in zip(src.edges, _edge_overlaps(src, wt)):
        brute = mcf_exhaustive(src.edge_block_selector(e.edge_id), wt.matrix, src.q)
        assert brute.n_components == src.q**dim


def assert_overlaps_match_referee(src, wt):
    """Every per-edge answer of the left-null route of the tap equals the
    W_{-e} referee and the Zassenhaus intersection, and every consumer of
    the overlaps agrees with it."""
    null_t = wt.null_rows(range(wt.rows))
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
        on_block = _common_on_block(wt, block)
        assert on_block == ref.take_rows(block)
        sel = src.edge_block_selector(e.edge_id)
        assert sel @ on_block == ref
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
    assert empty.null_rows(range(d)) == FMatrix.identity(ctx, d)
    assert assert_overlaps_match_referee(src, full) == [e.mult for e in src.edges]
    assert full.null_rows(range(d)).shape == (d, 0)


def test_mismatched_tap_raises_value_error():
    src, wt = random_instance(4, 5, 2, 3, 2)
    short = Wiretapper(wt.matrix.take_rows(range(src.base_dim - 1)))
    for call in (
        lambda: list(_edge_overlaps(src, short)),
        lambda: capacity_report(src, short),
        lambda: is_irreducible(src, short),
        lambda: reduce_full(src, short),
    ):
        with pytest.raises(ValueError, match="wiretap matrix does not match the source dimension"):
            call()
