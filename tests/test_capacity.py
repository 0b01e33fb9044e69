"""Key capacity and leakage rate formulas."""

from __future__ import annotations

import math

import pytest

from treepin import (
    FMatrix,
    TreePinSource,
    Wiretapper,
    capacity_report,
    is_irreducible,
)

from conftest import (
    build_irreducible_suite,
    parity_path,
    star3_no_wiretap,
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
