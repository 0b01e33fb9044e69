"""Instance reduction: absorbing wiretap knowledge into smaller sources."""

from __future__ import annotations

import pytest

from treepin import (
    ReductionError,
    capacity_report,
    is_irreducible,
    reduce_full,
    reduce_once,
)
from treepin.falinalg import rank
from treepin.mcf import mcf_edge_wiretap

from conftest import (
    build_reducible_suite,
    parity_path,
    star3_no_wiretap,
    wide_path_irreducible,
    wide_path_reducible,
)


def test_is_irreducible_examples():
    assert is_irreducible(*parity_path())
    assert is_irreducible(*wide_path_irreducible())
    assert is_irreducible(*star3_no_wiretap())
    assert not is_irreducible(*wide_path_reducible())


def test_reduce_once_on_wide_path():
    src, wt = wide_path_reducible()
    src2, wt2, step = reduce_once(src, wt, 0)
    assert step.edge_id == 0
    assert step.dim == 1
    assert step.new_mult == 1
    assert step.edge_map.shape == (2, 1)
    assert step.completion.shape == (2, 1)
    assert rank(step.edge_map.hstack(step.completion)) == 2
    assert src2.base_dim == 3
    assert src2.edge(0).mult == 1
    assert wt2.dim == 1
    # the column inside the removed block is gone; the crossing one remains
    assert [x.code for x in wt2.matrix.col(0)] == [0, 1, 1]
    assert is_irreducible(src2, wt2)


def test_reduce_once_preserves_rates():
    src, wt = wide_path_reducible()
    before = capacity_report(src, wt)
    src2, wt2, _ = reduce_once(src, wt, 0)
    after = capacity_report(src2, wt2)
    assert before.cw_dims == after.cw_dims
    assert before.rl_dims == after.rl_dims
    assert before.cw_bits == after.cw_bits
    assert before.rl_bits == after.rl_bits


def test_reduce_once_requires_overlap():
    src, wt = parity_path()
    for e in src.edges:
        assert mcf_edge_wiretap(src, wt, e.edge_id).dim == 0
        with pytest.raises(ReductionError):
            reduce_once(src, wt, e.edge_id)


def test_reduce_once_rejects_fully_absorbed_edge():
    """An edge whose whole block is wiretapped cannot be shrunk to nothing."""
    src, _ = wide_path_reducible()
    from treepin import FMatrix, Wiretapper

    full = Wiretapper(
        FMatrix.from_cols(
            src.base_ctx, [[1, 0, 0, 0], [0, 1, 0, 0]], rows=4
        )
    )
    assert mcf_edge_wiretap(src, full, 0).dim == 2
    with pytest.raises(ReductionError):
        reduce_once(src, full, 0)


def test_reduce_full_trace_on_wide_path():
    src, wt = wide_path_reducible()
    trace = reduce_full(src, wt)
    assert len(trace.steps) == 1
    assert sum(s.dim for s in trace.steps) == 1
    assert trace.original == (src, wt)
    fsrc, fwt = trace.final
    assert is_irreducible(fsrc, fwt)
    assert fsrc.base_dim == 3
    assert fwt.dim == 1


def test_reduce_full_noop_when_irreducible():
    for build in (parity_path, wide_path_irreducible, star3_no_wiretap):
        src, wt = build()
        trace = reduce_full(src, wt)
        assert trace.steps == ()
        assert sum(s.dim for s in trace.steps) == 0
        assert trace.final == (src, wt)


def test_reduction_suite_preserves_rates_and_terminates():
    suite = build_reducible_suite(40)
    for src, wt in suite:
        before = capacity_report(src, wt)
        trace = reduce_full(src, wt)
        assert len(trace.steps) >= 1
        fsrc, fwt = trace.final
        assert is_irreducible(fsrc, fwt)
        after = capacity_report(fsrc, fwt)
        assert before.cw_dims == after.cw_dims
        assert before.rl_dims == after.rl_dims
        # each step removes exactly its dim from both D and n_w
        removed = sum(s.dim for s in trace.steps)
        assert fsrc.base_dim == src.base_dim - removed
        assert fwt.dim == wt.dim - removed
        for step in trace.steps:
            assert 1 <= step.dim
            assert step.new_wiretapper.dim >= 0


def test_overlap_dim_bounded():
    suite = build_reducible_suite(15)
    for src, wt in suite:
        for e in src.edges:
            l = mcf_edge_wiretap(src, wt, e.edge_id).dim
            assert l <= min(e.mult, wt.dim)
