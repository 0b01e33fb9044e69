"""Instance reduction: absorbing wiretap knowledge into smaller sources."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from treepin import (
    FMatrix,
    ReductionError,
    TreePinSource,
    Wiretapper,
    capacity_report,
    is_irreducible,
    make_ext_field,
    reduce_full,
)
from treepin.falinalg import col_space_intersect, rank, right_nullspace_basis
from treepin.oracle import mcf_exhaustive
from treepin.reduce import _reduce_step

from conftest import (
    _common_on_block,
    build_reducible_suite,
    completion_indices,
    edge_spec,
    in_col_span,
    instances,
    inverse,
    late_pivot_instances,
    parity_path,
    relabelled_instances,
    solve_right,
    star3_no_wiretap,
    w_minus_e_common,
    wide_path_irreducible,
    wide_path_reducible,
)


def test_is_irreducible_examples():
    assert is_irreducible(*parity_path())
    assert is_irreducible(*wide_path_irreducible())
    assert is_irreducible(*star3_no_wiretap())
    assert not is_irreducible(*wide_path_reducible())


def test_reduce_step_on_wide_path():
    src, wt = wide_path_reducible()
    src2, wt2, step = _reduce_step(src, wt, 0)
    assert step.edge_id == 0
    assert step.dim == 1
    assert step.new_mult == 1
    assert step.edge_map.shape == (2, 1)
    assert step.completion == (0,)
    unit = FMatrix.basis_columns(step.edge_map.ctx, 2, step.completion)
    assert rank(step.edge_map.hstack(unit)) == 2
    assert src2.base_dim == 3
    assert edge_spec(src2, 0).mult == 1
    assert wt2.dim == 1
    # the column inside the removed block is gone; the crossing one remains
    assert [x.code for x in wt2.matrix.col(0)] == [0, 1, 1]
    assert is_irreducible(src2, wt2)


def test_reduce_step_preserves_rates():
    src, wt = wide_path_reducible()
    before = capacity_report(src, wt)
    src2, wt2, _ = _reduce_step(src, wt, 0)
    after = capacity_report(src2, wt2)
    assert before.cw_dims == after.cw_dims
    assert before.rl_dims == after.rl_dims
    assert before.cw_bits == after.cw_bits
    assert before.rl_bits == after.rl_bits


def test_reduce_step_requires_overlap():
    src, wt = parity_path()
    for e in src.edges:
        assert _common_on_block(wt, src.edge_range(e.edge_id)).cols == 0
        with pytest.raises(ReductionError):
            _reduce_step(src, wt, e.edge_id)


def test_reduce_step_rejects_fully_absorbed_edge():
    """An edge whose whole block is wiretapped cannot be shrunk to nothing."""
    src, _ = wide_path_reducible()
    from treepin import FMatrix, Wiretapper

    full = Wiretapper(
        FMatrix.from_cols(
            src.base_ctx, [[1, 0, 0, 0], [0, 1, 0, 0]], rows=4
        )
    )
    assert _common_on_block(full, src.edge_range(0)).cols == 2
    with pytest.raises(ReductionError):
        _reduce_step(src, full, 0)


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
            l = _common_on_block(wt, src.edge_range(e.edge_id)).cols
            assert l <= min(e.mult, wt.dim)


def _completion(m):
    return FMatrix.basis_columns(m.ctx, m.rows, completion_indices(m))


def referee_reduce_step(src, wt, edge_id):
    """Referee: one reduction step with the common part taken through
    W_{-e} (W without the edge's rows), then the change of basis on the
    block and the column pivoting of the tap."""
    common = w_minus_e_common(src, wt, edge_id)
    l = common.cols
    if l == 0:
        raise ReductionError(f"edge {edge_id} shares nothing with the eavesdropper")
    edge = edge_spec(src, edge_id)
    if l == edge.mult:
        raise ReductionError(
            f"edge {edge_id} is fully absorbed by the eavesdropper; the "
            f"reduced source would lose the edge entirely"
        )
    block = src.edge_range(edge_id)
    ctx, d, n_w = src.base_ctx, src.base_dim, wt.dim
    edge_map = common.take_rows(block)
    completion = _completion(edge_map)
    change_inv = inverse(edge_map.hstack(completion))
    w = wt.matrix
    grid = w.to_code_rows()
    grid[block.start : block.stop] = (change_inv @ w.take_rows(block)).to_code_rows()
    w_new = FMatrix.from_rows(ctx, grid, cols=n_w)
    g_rows = [block.start + k for k in range(l)]
    coeffs = solve_right(w_new, FMatrix.basis_columns(ctx, d, g_rows))
    w_pivoted = w_new @ coeffs.hstack(_completion(coeffs))
    reduced = FMatrix.from_rows(
        ctx,
        [row[l:] for i, row in enumerate(w_pivoted.to_code_rows()) if i not in g_rows],
        cols=n_w - l,
    )
    new_wt = Wiretapper(reduced)
    step = (edge_id, l, edge_map, completion_indices(edge_map), edge.mult - l, new_wt)
    return src.with_multiplicity(edge_id, edge.mult - l), new_wt, step


def referee_reduce_full(src, wt):
    """Referee loop: each step reduces the first listed edge whose W_{-e}
    overlap is nonzero."""
    steps = []
    while True:
        target = next(
            (e.edge_id for e in src.edges if w_minus_e_common(src, wt, e.edge_id).cols),
            None,
        )
        if target is None:
            return steps, (src, wt)
        src, wt, step = referee_reduce_step(src, wt, target)
        steps.append(step)


def _fields(step):
    return (
        step.edge_id,
        step.dim,
        step.edge_map,
        step.completion,
        step.new_mult,
        step.new_wiretapper,
    )


def assert_trace_matches_referee(src, wt):
    """reduce_full gives the referee's trace step by step, or the
    referee's ReductionError.  Returns the number of steps."""
    try:
        want_steps, want_final = referee_reduce_full(src, wt)
    except ReductionError as exc:
        with pytest.raises(ReductionError, match=re.escape(str(exc))):
            reduce_full(src, wt)
        return 0
    trace = reduce_full(src, wt)
    assert [_fields(step) for step in trace.steps] == want_steps
    assert trace.original == (src, wt)
    assert trace.final == want_final
    return len(want_steps)


@st.composite
def injected_instances(draw):
    """A relabelled instance with one tap column replaced by a vector on a
    single block of multiplicity >= 2, so most draws are reducible and
    many reduce in several steps."""
    src, wt = draw(relabelled_instances(max_vertices=9))
    fat = [e for e in src.edges if e.mult >= 2]
    assume(wt.dim >= 1 and fat)
    block = src.edge_range(draw(st.sampled_from(fat)).edge_id)
    entries = st.lists(st.integers(0, src.q - 1), min_size=len(block), max_size=len(block))
    on_block = draw(entries.filter(any))
    cols = wt.matrix.transpose().to_code_rows()
    cols[draw(st.integers(0, wt.dim - 1))] = [
        on_block[i - block.start] if i in block else 0 for i in range(src.base_dim)
    ]
    w = FMatrix.from_cols(src.base_ctx, cols, rows=src.base_dim)
    assume(rank(w) == wt.dim)
    return src, Wiretapper(w)


@seed(20260114)
@settings(max_examples=200, deadline=None)
@given(relabelled_instances())
def test_reduce_full_trace_matches_w_minus_e_referee(inst):
    assert_trace_matches_referee(*inst)


@seed(20260115)
@settings(max_examples=200, deadline=None)
@given(injected_instances())
def test_reduce_full_trace_matches_referee_on_injected_taps(inst):
    assert_trace_matches_referee(*inst)


def assert_steps_match_referee(src, wt):
    """The full trace matches the referee's, and so does a single step on
    each edge.  Returns the number of steps of the full trace."""
    steps = assert_trace_matches_referee(src, wt)
    for e in src.edges:
        try:
            want = referee_reduce_step(src, wt, e.edge_id)
        except ReductionError as exc:
            with pytest.raises(ReductionError, match=re.escape(str(exc))):
                _reduce_step(src, wt, e.edge_id)
            continue
        got_src, got_wt, got_step = _reduce_step(src, wt, e.edge_id)
        assert (got_src, got_wt, _fields(got_step)) == want
    return steps


def test_reduce_full_trace_matches_referee_on_reducible_suite():
    """The injected suite reduces cleanly, so every trace there is a
    full one; a single step on each overlapping edge matches too."""
    steps = sum(assert_steps_match_referee(src, wt) for src, wt in build_reducible_suite(40))
    assert steps >= 40


def odd_q_instance(q, l):
    """Edges listed as [4, 2, 7] with multiplicities 2, 3, 1 over F_q; edge
    2 (coordinates 2..4) shares exactly l of the tap's three dimensions,
    and the tap mixes those with a crossing column, so no column of W lies
    in the common part by itself."""
    src = TreePinSource(q, 4, [(4, 0, 1, 2), (2, 1, 2, 3), (7, 1, 3, 1)])
    a = [0, 0, 1, 2, q - 1, 0]
    b = [0, 0, 0, 1, 2, 0]
    c = [1, 0, 1, 0, 0, 1]
    d = [0, 1, 2, 0, 1, 0]
    mix = lambda u, v: [(x + y) % q for x, y in zip(u, v)]
    cols = [mix(a, c), mix(b, a), c] if l == 2 else [mix(a, d), c, d]
    return src, Wiretapper(FMatrix.from_cols(src.base_ctx, cols, rows=6))


@pytest.mark.parametrize("l", [2, 1])
@pytest.mark.parametrize("q", [3, 5, 7])
def test_reduce_full_trace_matches_referee_on_odd_q_common_parts(q, l):
    """Odd q with a common part of dimension 2 (a 1-row residual) or 1 (a
    2-row residual) on a multiplicity-3 edge; the random suite has l = 2
    only over F_2."""
    src, wt = odd_q_instance(q, l)
    assert assert_steps_match_referee(src, wt) >= 1
    first = reduce_full(src, wt).steps[0]
    assert (first.edge_id, first.dim, first.new_mult) == (2, l, 3 - l)


def test_reduce_full_follows_listed_edge_order():
    """Edges listed as [5, 3] that both share a tap coordinate: the first
    step reduces edge 5, the first one listed, not the lower id."""
    src = TreePinSource(2, 3, [(5, 0, 1, 2), (3, 1, 2, 2)])
    # coordinates 0, 1 belong to edge 5 and 2, 3 to edge 3
    wt = Wiretapper(FMatrix.basis_columns(src.base_ctx, 4, [0, 2]))
    trace = reduce_full(src, wt)
    assert [step.edge_id for step in trace.steps] == [5, 3]
    assert [e.mult for e in trace.final[0].edges] == [1, 1]
    assert trace.final[1].dim == 0
    assert_trace_matches_referee(src, wt)


@seed(20260120)
@settings(max_examples=150, deadline=None)
@given(late_pivot_instances())
def test_reduce_full_trace_matches_referee_on_late_pivot_taps(inst):
    assert_trace_matches_referee(*inst)


def assert_steps_carry_fresh_bases(trace):
    """Each reduced wiretapper holds the N_W^T and pivot coordinates a
    wiretapper built afresh from its matrix gets."""
    for step in trace.steps:
        wt = step.new_wiretapper
        fresh = Wiretapper(wt.matrix)
        whole = range(wt.rows)
        want = right_nullspace_basis(wt.matrix.transpose())
        assert wt.null_rows(whole) == fresh.null_rows(whole) == want
        assert wt.pivot_coords == fresh.pivot_coords


def test_reduction_steps_carry_fresh_tap_bases():
    steps = 0
    for src, wt in build_reducible_suite(40):
        trace = reduce_full(src, wt)
        assert_steps_carry_fresh_bases(trace)
        steps += len(trace.steps)
    assert steps >= 40
    assert_steps_carry_fresh_bases(reduce_full(*wide_path_reducible()))


def test_a_reduction_step_runs_four_eliminations(monkeypatch):
    """One RREF of N_W[:, block] gives a step its common part, completion
    and residual rows; the RREF of the common part's basis, the one of
    [T | W_P] and the new wiretapper's elimination make four."""
    import treepin.falinalg as falinalg

    calls = []
    eliminate = falinalg._eliminate

    def counting(*args, **kwargs):
        calls.append(1)
        return eliminate(*args, **kwargs)

    steps = 0
    for src, wt in [wide_path_reducible(), *build_reducible_suite(20)]:
        trace = reduce_full(src, wt)
        with monkeypatch.context() as m:
            m.setattr(falinalg, "_eliminate", counting)
            for step in trace.steps:
                calls.clear()
                src, wt, _ = _reduce_step(src, wt, step.edge_id)
                assert len(calls) == 4
                steps += 1
    assert steps >= 20


# ---------------------------------------------------------------------------
# Common parts of pairs of linear observations, and of an edge and the tap

F2 = make_ext_field(2, 1)
F3 = make_ext_field(3, 1)


def random_matrix(ctx, rows, cols, rng):
    return FMatrix.from_rows(
        ctx,
        [[rng.randrange(ctx.order) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def test_self_mcf_has_full_dim():
    rng = random.Random(4)
    for _ in range(20):
        m = random_matrix(F3, 4, 3, rng)
        assert col_space_intersect(m, m).cols == rank(m)


def test_independent_observations_share_nothing():
    a = FMatrix.basis_columns(F2, 4, [0, 1])
    b = FMatrix.basis_columns(F2, 4, [2, 3])
    assert col_space_intersect(a, b).cols == 0


def test_entropy_bits():
    m = FMatrix.identity(F3, 2)
    assert col_space_intersect(m, m).cols == 2
    assert mcf_exhaustive(m, m, 3).bits == 2 * math.log2(3)


def test_mcf_dim_bounded_by_ranks():
    rng = random.Random(8)
    for _ in range(60):
        a = random_matrix(F2, 5, rng.randint(1, 4), rng)
        b = random_matrix(F2, 5, rng.randint(1, 4), rng)
        g = col_space_intersect(a, b)
        assert g.cols <= min(rank(a), rank(b))
        for j in range(g.cols):
            col = g.take_cols([j])
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
        assert col_space_intersect(blk, w1).cols <= col_space_intersect(blk, w2).cols


def test_agrees_with_exhaustive_enumeration():
    """The subspace computation matches brute force over all base vectors."""
    rng = random.Random(42)
    checked = 0
    for _ in range(25):
        rows = rng.randint(2, 4)
        a = random_matrix(F2, rows, rng.randint(1, 3), rng)
        b = random_matrix(F2, rows, rng.randint(1, 3), rng)
        dim = col_space_intersect(a, b).cols
        brute = mcf_exhaustive(a, b, 2)
        assert brute.n_components == 2**dim
        assert brute.bits == math.log2(2**dim)
        checked += 1
    assert checked == 25


def test_exhaustive_labels_are_functions_of_linear_mcf():
    """Both label maps factor through the linear common function and back:
    realisations of X a with equal component labels give equal X mg values,
    and distinct labels give distinct values."""
    src, wt = wide_path_reducible()
    blk = src.edge_block_selector(0)
    mg = col_space_intersect(blk, wt.matrix)
    brute = mcf_exhaustive(blk, wt.matrix, src.q)
    assert brute.n_components == 2**mg.cols

    # map each observed left value to its mcf value by scanning base vectors
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
    """The common part on the block, placed by the edge's selector, is the
    very basis the Zassenhaus intersection returns, and its dimension is
    n_w - rank(W without e)."""
    src, wt = inst
    for e in src.edges:
        block = src.edge_range(e.edge_id)
        sel = src.edge_block_selector(e.edge_id)
        got = sel @ _common_on_block(wt, block)
        assert got == col_space_intersect(sel, wt.matrix)
        outside = [i for i in range(src.base_dim) if i not in block]
        assert got.cols == wt.dim - rank(wt.matrix.take_rows(outside))
