"""Maximal common functions of pairs of linear observations."""

from __future__ import annotations

import math
import random

from hypothesis import given, seed, settings, strategies as st

from treepin import FMatrix, make_ext_field, mcf_edge_wiretap, mcf_linear, random_instance
from treepin.falinalg import col_space_intersect, in_col_span, rank
from treepin.oracle import MCF_BUDGET, mcf_exhaustive

from conftest import parity_path, wide_path_reducible

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
        assert mcf_linear(m, m).dim == rank(m)


def test_independent_observations_share_nothing():
    a = FMatrix.basis_columns(F2, 4, [0, 1])
    b = FMatrix.basis_columns(F2, 4, [2, 3])
    assert mcf_linear(a, b).dim == 0


def test_entropy_bits():
    m = FMatrix.identity(F3, 2)
    got = mcf_linear(m, m).entropy_bits
    assert got == 2 * math.log2(3)


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
        assert brute.bits == linear.entropy_bits
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
    from treepin.falinalg import vec_mat_mul

    return vec_mat_mul(vec, m)


@st.composite
def instances(draw, max_vertices=7, max_mult=3, qs=(2, 3, 5)):
    """A random_instance whose tap width is drawn after the base dimension
    is known (the tree and multiplicities do not depend on it), so heavy
    taps with nonzero overlaps are common."""
    inst_seed = draw(st.integers(0, 10**6))
    q = draw(st.sampled_from(qs))
    vertices = draw(st.integers(2, max_vertices))
    mult = draw(st.integers(1, max_mult))
    base_dim = random_instance(inst_seed, vertices, mult, q, 0)[0].base_dim
    n_w = draw(st.integers(0, base_dim))
    return random_instance(inst_seed, vertices, mult, q, n_w)


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
