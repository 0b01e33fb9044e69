"""Source/wiretapper model, instance file format, random generator."""

from __future__ import annotations

import random

import pytest

from treepin import (
    EdgeSpec,
    FMatrix,
    InstanceError,
    TreePinSource,
    Wiretapper,
    load_instance,
    make_ext_field,
    random_instance,
    save_instance,
)
from treepin.falinalg import rank

from conftest import parity_path, star3_no_wiretap


def test_basic_structure():
    src, wt = parity_path()
    assert src.q == 2
    assert src.vertex_count == 4
    assert src.edge_count == 3
    assert src.base_dim == 3
    assert src.min_mult == 1
    assert tuple(e.edge_id for e in src.edges) == (0, 1, 2)
    assert src.leaves() == (0, 3)
    assert src.degree(1) == 2
    assert src.edge(1) == EdgeSpec(1, 1, 2, 1)
    assert src.edge_range(2) == range(2, 3)
    assert wt.dim == 1 and wt.rows == 3


def test_coordinate_layout_follows_edge_order():
    src = TreePinSource(3, 3, [EdgeSpec(7, 0, 1, 2), EdgeSpec(2, 1, 2, 3)])
    assert src.base_dim == 5
    assert src.edge_range(7) == range(0, 2)
    assert src.edge_range(2) == range(2, 5)
    with pytest.raises(InstanceError):
        src.edge_range(0)
    with pytest.raises(InstanceError):
        src.edge(0)


def test_node_view():
    src = TreePinSource(3, 3, [EdgeSpec(7, 0, 1, 2), EdgeSpec(2, 1, 2, 3)])
    nv = src.node_view(1)
    assert nv.coords == (0, 1, 2, 3, 4)
    assert sorted(nv.edge_ids) == [2, 7]
    leaf = src.node_view(2)
    assert leaf.coords == (2, 3, 4)
    sel = leaf.selector(src.base_ctx)
    assert sel.shape == (5, 3)
    assert sel.col(0) == FMatrix.basis_columns(src.base_ctx, 5, [2]).col(0)
    blk = src.edge_block_selector(7)
    assert blk.shape == (5, 2)
    assert rank(blk) == 2


def test_with_multiplicity():
    src, _ = parity_path()
    wider = src.with_multiplicity(1, 4)
    assert wider.base_dim == 6
    assert wider.edge(1).mult == 4
    assert wider.edge(0).mult == 1
    assert src.edge(1).mult == 1
    with pytest.raises(InstanceError):
        src.with_multiplicity(1, 0)


def test_validation_errors():
    e = EdgeSpec
    with pytest.raises(InstanceError):
        TreePinSource(4, 2, [e(0, 0, 1, 1)])  # q not prime
    with pytest.raises(InstanceError):
        TreePinSource(2, 1, [])  # too few vertices
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 1)])  # wrong edge count
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 1), e(0, 1, 2, 1)])  # dup id
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 1), e(1, 1, 3, 1)])  # endpoint range
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 1), e(1, 2, 2, 1)])  # self loop
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 1), e(1, 0, 1, 1)])  # cycle
    with pytest.raises(InstanceError):
        TreePinSource(2, 3, [e(0, 0, 1, 0), e(1, 1, 2, 1)])  # mult < 1


def test_wiretapper_validation():
    f2 = make_ext_field(2, 1)
    f4 = make_ext_field(2, 2)
    with pytest.raises(InstanceError):
        Wiretapper(FMatrix.from_rows(f2, [[1, 1], [1, 1], [0, 0]], cols=2))
    with pytest.raises(InstanceError):
        Wiretapper(FMatrix.from_rows(f4, [[1]], cols=1))
    ok = Wiretapper(FMatrix.from_rows(f2, [[1], [0]], cols=1))
    assert ok.dim == 1
    empty = Wiretapper(FMatrix.zeros(f2, 4, 0))
    assert empty.dim == 0 and empty.rows == 4


def test_instance_error_is_value_error():
    assert issubclass(InstanceError, ValueError)


def test_save_load_round_trip():
    for build in (parity_path, star3_no_wiretap):
        src, wt = build()
        text = save_instance(src, wt)
        assert text.endswith("\n")
        src2, wt2 = load_instance(text)
        assert src2 == src
        assert wt2 == wt
        assert save_instance(src2, wt2) == text


def test_load_accepts_comments_and_blank_lines():
    text = (
        "# a three node path over F_5\n"
        "treepin q=5\n"
        "\n"
        "vertices 3\n"
        "edge 0 0 1 1\n"
        "# the second edge is wider\n"
        "edge 1 1 2 2\n"
        "wiretap cols=1\n1\n0\n4\n"
    )
    src, wt = load_instance(text)
    assert src.q == 5
    assert src.base_dim == 3
    assert wt.matrix.col(0) == (
        src.base_ctx(1),
        src.base_ctx(0),
        src.base_ctx(4),
    )


def test_load_rejects_malformed_input():
    good = save_instance(*parity_path())
    bad_cases = [
        "treepin\nvertices 2\nedge 0 0 1 1\nwiretap cols=0\n",
        good.replace("treepin q=2", "pintree q=2"),
        good.replace("vertices 4", "vertices four"),
        good.replace("edge 1 1 2 1", "edge 1 1 2"),
        good.replace("wiretap cols=1", "wiretap cols=2"),
        good.replace("wiretap cols=1", "wiretap cols=-1"),
        good + "1\n",  # trailing content
        good.rsplit("\n", 2)[0] + "\n",  # missing a wiretap row
        good.replace("\n1\n1\n1\n", "\n1\n2\n1\n"),  # entry not in F_2
        "",
    ]
    for text in bad_cases:
        with pytest.raises(InstanceError):
            load_instance(text)


def test_random_instance_deterministic():
    a = random_instance(123, vertex_count=5, max_multiplicity=3, q=3, n_w_target=2)
    b = random_instance(123, vertex_count=5, max_multiplicity=3, q=3, n_w_target=2)
    assert a[0] == b[0]
    assert a[1] == b[1]
    c = random_instance(124, vertex_count=5, max_multiplicity=3, q=3, n_w_target=2)
    assert (c[0], c[1]) != (a[0], a[1])


def test_random_instance_valid_draws():
    rng = random.Random(9)
    for trial in range(1000):
        m = rng.randint(2, 7)
        q = rng.choice((2, 3, 5))
        src, wt = random_instance(
            seed=trial,
            vertex_count=m,
            max_multiplicity=rng.randint(1, 3),
            q=q,
            # base_dim is at least the edge count, so this is always legal
            n_w_target=rng.randint(0, min(2, m - 1)),
        )
        assert src.vertex_count == m
        assert src.edge_count == m - 1
        assert wt.rows == src.base_dim
        assert rank(wt.matrix) == wt.dim
        # every vertex reachable: a valid tree has exactly m-1 edges and no
        # cycles, both enforced by the constructor, so just sanity check
        assert len(src.leaves()) >= 2


def test_random_instance_rejects_oversized_wiretap():
    with pytest.raises(InstanceError):
        random_instance(5, vertex_count=2, max_multiplicity=1, q=2, n_w_target=2)
    with pytest.raises(InstanceError):
        random_instance(5, vertex_count=1, max_multiplicity=1, q=2, n_w_target=0)
    with pytest.raises(InstanceError):
        random_instance(5, vertex_count=3, max_multiplicity=0, q=2, n_w_target=0)
