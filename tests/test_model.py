"""Source/wiretapper model, instance file format, random generator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, seed, settings

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
from treepin.falinalg import rank, right_nullspace_basis, rref

from conftest import edge_spec, instances, parity_path, star3_no_wiretap


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
    assert edge_spec(src, 1) == EdgeSpec(1, 1, 2, 1)
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
        edge_spec(src, 0)


def test_node_view():
    src = TreePinSource(3, 3, [EdgeSpec(7, 0, 1, 2), EdgeSpec(2, 1, 2, 3)])
    nv = src.node_view(1)
    assert nv.coords == (0, 1, 2, 3, 4)
    assert sorted(e.edge_id for e in src.incident_edges(1)) == [2, 7]
    leaf = src.node_view(2)
    assert leaf.coords == (2, 3, 4)
    sel = leaf.selector(src.base_ctx)
    assert sel.shape == (5, 3)
    assert sel.col(0) == FMatrix.basis_columns(src.base_ctx, 5, [2]).col(0)
    blk = src.edge_block_selector(7)
    assert blk.shape == (5, 2)
    assert rank(blk) == 2


def test_node_views_are_built_once_on_first_use():
    """The first node_view call builds every view, later calls hand out the
    same objects; a loaded instance builds none until asked."""
    src, wt = parity_path()
    loaded, _ = load_instance(save_instance(src, wt))
    assert loaded._views is None
    first = loaded.node_view(1)
    assert loaded.node_view(1) is first
    assert list(loaded._views) == [loaded.node_view(v) for v in range(4)]
    assert [v.coords for v in loaded._views] == [(0,), (0, 1), (1, 2), (2,)]
    for bad in (-1, 4):
        with pytest.raises(KeyError):
            loaded.node_view(bad)


def test_with_multiplicity():
    src, _ = parity_path()
    wider = src.with_multiplicity(1, 4)
    assert wider.base_dim == 6
    assert edge_spec(wider, 1).mult == 4
    assert edge_spec(wider, 0).mult == 1
    assert edge_spec(src, 1).mult == 1
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


@pytest.mark.parametrize("q", [5, 4099])
def test_load_pins_wiretap_row_messages(q):
    """Each malformed wiretap row is refused with its line number and the
    message of the first check it fails: a token that is not an integer
    (named, the first one), then the entry count, then the first entry
    outside [0, q).  Any spelling int() reads is an entry, whether or not
    save_instance writes it so.  4099 is above the field-table orders."""
    head = f"treepin q={q}\nvertices 3\nedge 0 0 1 1\nedge 1 1 2 2\nwiretap cols=2\n"
    # the middle wiretap row is on line 8: the comment takes line 7
    text = head + "1 0\n# comment\n{row}\n2 3\n"
    cases = [
        ("1 x", "expected integer, got 'x'"),
        ("y 1", "expected integer, got 'y'"),
        ("1.0 1", "expected integer, got '1.0'"),
        ("-1 3", f"entry -1 out of range for F_{q}"),
        (f"3 {q}", f"entry {q} out of range for F_{q}"),
        (f"{q + 2} -2", f"entry {q + 2} out of range for F_{q}"),
        ("2 -3", f"entry -3 out of range for F_{q}"),
        ("1", "expected 2 entries, got 1"),
        ("1 2 3", "expected 2 entries, got 3"),
        (f"{q}", "expected 2 entries, got 1"),       # count before range
        ("x", "expected integer, got 'x'"),          # token before count
        ("1 2 z", "expected integer, got 'z'"),
    ]
    for row, message in cases:
        with pytest.raises(InstanceError) as err:
            load_instance(text.format(row=row))
        assert str(err.value) == f"line 8: {message}", row
    src, wt = load_instance(text.format(row="0 1"))
    assert load_instance(text.format(row="00 +1")) == (src, wt)
    assert save_instance(src, wt) == head + "1 0\n0 1\n2 3\n"


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


def assert_holds_its_basis(wt):
    """The wiretapper's N_W^T is the right-null basis of W^T, its pivot
    coordinates are those of W^T's echelon form, its rows at every other
    coordinate are distinct unit vectors, in ascending order, and every
    slice of rows it builds or ranks is that slice of N_W^T."""
    w_t = wt.matrix.transpose()
    null_t = wt.null_rows(range(wt.rows))
    assert null_t == right_nullspace_basis(w_t)
    assert wt.pivot_coords == rref(w_t).pivots
    assert null_t.shape == (wt.rows, wt.rows - wt.dim)
    free = [c for c in range(wt.rows) if c not in wt.pivot_coords]
    rows = null_t.to_code_rows()
    for i, c in enumerate(free):
        assert rows[c] == [1 if j == i else 0 for j in range(len(free))]
    # only the rows at the pivots are stored: n_w rows of D - n_w
    assert [len(r) for r in wt._pivot_rows] == [wt.rows - wt.dim] * wt.dim
    for a in range(wt.rows + 1):
        for b in range(a, wt.rows + 1):
            block = null_t.take_rows(range(a, b))
            assert wt.null_rows(range(a, b)) == block
            assert wt.null_rank(range(a, b)) == rank(block)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_null_rank_matches_the_rank_of_its_rows(q):
    """null_rank against its referee, rank(null_rows(range)), on every
    sub-range of random taps.  Ranges holding 0, 1 and at least 2 pivot
    coordinates all occur, and so does a single pivot row that vanishes
    off the range's unit columns (x0 + x1 tapped: over [0, 2) the pivot
    row at 0 equals the unit row at 1)."""
    ctx = make_ext_field(q, 1)
    rng = random.Random(q)
    taps = [Wiretapper(FMatrix.from_rows(ctx, [[1], [1], [0]], cols=1))]
    while len(taps) < 40:
        d = rng.randrange(1, 9)
        nw = rng.randrange(d + 1)
        rows = [[rng.randrange(q) for _ in range(nw)] for _ in range(d)]
        try:
            taps.append(Wiretapper(FMatrix.from_rows(ctx, rows, cols=nw)))
        except InstanceError:
            continue
    seen = set()
    for wt in taps:
        for a in range(wt.rows + 1):
            for b in range(a, wt.rows + 1):
                want = rank(wt.null_rows(range(a, b)))
                assert wt.null_rank(range(a, b)) == want
                held = sum(a <= c < b for c in wt.pivot_coords)
                seen.add(min(held, 2))
                if held == 1 and want == b - a - 1:
                    seen.add("vanishes")
    assert seen == {0, 1, 2, "vanishes"}


@seed(20260118)
@settings(max_examples=150, deadline=None)
@given(instances(max_vertices=8, qs=(2, 3, 5, 7)))
def test_wiretapper_holds_its_tap_null_basis(inst):
    assert_holds_its_basis(inst[1])


def test_wiretapper_holds_its_basis_at_the_extremes():
    f3 = make_ext_field(3, 1)
    for wt in (
        Wiretapper(FMatrix.zeros(f3, 4, 0)),
        Wiretapper(FMatrix.identity(f3, 4)),
        Wiretapper(FMatrix.from_rows(f3, [[0], [0], [0], [2]], cols=1)),
        Wiretapper(FMatrix.zeros(f3, 0, 0)),
    ):
        assert_holds_its_basis(wt)


def test_rank_deficient_tap_refused_with_its_message():
    f2 = make_ext_field(2, 1)
    f5 = make_ext_field(5, 1)
    message = "wiretap matrix does not have full column rank"
    for m in (
        FMatrix.from_rows(f2, [[1, 1], [1, 1], [0, 0]], cols=2),
        FMatrix.from_rows(f5, [[1, 2], [2, 4], [3, 1]], cols=2),
        FMatrix.zeros(f5, 3, 1),
        FMatrix.identity(f2, 2).hstack(FMatrix.zeros(f2, 2, 1)),
        FMatrix.zeros(f2, 0, 1),
    ):
        with pytest.raises(InstanceError, match=message):
            Wiretapper(m)
    text = save_instance(*parity_path())
    deficient = text.replace("wiretap cols=1\n1\n1\n1\n", "wiretap cols=2\n1 1\n1 1\n0 0\n")
    assert deficient != text
    with pytest.raises(InstanceError, match=message):
        load_instance(deficient)


def referee_random_tap(seed, vertex_count, max_multiplicity, q, n_w_target):
    """The draw loop random_instance replaced: the same rng calls, kept
    until rank() says the draw has full column rank.  Returns the tap and
    the number of draws."""
    rng = random.Random(seed)
    src = random_instance(seed, vertex_count, max_multiplicity, q, 0)[0]
    # replay the tree (Pruefer sequence) and multiplicity draws
    for _ in range(vertex_count - 2):
        rng.randrange(vertex_count)
    for _ in src.edges:
        rng.randint(1, max_multiplicity)
    draws = 0
    while True:
        draws += 1
        rows = [[rng.randrange(q) for _ in range(n_w_target)] for _ in range(src.base_dim)]
        m = FMatrix.from_rows(src.base_ctx, rows, cols=n_w_target)
        if rank(m) == n_w_target:
            return m, draws


def test_random_instance_draws_the_same_tap_as_the_rank_loop():
    rng = random.Random(19)
    redrawn = 0
    for trial in range(300):
        m = rng.randint(2, 6)
        q = rng.choice((2, 3, 5))
        mult = rng.randint(1, 2)
        n_w = rng.randint(1, random_instance(trial, m, mult, q, 0)[0].base_dim)
        want, draws = referee_random_tap(trial, m, mult, q, n_w)
        got = random_instance(trial, m, mult, q, n_w)[1]
        assert got.matrix == want
        assert_holds_its_basis(got)
        redrawn += draws > 1
    assert redrawn >= 20  # rank-deficient draws are common at these sizes
