"""Shared fixtures: canonical small instances and the seeded random corpus."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from treepin import (
    CommScheme,
    FMatrix,
    InstanceError,
    KeyExtractor,
    TreePinSource,
    Wiretapper,
    is_irreducible,
    make_ext_field,
    random_instance,
    reduce_full,
    synth_random,
)
from treepin.falinalg import left_nullspace_basis, lift, rank, right_nullspace_basis, rref
from treepin.reduce import ReductionError, _common_on_block, _reduce_step
import treepin.scheme as scheme_module
from treepin.scheme import (
    SchemeError,
    _default_root,
    _synth_from_certificate,
    sample_alignment_certificate,
)


def in_col_span(a, v):
    """Referee: True when every column of v lies in the column space of a."""
    if v.cols == 0:
        return True
    return rank(a.hstack(v)) == rank(a)


def _rank_mod(a: list[list[int]], q: int) -> int:
    """Referee: row rank of an integer matrix mod q (q prime), by its own
    elimination on plain integers."""
    a = [row[:] for row in a]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] % q), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, q)
        a[r] = [(x * inv) % q for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] % q:
                f = a[i][c]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def _det_mod(a: list[list[int]], q: int) -> int:
    """Referee: determinant of a square integer matrix mod q (q prime)."""
    a = [row[:] for row in a]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % q), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = (-det) % q
        det = (det * a[c][c]) % q
        inv = pow(a[c][c], -1, q)
        for i in range(c + 1, n):
            if a[i][c] % q:
                f = (a[i][c] * inv) % q
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[c])]
    return det % q


def parity_path():
    """Path on 4 nodes, unit multiplicities over F_2; the eavesdropper sees
    the sum of all three edge symbols."""
    source = TreePinSource(2, 4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
    wt = Wiretapper(FMatrix.from_cols(source.base_ctx, [[1, 1, 1]], rows=3))
    return source, wt


def wide_path_reducible():
    """Path whose first edge carries two symbols; one wiretap column sits
    entirely inside that edge's block, so the instance is reducible."""
    source = TreePinSource(2, 4, [(0, 0, 1, 2), (1, 1, 2, 1), (2, 2, 3, 1)])
    wt = Wiretapper(
        FMatrix.from_cols(source.base_ctx, [[1, 1, 0, 0], [0, 0, 1, 1]], rows=4)
    )
    return source, wt


def wide_path_irreducible():
    """Same tree, wiretapper restricted to the cross-edge column."""
    source = TreePinSource(2, 4, [(0, 0, 1, 2), (1, 1, 2, 1), (2, 2, 3, 1)])
    wt = Wiretapper(FMatrix.from_cols(source.base_ctx, [[0, 0, 1, 1]], rows=4))
    return source, wt


def star3_no_wiretap():
    """Star with center 0 and three unit edges, no eavesdropper."""
    source = TreePinSource(2, 4, [(0, 0, 1, 1), (1, 0, 2, 1), (2, 0, 3, 1)])
    wt = Wiretapper(FMatrix.from_cols(source.base_ctx, [], rows=3))
    return source, wt


def published_scheme():
    """The hand-entered two-column scheme over GF(4) for the parity path.

    Column 0 (node 1): X_0 + (1+x) X_1.  Column 1 (node 2): x X_1 + X_2.
    Key: coordinate 0.
    """
    source, wt = parity_path()
    ext = make_ext_field(2, 2)
    f = FMatrix.from_cols(ext, [[1, 3, 0], [0, 2, 1]], rows=3)
    key = KeyExtractor(
        matrix=FMatrix.basis_columns(ext, 3, (0,)), coords=(0,)
    )
    scheme = CommScheme(
        ext_ctx=ext, s=1, comm_matrix=f, owners=(1, 2), key=key
    )
    return source, wt, scheme


def scheme_over(q, n, seed):
    """A synthesized scheme over GF(q**n) on a small seeded instance: the
    first instance with a tap (or, every other draw, without one) whose
    certificate draw has nonsingular per-edge blocks."""
    ext = make_ext_field(q, n)
    rng = random.Random(seed)
    for attempt in range(400):
        try:
            src, wt = random_instance(
                seed * 1000 + attempt,
                vertex_count=rng.randint(3, 5),
                max_multiplicity=2,
                q=q,
                n_w_target=attempt % 2,
            )
        except InstanceError:
            continue
        null_basis = left_nullspace_basis(lift(wt.matrix, ext))
        if null_basis.rows < src.min_mult:
            continue
        draw = sample_alignment_certificate(src, null_basis, src.min_mult, rng)
        if draw is None:
            continue
        try:
            scheme = _synth_from_certificate(src, wt, ext, *draw, _default_root(src))
        except SchemeError:
            continue
        return src, wt, scheme
    raise AssertionError(f"no scheme found over GF({q}^{n})")


def build_irreducible_suite(count):
    """Deterministic pool of irreducible random instances, q in {2,3,5},
    up to 7 vertices, multiplicities up to 3."""
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        if attempt > 50 * count:
            raise AssertionError("instance pool generation is stuck")
        rng = random.Random(77000 + attempt)
        q = rng.choice((2, 3, 5))
        vertices = rng.randint(2, 7)
        max_mult = rng.randint(1, 3)
        nw = rng.randint(0, 4)
        try:
            source, wt = random_instance(
                800000 + attempt,
                vertex_count=vertices,
                max_multiplicity=max_mult,
                q=q,
                n_w_target=nw,
            )
        except InstanceError:
            continue
        if not is_irreducible(source, wt):
            continue
        out.append((source, wt))
    return out


def build_reducible_suite(count):
    """Deterministic pool of reducible instances that reduce cleanly.

    Reducibility is injected by overwriting one wiretap column with a
    vector supported on a single edge block of multiplicity >= 2."""
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        if attempt > 50 * count:
            raise AssertionError("reducible pool generation is stuck")
        rng = random.Random(5500 + attempt)
        q = rng.choice((2, 3, 5))
        vertices = rng.randint(2, 6)
        try:
            source, wt = random_instance(
                900000 + attempt,
                vertex_count=vertices,
                max_multiplicity=3,
                q=q,
                n_w_target=rng.randint(1, 3),
            )
        except InstanceError:
            continue
        fat = [e for e in source.edges if e.mult >= 2]
        if not fat:
            continue
        target = rng.choice(fat)
        blk = source.edge_range(target.edge_id)
        d = source.base_dim
        cols = [
            [wt.matrix[i, j].code for i in range(d)] for j in range(wt.dim)
        ]
        newcol = [0] * d
        while not any(newcol[blk.start : blk.stop]):
            for i in blk:
                newcol[i] = rng.randrange(q)
        cols[rng.randrange(len(cols))] = newcol
        m = FMatrix.from_rows(
            source.base_ctx, list(zip(*cols)), cols=len(cols)
        )
        if rank(m) != len(cols):
            continue
        wt2 = Wiretapper(m)
        if is_irreducible(source, wt2):
            continue
        try:
            reduce_full(source, wt2)
        except ReductionError:
            # the random remainder of W can conspire to absorb an edge
            continue
        out.append((source, wt2))
    return out


def reduce_step(src, wt, edge_id):
    """One reduction step on the given edge, as reduce_full takes it: the
    common part on the edge's block, then the change of basis."""
    return _reduce_step(src, wt, edge_id, _common_on_block(wt, src.edge_range(edge_id)))


def count_null_builds(monkeypatch):
    """The list of matrices CommScheme.null eliminates from now on."""
    built = []
    real = scheme_module.left_nullspace_basis
    monkeypatch.setattr(
        scheme_module, "left_nullspace_basis", lambda m: built.append(m) or real(m)
    )
    return built


def w_minus_e_common(src, wt, edge_id):
    """Referee: the common part of one edge and the tap through W_{-e}, W
    without the edge's rows.  W has full column rank, so the common part is
    W null(W_{-e}); one elimination per edge.  Returns the D x l reduced row
    echelon basis (read as rows)."""
    block = src.edge_range(edge_id)
    w = wt.matrix
    outside = [i for i in range(w.rows) if i not in block]
    null = right_nullspace_basis(w.take_rows(outside))
    if not null.cols:
        return FMatrix.zeros(w.ctx, w.rows, 0)
    common = rref((w @ null).transpose())
    return common.matrix.take_rows(range(common.rank)).transpose()


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


@st.composite
def relabelled_instances(draw, max_vertices=8, max_mult=3, qs=(2, 3, 5, 7)):
    """An instance whose edge ids are permuted (and spread out), so the
    edges are mostly listed out of id order (reversed when shrunk).  Coordinates follow the listed order,
    so the tap matrix is unchanged."""
    src, wt = draw(instances(max_vertices, max_mult, qs))
    ids = draw(st.permutations([3 * k + 1 for k in reversed(range(src.edge_count))]))
    edges = [e._replace(edge_id=i) for e, i in zip(src.edges, ids)]
    return TreePinSource(src.q, src.vertex_count, edges), wt


@st.composite
def late_pivot_instances(draw, max_vertices=8, max_mult=3, qs=(2, 3, 5)):
    """A relabelled instance whose tap is zero on all but its last
    n_w + spare coordinates (spare <= 3), so every pivot coordinate of W^T
    falls in the last listed edges.  Random taps put their pivots in the
    first few edges instead."""
    src, _ = draw(relabelled_instances(max_vertices, max_mult, qs))
    d = src.base_dim
    n_w = draw(st.integers(1, (d + 1) // 2))
    live = min(d, n_w + draw(st.integers(0, 3)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    zero = [[0] * n_w] * (d - live)
    while True:
        rows = zero + [[rng.randrange(src.q) for _ in range(n_w)] for _ in range(live)]
        try:
            return src, Wiretapper(FMatrix.from_rows(src.base_ctx, rows, cols=n_w))
        except InstanceError:
            continue


@pytest.fixture(scope="session")
def irreducible_suite():
    return build_irreducible_suite(500)


@pytest.fixture(scope="session")
def synthesized_suite(irreducible_suite):
    out = []
    for i, (source, wt) in enumerate(irreducible_suite):
        out.append((source, wt, synth_random(source, wt, seed=31000 + i)))
    return out


@pytest.fixture(scope="session")
def reducible_suite():
    return build_reducible_suite(200)
