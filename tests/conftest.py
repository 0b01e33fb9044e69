"""Shared fixtures: canonical small instances and the seeded random corpus."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from treepin import (
    CommScheme,
    FMatrix,
    InstanceError,
    TreePinSource,
    Wiretapper,
    choose_extension_degree,
    is_irreducible,
    make_ext_field,
    random_instance,
    reduce_full,
    synth_explicit_unit,
    synth_random,
)
from treepin.falinalg import (
    left_inverse,
    left_nullspace_basis,
    rank,
    right_nullspace_basis,
    rref,
)
from treepin.reduce import ReductionError
import treepin.scheme as scheme_module
from treepin.scheme import (
    _MAX_ATTEMPTS,
    SchemeError,
    _certificate,
    _default_root,
    _synth_from_certificate,
    sample_alignment_certificate,
)


def in_col_span(a, v):
    """Referee: True when every column of v lies in the column space of a."""
    if v.cols == 0:
        return True
    return rank(a.hstack(v)) == rank(a)


def edge_spec(source, edge_id):
    """The EdgeSpec with this id; InstanceError, as edge_range raises it,
    when the source has none."""
    source.edge_range(edge_id)
    return next(e for e in source.edges if e.edge_id == edge_id)


def inverse(m):
    """Referee: the inverse of a square matrix, as its left inverse."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return left_inverse(m)


def solve_right(a, b):
    """Referee: a particular X with a @ X = b, free variables zero, or None
    when the system is inconsistent.  Read off rref([a | b]): the system is
    consistent exactly when no pivot falls in b's columns, and then the
    rows are those of an elimination pivoting in a's columns only."""
    r = rref(a.hstack(b))
    if r.pivots and r.pivots[-1] >= a.cols:
        return None
    red = r.matrix.to_code_rows()
    grid = [[0] * b.cols for _ in range(a.cols)]
    for k, c in enumerate(r.pivots):
        grid[c] = red[k][a.cols :]
    return FMatrix.from_rows(a.ctx, grid, cols=b.cols)


def completion_indices(m):
    """Referee: the unit vectors, picked greedily in ascending order, that
    complete m's columns to a basis of the ambient space.  A column of
    [m | I] is a pivot exactly when it is independent of the columns before
    it, so the picks are the pivots in the identity part."""
    pivots = rref(m.hstack(FMatrix.identity(m.ctx, m.rows))).pivots
    return tuple(c - m.cols for c in pivots if c >= m.cols)


def _common_on_block(wiretapper, block):
    """Referee: mult x l basis of the common part of an edge block and the
    eavesdropper, the reduced row echelon basis of null(N_W[:, block]),
    read as rows, from an elimination of its own."""
    return rref(left_nullspace_basis(wiretapper.null_rows(block))).matrix.transpose()


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


def dense_eliminate(ctx, rows, limit, full):
    """Referee for falinalg._eliminate: the kernel as it was before it
    skipped zeros.  It rebuilds every scaled or hit row whole, one entry
    per column, in place on the list `rows`; returns the pivot columns."""
    mul, sub, inv = ctx.mul_code, ctx.sub_code, ctx.inv_code
    nrows = len(rows)
    pivots = []
    prow = 0
    for c in range(limit):
        if prow == nrows:
            break
        for pr in range(prow, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        if pr != prow:
            rows[prow], rows[pr] = rows[pr], rows[prow]
        p = rows[prow]
        pv = p[c]
        if pv != 1:
            pinv = inv(pv)
            p = rows[prow] = [mul(pinv, b) for b in p]
        for i in range(0 if full else prow + 1, nrows):
            r = rows[i]
            f = r[c]
            if f and i != prow:
                if f == 1:
                    rows[i] = [sub(a, b) if b else a for a, b in zip(r, p)]
                else:
                    rows[i] = [sub(a, mul(f, b)) if b else a for a, b in zip(r, p)]
        pivots.append(c)
        prow += 1
    return pivots


# Fields of the kernel, expansion and protocol referee tests: q up to 7
# with n up to 6, and the two paths below
REFEREE_FIELDS = [(q, n) for q in (2, 3, 5, 7) for n in range(1, 7)] + [
    (2, 13),  # no log/exp tables: generic field multiply
    (4294967311, 1),  # prime above 2**32: object arrays
]


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
    scheme = CommScheme(
        ext_ctx=ext, s=1, comm_matrix=f, owners=(1, 2), key=(0,)
    )
    return source, wt, scheme


def scheme_over(q, n, seed):
    """A synthesized scheme over GF(q**n) on a small seeded instance:
    (source, wt, scheme), as certified_scheme_over gives them."""
    return certified_scheme_over(q, n, seed)[:3]


def certified_scheme_over(q, n, seed):
    """(source, wt, scheme, C): the first small seeded instance with a tap
    (or, every other draw, without one) whose certificate draw C has
    nonsingular per-edge blocks, and the scheme C unfolds into over
    GF(q**n)."""
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
        if wt.rows - wt.dim < src.min_mult:
            continue
        draw = sample_alignment_certificate(src, wt, ext, src.min_mult, rng)
        if draw is None:
            continue
        scheme = _synth_from_certificate(src, ext, *draw, _default_root(src))
        return src, wt, scheme, FMatrix.from_rows(ext, draw[0], cols=src.base_dim)
    raise AssertionError(f"no scheme found over GF({q}^{n})")


def replayed_certificate(source, wt, seed):
    """The certificate C that synth_random(source, wt, seed) unfolds: the
    draws of sample_alignment_certificate on random.Random(seed), replayed
    until one is accepted.  Synthesis keeps no C, so the tests rebuild it."""
    ext = make_ext_field(source.q, choose_extension_degree(source))
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        draw = sample_alignment_certificate(source, wt, ext, source.min_mult, rng)
        if draw is not None:
            return FMatrix.from_rows(ext, draw[0], cols=source.base_dim)
    raise AssertionError("no certificate draw accepted")


def explicit_certificate(source, wt):
    """The certificate C that synth_explicit_unit(source, wt) unfolds:
    (1, x, ..., x^(k-1)) N_W over GF(q**k), k = rows - dim of the tap."""
    k = wt.rows - wt.dim
    ext = make_ext_field(source.q, k)
    cert, _ = _certificate(source, wt, ext, [[source.q**j for j in range(k)]])
    return FMatrix.from_rows(ext, cert, cols=source.base_dim)


def sample_certificate_referee(source, null_basis, s, rng):
    """Referee for sample_alignment_certificate: the draw in product form.
    C = R @ null_basis for null_basis the left-null basis of the lifted tap,
    left_nullspace_basis(lift(W, ext)), and each edge's lead block taken
    out as a matrix and inverted.  Draws R as the sampler does and returns
    what it returns: C's code rows and each S_e^-1's, or None when some
    S_e is singular."""
    ext = null_basis.ctx
    m = null_basis.rows
    coeff = FMatrix.from_rows(ext, [[rng.randrange(ext.order) for _ in range(m)] for _ in range(s)], cols=m)
    cert = coeff @ null_basis
    lead_inv = {}
    for e in source.edges:
        start = source.edge_range(e.edge_id).start
        try:
            lead_inv[e.edge_id] = inverse(cert.take_cols(range(start, start + s))).to_code_rows()
        except ValueError:
            return None
    return cert.to_code_rows(), lead_inv


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


def count_null_builds(monkeypatch):
    """The list of matrices CommScheme.null eliminates from now on."""
    built = []
    real = scheme_module.left_nullspace_basis
    monkeypatch.setattr(
        scheme_module, "left_nullspace_basis", lambda m: built.append(m) or real(m)
    )
    return built


def count_null_reads(monkeypatch):
    """The reads of N_W^T any Wiretapper makes from now on: (rows, coords)
    for each null_rows call."""
    reads = []
    real = Wiretapper.null_rows

    def null_rows(self, coords):
        coords = tuple(coords)
        reads.append((self.rows, coords))
        return real(self, coords)

    monkeypatch.setattr(Wiretapper, "null_rows", null_rows)
    return reads


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


# synthesized_suite's scheme i is synth_random's at seed _SYNTH_SEED + i
_SYNTH_SEED = 31000


@pytest.fixture(scope="session")
def synthesized_suite(irreducible_suite):
    out = []
    for i, (source, wt) in enumerate(irreducible_suite):
        out.append((source, wt, synth_random(source, wt, seed=_SYNTH_SEED + i)))
    return out


@pytest.fixture(scope="session")
def explicit_unit_suite(irreducible_suite):
    """synth_explicit_unit on the all-unit members of the suite with a tap
    that the explicit certificate covers."""
    out = []
    for source, wt in irreducible_suite:
        if wt.dim and all(e.mult == 1 for e in source.edges):
            try:
                out.append((source, wt, synth_explicit_unit(source, wt)))
            except SchemeError:
                continue
    assert out
    return out


@pytest.fixture(scope="session")
def certified_suite(synthesized_suite, explicit_unit_suite):
    """(source, wt, scheme, C) for every scheme of synthesized_suite and
    explicit_unit_suite, C the certificate the scheme was unfolded from."""
    out = [
        (source, wt, scheme, replayed_certificate(source, wt, _SYNTH_SEED + i))
        for i, (source, wt, scheme) in enumerate(synthesized_suite)
    ]
    out += [
        (source, wt, scheme, explicit_certificate(source, wt))
        for source, wt, scheme in explicit_unit_suite
    ]
    return out


@pytest.fixture(scope="session")
def reducible_suite():
    return build_reducible_suite(200)
