"""Shared fixtures: canonical small instances and the seeded random corpus."""

from __future__ import annotations

import random

import pytest

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
from treepin.falinalg import left_nullspace_basis, lift, rank
from treepin.reduce import ReductionError
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
        cert = sample_alignment_certificate(src, null_basis, src.min_mult, rng)
        if cert is None:
            continue
        try:
            scheme = _synth_from_certificate(src, wt, ext, cert, _default_root(src))
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
