"""Scheme checking: omniscience, alignment, leakage, key secrecy."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from treepin import (
    CommScheme,
    FMatrix,
    KeyExtractor,
    Wiretapper,
    capacity_report,
    make_ext_field,
    synth_explicit_unit,
    synth_random,
    verify_scheme,
)
from treepin.falinalg import lift, rank
from treepin.verify import leakage_symbol_dims

from conftest import (
    count_null_builds,
    in_col_span,
    parity_path,
    published_scheme,
    scheme_over,
    star3_no_wiretap,
    wide_path_irreducible,
)


def test_published_scheme_passes_everything():
    src, wt, scheme = published_scheme()
    rep = verify_scheme(scheme, src, wt)
    assert rep.omniscient == {0: True, 1: True, 2: True, 3: True}
    assert rep.aligned
    assert rep.key_secret
    assert rep.leakage_dims == 1 == rep.optimal_leakage_dims
    assert rep.key_dims == 1 == rep.optimal_key_dims
    assert rep.leakage_optimal
    assert rep.all_pass
    assert rep.leakage_dims * math.log2(scheme.ext_ctx.q) == 1.0


def test_synthesized_schemes_pass():
    for build, seed in ((wide_path_irreducible, 4), (star3_no_wiretap, 6)):
        src, wt = build()
        scheme = synth_random(src, wt, seed=seed)
        rep = verify_scheme(scheme, src, wt)
        assert rep.all_pass


def test_omniscience_fails_without_enough_columns():
    """Dropping a column makes the far side of the tree undecodable."""
    src, wt, scheme = published_scheme()
    crippled = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=1,
        comm_matrix=scheme.comm_matrix.take_cols([0]),
        owners=(1,),
        key=scheme.key,
    )
    omni = verify_scheme(crippled, src, wt).omniscient
    assert not all(omni.values())
    assert omni[3] is False  # node 3 never hears about coordinate 0
    # node-local data plus one mixing column is not a basis for anyone
    assert omni[0] is False


def test_alignment_detects_exposed_communication():
    """A scheme that transmits raw coordinates is not aligned with the tap."""
    src, wt = parity_path()
    ext = make_ext_field(2, 2)
    raw = CommScheme(
        ext_ctx=ext,
        s=1,
        comm_matrix=FMatrix.basis_columns(ext, 3, [0, 1]),
        owners=(0, 1),
        key=KeyExtractor(FMatrix.basis_columns(ext, 3, (2,)), (2,)),
    )
    raw.validate(src)
    rep = verify_scheme(raw, src, wt)
    # the two exposed coordinates complete nodes 2 and 3 (they already hold
    # coordinate 2), but the left side never learns it
    assert rep.omniscient == {0: False, 1: False, 2: True, 3: True}
    assert not rep.aligned
    assert rep.leakage_dims == 2
    assert not rep.all_pass and not rep.leakage_optimal


def test_alignment_trivial_without_wiretap():
    src, wt = star3_no_wiretap()
    scheme = synth_random(src, wt, seed=1)
    rep = verify_scheme(scheme, src, wt)
    assert rep.aligned
    assert rep.leakage_dims == 2


def test_key_inside_wiretap_span_is_not_secret():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    assert verify_scheme(scheme, src, wt).key_secret
    # replace the key with the parity itself, which the tap observes
    leaky = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=1,
        comm_matrix=scheme.comm_matrix,
        owners=scheme.owners,
        key=KeyExtractor(
            matrix=FMatrix.from_cols(scheme.ext_ctx, [[1, 1, 1]], rows=3),
            coords=(0,),
        ),
    )
    assert not verify_scheme(leaky, src, wt).key_secret
    assert verify_scheme(CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=1,
        comm_matrix=scheme.comm_matrix,
        owners=scheme.owners,
        key=None,
    ), src, wt).key_secret is False


def test_identity_communication_leaks_everything():
    """Broadcasting a basis of the complement reveals all but the key."""
    src, wt = parity_path()
    ext = make_ext_field(2, 1)
    # single node cannot own a full basis; bypass validate and measure only
    ident = CommScheme(
        ext_ctx=ext,
        s=1,
        comm_matrix=FMatrix.basis_columns(ext, 3, [0, 1]),
        owners=(0, 1),
    )
    dims = verify_scheme(ident, src, wt).leakage_dims
    assert dims == src.base_dim - wt.dim
    assert dims * math.log2(ident.ext_ctx.q) == 2.0


def test_leakage_scales_with_extension_degree():
    """A symbol of GF(q**n) carries n realisations, so leakage dims times
    log2 q (not n log2 q) is the leakage in bits per realisation."""
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=13)
    assert scheme.ext_ctx.n > 1
    dims = verify_scheme(scheme, src, wt).leakage_dims
    assert dims * math.log2(src.q) == capacity_report(src, wt).rl_bits


def test_wrong_row_count_is_refused_before_n_is_built(monkeypatch):
    """A 4-row scheme against a 3-coordinate source: both checks refuse it
    by its row count, without eliminating F."""
    scheme = synth_random(*wide_path_irreducible(), seed=5)
    src, wt = parity_path()
    built = count_null_builds(monkeypatch)
    for call in (
        lambda: verify_scheme(scheme, src, wt),
        lambda: leakage_symbol_dims(scheme, wt),
    ):
        with pytest.raises(ValueError, match="^scheme does not match the source$"):
            call()
    assert built == []


def test_report_optimums_match_capacity():
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=21)
    rep = verify_scheme(scheme, src, wt)
    assert rep.optimal_key_dims == src.min_mult
    assert rep.optimal_leakage_dims == src.base_dim - wt.dim - src.min_mult
    assert rep.key_dims == scheme.s


# ---------------------------------------------------------------------------
# Referee: the rank formulas the checks used before they were derived from
# one left-null basis N of F.  Each check is a full elimination of a block
# holding F.


def referee_omniscience(scheme, source):
    f = scheme.comm_matrix
    return {
        v: rank(f.hstack(source.node_view(v).selector(scheme.ext_ctx)))
        == source.base_dim
        for v in range(source.vertex_count)
    }


def referee_alignment(scheme, wiretapper):
    if wiretapper.dim == 0:
        return True
    return in_col_span(scheme.comm_matrix, lift(wiretapper.matrix, scheme.ext_ctx))


def referee_leakage(scheme, wiretapper):
    f = scheme.comm_matrix
    if wiretapper.dim == 0:
        return rank(f)
    return rank(f.hstack(lift(wiretapper.matrix, scheme.ext_ctx))) - wiretapper.dim


def referee_key_secrecy(scheme, wiretapper):
    if scheme.key is None:
        return False
    f = scheme.comm_matrix
    joint = (
        f
        if wiretapper.dim == 0
        else f.hstack(lift(wiretapper.matrix, scheme.ext_ctx))
    )
    return rank(joint.hstack(scheme.key.matrix)) == rank(joint) + scheme.s


def assert_matches_referee(scheme, source, wiretapper):
    omni = referee_omniscience(scheme, source)
    aligned = referee_alignment(scheme, wiretapper)
    leak = referee_leakage(scheme, wiretapper)
    secret = referee_key_secrecy(scheme, wiretapper)
    assert leakage_symbol_dims(scheme, wiretapper) == leak
    rep = verify_scheme(scheme, source, wiretapper)
    assert rep.omniscient == omni
    assert (rep.aligned, rep.leakage_dims, rep.key_secret) == (aligned, leak, secret)
    return omni, aligned, leak, secret


# GF(2, 3, 5, 7), their extensions of degree 2..6, and GF(2^13), which has
# no log/exp tables
REFEREE_FIELDS = [(q, n) for q in (2, 3, 5, 7) for n in range(1, 7)] + [(2, 13)]
KINDS = (
    "synthesized",
    "dropped column",
    "dependent columns",
    "full row rank",
    "no columns",
    "tap outside col F",
    "key inside col F",
)


def _with(scheme, comm=None, owners=None, key=None):
    return CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=scheme.s,
        comm_matrix=scheme.comm_matrix if comm is None else comm,
        owners=scheme.owners if owners is None else owners,
        key=scheme.key if key is None else key,
    )


def _variant(kind, src, wt, scheme, data):
    """The synthesized scheme (aligned, tap inside col F) turned into the
    case `kind`; returns (scheme, wiretapper)."""
    ext = scheme.ext_ctx
    f = scheme.comm_matrix
    d, c = f.rows, f.cols
    coef = data.draw(st.integers(1, ext.order - 1), label="coefficient")
    j = data.draw(st.integers(0, c - 1), label="column")
    if kind == "synthesized":
        return scheme, wt
    if kind == "dropped column":
        keep = [i for i in range(c) if i != j]
        return _with(scheme, f.take_cols(keep), tuple(scheme.owners[i] for i in keep)), wt
    if kind == "dependent columns":
        # column j times coef, plus column j + 1 when there is one
        rows = f.to_code_rows()
        col = [ext.mul_code(r[j], coef) for r in rows]
        if c > 1:
            col = [ext.add_code(x, r[(j + 1) % c]) for x, r in zip(col, rows)]
        extra = FMatrix.from_cols(ext, [col], rows=d)
        return _with(scheme, f.hstack(extra), scheme.owners + (scheme.owners[j],)), wt
    if kind == "full row rank":
        full = f.hstack(scheme.key.matrix)
        return _with(scheme, full, scheme.owners + (0,) * scheme.s), wt
    if kind == "no columns":
        return _with(scheme, FMatrix.zeros(ext, d, 0), ()), wt
    if kind == "tap outside col F":
        # a key coordinate completes col F, so it lies outside it
        unit = FMatrix.basis_columns(src.base_ctx, d, scheme.key.coords[:1])
        return scheme, Wiretapper(wt.matrix.hstack(unit))
    if kind == "key inside col F":
        col = f.take_cols([j]) @ FMatrix.from_rows(ext, [[coef]], cols=1)
        key = KeyExtractor(col.hstack(*[col] * (scheme.s - 1)), scheme.key.coords)
        return _with(scheme, key=key), wt
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", KINDS)
@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFEREE_FIELDS), st.integers(0, 3), st.data())
def test_checks_match_rank_referee(kind, field, inst, data):
    q, n = field
    src, wt, scheme = scheme_over(q, n, seed=100 * q + 10 * n + inst)
    scheme, wt = _variant(kind, src, wt, scheme, data)
    omni, aligned, leak, secret = assert_matches_referee(scheme, src, wt)
    d, s = src.base_dim, scheme.s
    # what each case is built to show
    if kind == "synthesized":
        assert all(omni.values()) and aligned and secret
    elif kind == "dropped column":
        assert not all(omni.values())
    elif kind in ("dependent columns", "full row rank"):
        assert all(omni.values())
        assert leak == (d - s if kind == "dependent columns" else d) - wt.dim
    elif kind == "no columns":
        assert leak == 0 and aligned == (wt.dim == 0)
    elif kind == "tap outside col F":
        assert not aligned and not secret
    elif kind == "key inside col F":
        assert not secret
