"""Communication scheme synthesis, key extraction, serialization."""

from __future__ import annotations

import random

import pytest

from treepin import (
    CommScheme,
    FMatrix,
    SchemeError,
    TreePinSource,
    Wiretapper,
    choose_extension_degree,
    extract_key,
    load_scheme,
    make_ext_field,
    save_scheme,
    synth_explicit_unit,
    synth_random,
)
from treepin.falinalg import left_nullspace_basis, lift, rank
from treepin.scheme import sample_alignment_certificate

from conftest import (
    build_irreducible_suite,
    parity_path,
    published_scheme,
    star3_no_wiretap,
    wide_path_irreducible,
    wide_path_reducible,
)


def test_choose_extension_degree():
    src, _ = parity_path()  # q=2, 3 unit edges
    assert choose_extension_degree(src) == 2
    five = TreePinSource(5, 5, [(i, i, i + 1, 1) for i in range(4)])
    assert choose_extension_degree(five) == 1
    wide = TreePinSource(2, 9, [(i, i, i + 1, 2) for i in range(8)])
    assert choose_extension_degree(wide) == 5


def test_explicit_unit_on_parity_path():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    assert scheme.ext_ctx.q == 2 and scheme.ext_ctx.n == 2
    assert scheme.s == 1
    assert scheme.root == 0
    cert = scheme.certificate
    assert cert is not None
    assert [cert[0, j].code for j in range(3)] == [3, 1, 2]
    assert all(cert[0, j].code for j in range(3))
    assert scheme.comm_matrix.shape == (3, 2)
    assert scheme.owners == (1, 2)
    # both internal nodes relay with multiplier 1+x
    assert sorted(scheme.child_mix) == [(1, 1), (2, 2)]
    for a in scheme.child_mix.values():
        assert a.shape == (1, 1) and a[0, 0].code == 3
    assert scheme.key is not None
    assert scheme.key.coords == (0,)
    scheme.validate(src, wt)


def test_explicit_unit_is_deterministic():
    src, wt = parity_path()
    a = save_scheme(synth_explicit_unit(src, wt))
    b = save_scheme(synth_explicit_unit(src, wt))
    assert a == b


def test_explicit_unit_preconditions():
    with pytest.raises(SchemeError):
        synth_explicit_unit(*wide_path_irreducible())  # an edge has mult 2
    with pytest.raises(SchemeError):
        synth_explicit_unit(*star3_no_wiretap())  # nothing wiretapped
    src, wt = wide_path_reducible()
    with pytest.raises(SchemeError):
        synth_explicit_unit(src, wt)


def test_synth_random_deterministic_per_seed():
    src, wt = wide_path_irreducible()
    a = synth_random(src, wt, seed=7)
    b = synth_random(src, wt, seed=7)
    assert save_scheme(a) == save_scheme(b)
    c = synth_random(src, wt, seed=8)
    assert save_scheme(c) != save_scheme(a)


def test_synth_random_rejects_reducible():
    with pytest.raises(SchemeError):
        synth_random(*wide_path_reducible(), seed=1)


def test_synth_random_no_wiretap():
    src, wt = star3_no_wiretap()
    scheme = synth_random(src, wt, seed=3)
    assert scheme.s == 1
    assert scheme.comm_matrix.shape == (3, 2)
    assert set(scheme.owners) == {0}  # only the hub relays on a star
    scheme.validate(src, wt)


def test_certificate_sampler_rejects_bad_draws():
    """Certificates with a singular per-edge lead block are discarded."""
    src, wt = parity_path()
    ext = make_ext_field(2, 2)
    null_basis = left_nullspace_basis(lift(wt.matrix, ext))
    hits = misses = 0
    for seed in range(200):
        cert = sample_alignment_certificate(src, null_basis, 1, random.Random(seed))
        if cert is None:
            misses += 1
            continue
        hits += 1
        assert (cert @ lift(wt.matrix, ext)).is_zero()
        for j in range(3):
            assert cert[0, j].code != 0
    assert hits and misses


def test_extract_key_properties():
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=11)
    key = scheme.key
    assert key is not None
    assert list(key.coords) == sorted(key.coords)
    assert len(key.coords) == scheme.s
    assert rank(scheme.comm_matrix.hstack(key.matrix)) == src.base_dim
    fresh = extract_key(scheme)
    assert fresh.coords == key.coords


def test_columns_of_partitions_ownership():
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=2)
    all_cols = []
    for v in range(src.vertex_count):
        all_cols.extend(j for j, o in enumerate(scheme.owners) if o == v)
    assert sorted(all_cols) == list(range(scheme.comm_matrix.cols))


def test_validate_rejects_broken_schemes():
    src, wt = parity_path()
    good = synth_explicit_unit(src, wt)

    wrong_owner = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=good.comm_matrix,
        owners=(3, 2),  # node 3 cannot see coordinate 0
    )
    with pytest.raises(SchemeError):
        wrong_owner.validate(src)

    short_rank = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=good.comm_matrix.take_cols([0]).hstack(
            good.comm_matrix.take_cols([0])
        ),
        owners=(1, 1),
    )
    with pytest.raises(SchemeError):
        short_rank.validate(src)

    singular_mix = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=good.comm_matrix,
        owners=good.owners,
        child_mix={(1, 1): FMatrix.zeros(good.ext_ctx, 1, 1)},
    )
    with pytest.raises(SchemeError):
        singular_mix.validate(src)

    stale_cert = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=good.comm_matrix,
        owners=good.owners,
        certificate=FMatrix.from_rows(good.ext_ctx, [[1, 0, 0]], cols=3),
    )
    with pytest.raises(SchemeError):
        stale_cert.validate(src)

    bad_key = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=good.comm_matrix,
        owners=good.owners,
        key=extract_key(good),
    )
    bad_key.key = type(good.key)(
        matrix=good.comm_matrix.take_cols([0]), coords=(0,)
    )
    with pytest.raises(SchemeError):
        bad_key.validate(src)

    other_src = TreePinSource(3, 4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
    with pytest.raises(SchemeError):
        good.validate(other_src)


def test_validate_checks_wiretap_annihilation():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    scheme.validate(src, wt)
    hostile = Wiretapper(
        FMatrix.from_cols(src.base_ctx, [[1, 0, 0]], rows=3)
    )
    with pytest.raises(SchemeError):
        scheme.validate(src, hostile)


def test_serialization_round_trip():
    cases = [
        synth_explicit_unit(*parity_path()),
        synth_random(*wide_path_irreducible(), seed=5),
        synth_random(*star3_no_wiretap(), seed=9),
    ]
    for scheme in cases:
        text = save_scheme(scheme)
        back = load_scheme(text)
        assert back.ext_ctx.key == scheme.ext_ctx.key
        assert back.s == scheme.s
        assert back.root == scheme.root
        assert back.owners == scheme.owners
        assert back.comm_matrix == scheme.comm_matrix
        assert back.child_mix == scheme.child_mix
        assert {k: v for k, v in scheme.surplus_mix.items() if v.cols} == back.surplus_mix
        assert back.certificate is None  # certificates are never written out
        assert back.key is not None and back.key.coords == scheme.key.coords
        assert save_scheme(back) == text


def test_round_trip_across_suite():
    suite = build_irreducible_suite(40)
    for i, (src, wt) in enumerate(suite):
        scheme = synth_random(src, wt, seed=1000 + i)
        back = load_scheme(save_scheme(scheme))
        assert save_scheme(back) == save_scheme(scheme)
        back.validate(src)


def test_published_scheme_fixture_loads():
    src, wt, scheme = published_scheme()
    scheme.validate(src)
    text = save_scheme(scheme)
    again = load_scheme(text)
    assert again.comm_matrix == scheme.comm_matrix


def test_load_rejects_malformed_scheme_text():
    good = save_scheme(synth_explicit_unit(*parity_path()))
    bad_cases = [
        good.replace("treepin-scheme", "scheme"),
        good.replace(" n=2", ""),
        good.replace("modulus 1,1,1", "modulus"),
        good.replace("modulus 1,1,1", "modulus 1,0,1"),  # reducible polynomial
        good.replace("root 0", "stem 0"),
        good.replace("s 1", "sdim 1"),
        good.replace("owners 1 2", "holders 1 2"),
        good.replace("fmat rows=3 cols=2", "fmat rows=4 cols=2"),
        good.replace("keycols 0", "keyrows 0"),
        good + "junk\n",
        "",
    ]
    for text in bad_cases:
        with pytest.raises(ValueError):
            load_scheme(text)
    owners_mismatch = good.replace("owners 1 2", "owners 1")
    with pytest.raises(SchemeError):
        load_scheme(owners_mismatch)
    bad_elem = good.replace("fmat rows=3 cols=2", "fmat rows=3 cols=2", 1)
    lines = bad_elem.splitlines()
    lines[6] = lines[6].replace(",", "", 1)  # break one element token
    with pytest.raises(SchemeError):
        load_scheme("\n".join(lines) + "\n")


def test_load_scheme_reuses_the_canonical_context():
    scheme = synth_random(*wide_path_irreducible(), seed=5)
    back = load_scheme(save_scheme(scheme))
    assert back.ext_ctx is make_ext_field(scheme.ext_ctx.q, scheme.ext_ctx.n)
    header = "treepin-scheme q=2 n=3\nmodulus {}\nroot none\ns 1\nowners\nfmat rows=1 cols=0\n"
    canonical = make_ext_field(2, 3)
    assert canonical.modulus == (1, 1, 0, 1)
    assert load_scheme(header.format("1,1,0,1")).ext_ctx is canonical
    # another irreducible cubic gets a context of its own
    other = load_scheme(header.format("1,0,1,1")).ext_ctx
    assert other.modulus == (1, 0, 1, 1) and other.key != canonical.key
    for bad in ("1,0,0,1", "1,1,0", "1,1,0,1,1", "1,x,0,1"):
        with pytest.raises(SchemeError):
            load_scheme(header.format(bad))
    with pytest.raises(SchemeError):
        load_scheme(header.format("1,1,0,1").replace("q=2", "q=4"))
