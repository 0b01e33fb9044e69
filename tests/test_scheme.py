"""Communication scheme synthesis, key extraction, serialization."""

from __future__ import annotations

import itertools
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from treepin import (
    CommScheme,
    InstanceError,
    FMatrix,
    SchemeError,
    TreePinSource,
    Wiretapper,
    choose_extension_degree,
    load_scheme,
    make_ext_field,
    random_instance,
    save_scheme,
    synth_explicit_unit,
    synth_random,
    verify_scheme,
)
from treepin.falinalg import (
    left_nullspace_basis,
    lift,
    rank,
    rref,
)
from treepin.gfield import ExtFieldCtx
from treepin.scheme import (
    _MAX_ATTEMPTS,
    _default_root,
    _synth_from_certificate,
    sample_alignment_certificate,
)

from conftest import (
    build_irreducible_suite,
    certified_scheme_over,
    completion_indices,
    count_null_builds,
    count_null_reads,
    explicit_certificate,
    inverse,
    parity_path,
    published_scheme,
    replayed_certificate,
    sample_certificate_referee,
    scheme_over,
    star3_no_wiretap,
    wide_path_irreducible,
    wide_path_reducible,
)


# ---------------------------------------------------------------------------
# Referees for what a scheme does not carry: the key as the greedy
# completion of col F, and the checks a certificate C = R N_W meets.  C is
# a synthesis intermediate, so the tests rebuild it (conftest's
# replayed_certificate and explicit_certificate).


def extract_key(scheme):
    """Greedy key coordinates: those of the first standard basis vectors
    (ascending coordinate) that extend the communication's column space to
    full rank.

    With N the left-null basis of F, rank([F | X]) = rank F + rank(N X), so
    e_i extends col F and the earlier picks exactly when column i of N is
    independent of the columns before it: the picks are N's pivot columns.
    """
    null = scheme.null
    if null.rows != scheme.s:
        raise SchemeError("communication matrix does not leave an s-dim key space")
    return rref(null).pivots


def check_certificate(cert, scheme, source, wiretapper):
    """Raise SchemeError unless C is s x base_dim of rank s, C F = 0 and
    C annihilates the tap's lifted matrix."""
    if cert.rows != scheme.s or cert.cols != source.base_dim:
        raise SchemeError("certificate has the wrong shape")
    if rank(cert) != scheme.s:
        raise SchemeError("certificate rows are dependent")
    if not (cert @ scheme.comm_matrix).is_zero():
        raise SchemeError("certificate does not annihilate the communication")
    if not (cert @ lift(wiretapper.matrix, scheme.ext_ctx)).is_zero():
        raise SchemeError("certificate does not annihilate the wiretap matrix")


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
    cert = explicit_certificate(src, wt)
    check_certificate(cert, scheme, src, wt)
    assert [cert[0, j].code for j in range(3)] == [3, 1, 2]
    assert all(cert[0, j].code for j in range(3))
    assert scheme.comm_matrix.shape == (3, 2)
    assert scheme.owners == (1, 2)
    # both internal nodes relay with multiplier 1+x
    assert sorted(scheme.child_mix) == [(1, 1), (2, 2)]
    for a in scheme.child_mix.values():
        assert a.shape == (1, 1) and a[0, 0].code == 3
    assert scheme.key == (0,)
    scheme.validate(src)


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


def test_explicit_unit_refuses_a_zero_certificate_entry(monkeypatch):
    """With the irreducibility gate bypassed, a unit edge the tap sees
    whole leaves a zero column in N_W, so its 1 x 1 lead block is singular."""
    src = TreePinSource(2, 4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
    wt = Wiretapper(FMatrix.from_cols(src.base_ctx, [[1, 0, 0]], rows=3))
    monkeypatch.setattr("treepin.scheme.is_irreducible", lambda *_: True)
    with pytest.raises(
        AssertionError, match="^zero certificate entry; instance was not irreducible$"
    ):
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
    scheme.validate(src)
    check_certificate(replayed_certificate(src, wt, 3), scheme, src, wt)


def test_certificate_sampler_rejects_bad_draws():
    """Certificates with a singular per-edge lead block are discarded."""
    src, wt = parity_path()
    ext = make_ext_field(2, 2)
    hits = misses = 0
    for seed in range(200):
        draw = sample_alignment_certificate(src, wt, ext, 1, random.Random(seed))
        if draw is None:
            misses += 1
            continue
        hits += 1
        cert_rows, lead_inv = draw
        cert = FMatrix.from_rows(ext, cert_rows)
        assert (cert @ lift(wt.matrix, ext)).is_zero()
        assert sorted(lead_inv) == [e.edge_id for e in src.edges]
        for e in src.edges:
            j = src.edge_range(e.edge_id).start
            assert cert[0, j].code != 0
            inv = FMatrix.from_rows(ext, lead_inv[e.edge_id])
            assert inv @ cert.take_cols([j]) == FMatrix.identity(ext, 1)
    assert hits and misses


def test_certificate_draw_matches_product_referee(irreducible_suite):
    """Draw for draw, the sampler that reads C off N_W's free coordinates
    gives the product-form referee's certificate codes, lead inverses and
    rejections, and leaves the rng in the same state, on the irreducible
    suite and on the parity path over several (q, n)."""
    cases = [(src, wt, choose_extension_degree(src), src.min_mult) for src, wt in irreducible_suite]
    for q in (2, 3, 5):
        base = make_ext_field(q, 1)
        src = TreePinSource(q, 4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
        wt = Wiretapper(FMatrix.from_cols(base, [[1, 1, 1]], rows=3))
        cases += [(src, wt, n, 1) for n in (1, 2, 3)]
    hits = misses = 0
    for i, (src, wt, n, s) in enumerate(cases):
        if wt.rows - wt.dim < s:
            continue
        ext = make_ext_field(src.q, n)
        null_basis = left_nullspace_basis(lift(wt.matrix, ext))
        got_rng, want_rng = random.Random(i), random.Random(i)
        for _ in range(6):
            got = sample_alignment_certificate(src, wt, ext, s, got_rng)
            want = sample_certificate_referee(src, null_basis, s, want_rng)
            assert got == want
            assert got_rng.getstate() == want_rng.getstate()
            if got is None:
                misses += 1
            else:
                hits += 1
    assert hits >= 100 and misses >= 10


def test_synthesis_reads_no_full_tap_null(monkeypatch, irreducible_suite, explicit_unit_suite):
    """synth_random and synth_explicit_unit read N_W^T only at the tap's
    pivot coordinates: no null_rows call that spans every coordinate.
    Instances with one edge are left out, because there the irreducibility
    check ranks the one edge's block, which is every coordinate."""
    reads = count_null_reads(monkeypatch)
    synthesized = 0
    for i, (src, wt) in enumerate(irreducible_suite):
        if src.edge_count < 2:
            continue
        try:
            synth_random(src, wt, seed=i)
        except SchemeError:
            continue
        synthesized += 1
    for src, wt, _ in explicit_unit_suite:
        if src.edge_count >= 2:
            synth_explicit_unit(src, wt)
            synthesized += 1
    assert synthesized >= 20
    assert reads
    assert all(len(coords) < wt_rows for wt_rows, coords in reads)


def test_extract_key_properties():
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=11)
    key = scheme.key
    assert key is not None
    assert list(key) == sorted(key)
    assert len(key) == scheme.s
    unit = FMatrix.basis_columns(scheme.ext_ctx, src.base_dim, key)
    assert rank(scheme.comm_matrix.hstack(unit)) == src.base_dim
    assert extract_key(scheme) == key


def test_columns_of_partitions_ownership():
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=2)
    all_cols = []
    for v in range(src.vertex_count):
        all_cols.extend(j for j, o in enumerate(scheme.owners) if o == v)
    assert sorted(all_cols) == list(range(scheme.comm_matrix.cols))


def test_owner_error_names_the_lowest_unseen_coordinate():
    """Column 1 of the published scheme, x X_1 + X_2, uses coordinates 1
    and 2, and node 0 sees only coordinate 0: the error names coordinate 1.
    Column 0 (X_0 + (1+x) X_1, owned by node 1) passes."""
    src, wt, scheme = published_scheme()
    bad = CommScheme(
        ext_ctx=scheme.ext_ctx,
        s=scheme.s,
        comm_matrix=scheme.comm_matrix,
        owners=(1, 0),
        key=scheme.key,
    )
    message = "column 1 uses coordinate 1 that node 0 cannot observe"
    with pytest.raises(SchemeError) as err:
        bad.check_owners(src)
    assert str(err.value) == message
    with pytest.raises(SchemeError, match=message):
        bad.validate(src)


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

    stale_cert = FMatrix.from_rows(good.ext_ctx, [[1, 0, 0]], cols=3)
    with pytest.raises(SchemeError):
        check_certificate(stale_cert, good, src, wt)

    # F = [e_1 | e_2] leaves N = e_0, whose column 1 is zero: coordinate 1
    # does not complete F, coordinate 0 does
    bad_key = CommScheme(
        ext_ctx=good.ext_ctx,
        s=1,
        comm_matrix=FMatrix.basis_columns(good.ext_ctx, 3, (1, 2)),
        owners=(1, 2),
        key=(1,),
    )
    message = "^key columns do not complete the communication$"
    with pytest.raises(SchemeError, match=message):
        bad_key.validate(src)
    replace(bad_key, key=(0,)).validate(src)
    # the scheme holds its key as the coordinates its file carries, so the
    # loaded copy is the same scheme and is refused the same way
    back = load_scheme(save_scheme(bad_key))
    assert back == bad_key
    with pytest.raises(SchemeError, match=message):
        back.validate(src)

    other_src = TreePinSource(3, 4, [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
    with pytest.raises(SchemeError):
        good.validate(other_src)


def test_validate_checks_wiretap_annihilation():
    src, wt = parity_path()
    scheme = synth_explicit_unit(src, wt)
    cert = explicit_certificate(src, wt)
    check_certificate(cert, scheme, src, wt)
    hostile = Wiretapper(
        FMatrix.from_cols(src.base_ctx, [[1, 0, 0]], rows=3)
    )
    with pytest.raises(SchemeError, match="^certificate does not annihilate the wiretap matrix$"):
        check_certificate(cert, scheme, src, hostile)


def test_validate_refuses_a_key_not_s_wide():
    """rank(N K) = s also holds for a key with more than s columns that
    contains a completing one, and such a key is not secret: the key map
    must have exactly s columns.  One coordinate too many or too few is
    refused with one message."""
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=0)
    scheme.validate(src)
    (coord,) = scheme.key
    for extra in range(src.base_dim):
        if extra == coord:
            continue
        coords = tuple(sorted((coord, extra)))
        with pytest.raises(SchemeError) as err:
            replace(scheme, key=coords).validate(src)
        assert str(err.value) == "key map has 2 columns, must have s = 1"
        # load_scheme runs the same check on the keycols line
        text = save_scheme(scheme).replace(f"keycols {coord}\n", "keycols %d %d\n" % coords)
        with pytest.raises(SchemeError) as err:
            load_scheme(text)
        assert str(err.value) == "key map has 2 columns, must have s = 1"
    with pytest.raises(SchemeError) as err:
        replace(scheme, key=()).validate(src)
    assert str(err.value) == "key map has 0 columns, must have s = 1"


def test_validate_refuses_keycols_out_of_range_or_repeated():
    """N.take_cols would read coordinate -1 as the last one, so validate
    checks the key's range before it reads N, and refuses a repeated
    coordinate too, with the message load_scheme gives for the same
    keycols line."""
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=5)
    (coord,) = scheme.key
    d = src.base_dim
    message = f"keycols must be distinct coordinates in [0, {d})"
    for key in ((-1,), (d,), (0, 0)):
        with pytest.raises(SchemeError) as err:
            replace(scheme, key=key).validate(src)
        assert str(err.value) == message
        line = " ".join(["keycols", *map(str, key)])
        with pytest.raises(SchemeError) as err:
            load_scheme(save_scheme(scheme).replace(f"keycols {coord}\n", line + "\n"))
        assert str(err.value) == message


def test_null_is_built_once_per_scheme(monkeypatch):
    """synth_random never eliminates F: its key comes from the certificate
    and the scheme is valid by construction.  A loaded scheme's validate and
    verify_scheme share one elimination.  The cached N takes no part in ==
    or repr."""
    built = count_null_builds(monkeypatch)
    for i, (src, wt) in enumerate(build_irreducible_suite(20)):
        before = len(built)
        scheme = synth_random(src, wt, seed=400 + i)
        assert built[before:] == []
        text = save_scheme(scheme)
        loaded = load_scheme(text)
        before = len(built)
        loaded.validate(src)
        assert verify_scheme(loaded, src, wt).all_pass
        assert built[before:] == [loaded.comm_matrix]
        assert loaded.null is loaded.null
        assert loaded.null == left_nullspace_basis(loaded.comm_matrix)
        fresh = load_scheme(text)
        assert loaded == fresh and repr(loaded) == repr(fresh)


def test_null_follows_a_reassigned_comm_matrix():
    """A scheme is frozen, so its N cannot go stale: a field cannot be
    assigned, and after N is read, a scheme with a dropped column in F
    (made by dataclasses.replace) is caught: validate builds N for the new
    F (one row more) instead of reusing the old one."""
    src, wt = wide_path_irreducible()
    scheme = synth_random(src, wt, seed=5)
    scheme.validate(src)
    assert scheme.null.rows == scheme.s
    keep = list(range(1, scheme.comm_matrix.cols))
    with pytest.raises(FrozenInstanceError):
        scheme.comm_matrix = scheme.comm_matrix.take_cols(keep)
    dropped = replace(
        scheme,
        comm_matrix=scheme.comm_matrix.take_cols(keep),
        owners=tuple(scheme.owners[j] for j in keep),
    )
    with pytest.raises(SchemeError, match="communication matrix rank must be base_dim - s"):
        dropped.validate(src)
    assert dropped.null.rows == scheme.s + 1
    assert dropped.null == left_nullspace_basis(dropped.comm_matrix)
    assert scheme.null.rows == scheme.s


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
        assert back.key is not None and back.key == scheme.key
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


@pytest.mark.parametrize(
    "tag, message",
    [
        ("amat node=1 edge=1 cols=1", "malformed amat tag: needs integer rows= cols="),
        ("amat node=x edge=1 rows=1 cols=1", "malformed amat tag: needs integer node= edge="),
        ("amat node=1 edge=1 rows=1 cols=-1", "malformed amat tag: negative field"),
        ("amat node=1 edge=1 rows=1 cols1", "malformed amat tag: fields must be key=value"),
        ("amat node=-1 edge=1 rows=x cols=1", "malformed amat tag: negative field"),
    ],
)
def test_load_scheme_pins_malformed_tag_messages(tag, message):
    """Each amat tag line is split into fields once; node/edge are read
    before rows/cols, so a bad node= wins over a bad rows=."""
    good = save_scheme(synth_explicit_unit(*parity_path()))
    text = good.replace("amat node=1 edge=1 rows=1 cols=1", tag)
    assert text != good
    with pytest.raises(SchemeError) as err:
        load_scheme(text)
    assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# Referee: the certificate unfolding as four separate steps (a rooted-tree
# class, per-edge blocks, per-node mixing blocks, column assembly over field
# elements) and the key as the greedy completion of [F | I].


class _Rooted:
    """Parent/child structure of the source tree under a chosen root."""

    def __init__(self, source, root):
        self.root = root
        parent_edge, parent_node = {}, {}
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for e in source.incident_edges(v):
                other = e.v if e.u == v else e.u
                if other not in seen:
                    seen.add(other)
                    parent_edge[other] = e.edge_id
                    parent_node[other] = v
                    order.append(other)
        self.parent_edge = parent_edge
        self.bfs_order = tuple(order)
        children = {v: [] for v in range(source.vertex_count)}
        for child, eid in parent_edge.items():
            children[parent_node[child]].append(eid)
        self.children_edges = {v: tuple(sorted(es)) for v, es in children.items()}


def _certificate_blocks(source, cert, s):
    out = {}
    for e in source.edges:
        block = source.edge_range(e.edge_id)
        lead = cert.take_cols(range(block.start, block.start + s))
        tail = cert.take_cols(range(block.start + s, block.stop))
        out[e.edge_id] = (lead, tail)
    return out


def _neg(m):
    neg = m.ctx.neg_code
    return FMatrix.from_rows(m.ctx, [list(map(neg, r)) for r in m.to_code_rows()], cols=m.cols)


def _coeffs_from_certificate(source, rooted, cert, s):
    blocks = _certificate_blocks(source, cert, s)
    child_mix, surplus_mix = {}, {}
    for node in rooted.bfs_order:
        for eid in rooted.children_edges[node]:
            if node != rooted.root:
                lead_e, _ = blocks[eid]
                lead_up, _ = blocks[rooted.parent_edge[node]]
                child_mix[(node, eid)] = _neg(inverse(lead_e) @ lead_up)
    for e in source.edges:
        lead, tail = blocks[e.edge_id]
        if tail.cols:
            surplus_mix[e.edge_id] = _neg(inverse(lead) @ tail)
    return child_mix, surplus_mix


def _assemble(source, rooted, ext, s, child_mix, surplus_mix):
    d = source.base_dim
    cols, owners = [], []

    def lead_rows(edge_id):
        block = source.edge_range(edge_id)
        return [block.start + k for k in range(s)]

    for node in range(source.vertex_count):
        if source.degree(node) >= 2:
            up = rooted.parent_edge[node]
            for eid in rooted.children_edges[node]:
                a = child_mix[(node, eid)]
                for j in range(s):
                    col = [ext.zero] * d
                    col[lead_rows(up)[j]] = ext(1)
                    for i in range(s):
                        col[lead_rows(eid)[i]] = a[i, j]
                    cols.append(col)
                    owners.append(node)
        if node != rooted.root:
            eid = rooted.parent_edge[node]
            block = source.edge_range(eid)
            b = surplus_mix.get(eid)
            for j, row_idx in enumerate(range(block.start + s, block.stop)):
                col = [ext.zero] * d
                col[row_idx] = ext(1)
                for i in range(s):
                    col[lead_rows(eid)[i]] = b[i, j]
                cols.append(col)
                owners.append(node)
    return FMatrix.from_cols(ext, cols, rows=d), tuple(owners)


def assert_matches_unfolding_referee(src, scheme, cert):
    rooted = _Rooted(src, scheme.root)
    child_mix, surplus_mix = _coeffs_from_certificate(src, rooted, cert, scheme.s)
    comm, owners = _assemble(
        src, rooted, scheme.ext_ctx, scheme.s, child_mix, surplus_mix
    )
    assert scheme.comm_matrix == comm
    assert scheme.owners == owners
    assert scheme.child_mix == child_mix
    assert scheme.surplus_mix == surplus_mix
    assert scheme.key == completion_indices(comm)


def test_unfolding_matches_referee_on_suite(certified_suite):
    for src, _, scheme, cert in certified_suite:
        assert_matches_unfolding_referee(src, scheme, cert)


def test_synthesized_schemes_pass_validate(certified_suite):
    """Synthesis does not validate what it builds; every scheme it gives
    still passes the full validate, its certificate meets the certificate
    and tap checks, and its key is the greedy completion: the pivots of
    N = left_nullspace_basis(F)."""
    for src, wt, scheme, cert in certified_suite:
        scheme.validate(src)
        check_certificate(cert, scheme, src, wt)
        assert scheme.key == extract_key(scheme)
        assert scheme.key == rref(left_nullspace_basis(scheme.comm_matrix)).pivots


def test_certificate_is_a_basis_of_the_left_nullspace_of_f(certified_suite):
    """C F = 0 and rank C = s = D - rank F, so the certificate's rows span
    F's left nullspace: C and N = left_nullspace_basis(F) share one reduced
    echelon form, and its pivots (the N referee) are the key coordinates."""
    for _, _, scheme, cert in certified_suite:
        got = rref(cert)
        want = rref(left_nullspace_basis(scheme.comm_matrix))
        assert got.matrix == want.matrix
        assert scheme.key == want.pivots


def test_unfolding_matches_referee_with_edges_out_of_id_order():
    # node 1 meets edges 3, 0, 2 in listed order; its relay columns still
    # follow ascending child edge id
    src = TreePinSource(
        3, 5, [(3, 1, 2, 2), (0, 0, 1, 2), (2, 1, 3, 3), (1, 3, 4, 2)]
    )
    taps = [
        Wiretapper(FMatrix.from_cols(src.base_ctx, [], rows=src.base_dim)),
        Wiretapper(
            FMatrix.from_cols(src.base_ctx, [[1, 0, 2, 0, 1, 0, 0, 1, 0]], rows=9)
        ),
    ]
    for wt in taps:
        for seed in range(3):
            scheme = synth_random(src, wt, seed=seed)
            assert_matches_unfolding_referee(src, scheme, replayed_certificate(src, wt, seed))


# test_verify's fields: GF(2, 3, 5, 7), their extensions of degree 2..6,
# and GF(2^13), which has no log/exp tables
REFEREE_FIELDS = [(q, n) for q in (2, 3, 5, 7) for n in range(1, 7)] + [(2, 13)]


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_unfolding_matches_referee_over_fields(q, n):
    for inst in range(2):
        src, _, scheme, cert = certified_scheme_over(q, n, seed=100 * q + 10 * n + inst)
        assert_matches_unfolding_referee(src, scheme, cert)


def _comm_variants(scheme):
    """Communication matrices synthesis never produces: each column dropped
    in turn, a dependent column appended, full row rank, no columns."""
    ext = scheme.ext_ctx
    f = scheme.comm_matrix
    d, c = f.rows, f.cols
    rows = f.to_code_rows()
    out = []
    for j in range(c):
        out.append(f.take_cols([i for i in range(c) if i != j]))
        # column j times a nonzero coefficient plus column j + 1
        coef = 1 + j % (ext.order - 1)
        col = [ext.add_code(ext.mul_code(r[j], coef), r[(j + 1) % c]) for r in rows]
        out.append(f.hstack(FMatrix.from_cols(ext, [col], rows=d)))
    out.append(f.hstack(FMatrix.basis_columns(ext, d, scheme.key)))
    out.append(FMatrix.zeros(ext, d, 0))
    return out


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_extract_key_matches_completion_on_variants(q, n):
    src, _, scheme = scheme_over(q, n, seed=100 * q + 10 * n)
    for f in _comm_variants(scheme):
        k = f.rows - rank(f)
        variant = CommScheme(
            ext_ctx=scheme.ext_ctx, s=k, comm_matrix=f, owners=(0,) * f.cols
        )
        key = extract_key(variant)
        assert key == completion_indices(f)
        unit = FMatrix.basis_columns(f.ctx, f.rows, key)
        assert rank(f.hstack(unit)) == f.rows
        for wrong in (k - 1, k + 1):
            with pytest.raises(SchemeError, match="does not leave an s-dim key space"):
                extract_key(replace(variant, s=wrong))


def explicit_unit_certificate_referee(src, wt):
    """Referee: the explicit certificate from the reduced row echelon form
    of W^T.  The power basis 1, x, ..., x^(k-1) of GF(q**k) goes on the
    non-pivot coordinates, and each pivot coordinate gets minus its row's
    mixed sum."""
    d, m = src.base_dim, wt.dim
    red = rref(wt.matrix.transpose())
    pivots = list(red.pivots)
    nonpivots = [c for c in range(d) if c not in pivots]
    ext = make_ext_field(src.q, d - m)
    entries = [0] * d
    for j, c in enumerate(nonpivots):
        entries[c] = src.q**j
    for row, c in zip(red.matrix.to_code_rows(), pivots):
        acc = 0
        for nc in nonpivots:
            if row[nc]:
                acc = ext.add_code(acc, ext.mul_code(row[nc], entries[nc]))
        entries[c] = ext.neg_code(acc)
    return FMatrix.from_rows(ext, [entries], cols=d)


def test_explicit_unit_certificate_matches_echelon_referee():
    """The certificate (1, x, ..., x^(k-1)) N_W equals the one built from
    the echelon form of W^T, over GF(2), GF(3), GF(5) and GF(7)."""
    built = {}
    for seed_ in range(400):
        rng = random.Random(seed_)
        q = (2, 3, 5, 7)[seed_ % 4]
        vertices = rng.randint(3, 9)
        try:
            src, wt = random_instance(seed_, vertices, 1, q, rng.randint(1, vertices - 2))
            scheme = synth_explicit_unit(src, wt)
        except (InstanceError, SchemeError):
            continue
        cert = explicit_certificate(src, wt)
        assert cert == explicit_unit_certificate_referee(src, wt)
        assert (cert @ scheme.comm_matrix).is_zero()
        built[q] = built.get(q, 0) + 1
    assert sorted(built) == [2, 3, 5, 7] and min(built.values()) >= 10


def synth_random_referee(src, wt, seed):
    """Referee: synth_random with its certificates drawn in product form
    from an elimination of the lifted tap over GF(q**n); the scheme and the
    certificate it was unfolded from."""
    ext = make_ext_field(src.q, choose_extension_degree(src))
    null_basis = left_nullspace_basis(lift(wt.matrix, ext))
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        draw = sample_certificate_referee(src, null_basis, src.min_mult, rng)
        if draw is not None:
            scheme = _synth_from_certificate(src, ext, *draw, _default_root(src))
            return scheme, FMatrix.from_rows(ext, draw[0], cols=src.base_dim)
    raise AssertionError("referee found no certificate")


def test_synth_random_matches_lifted_tap_referee(irreducible_suite):
    """The lifted base-field N_W gives the very schemes an elimination of
    the lifted tap gives."""
    for i, (src, wt) in enumerate(irreducible_suite):
        try:
            got = synth_random(src, wt, seed=i)
        except SchemeError:
            continue
        want, want_cert = synth_random_referee(src, wt, i)
        assert replayed_certificate(src, wt, i) == want_cert
        assert save_scheme(got) == save_scheme(want)


# ---------------------------------------------------------------------------
# Referee: scheme entries written and read one at a time, a decode per entry
# on save and a parse and encode per entry on load (the path the per-field
# token tables replace).


def _fmt_lines_referee(m):
    if not m.cols:
        return []
    decode = m.ctx.decode
    return [" ".join(",".join(map(str, decode(c))) for c in row) for row in m.to_code_rows()]


def save_scheme_referee(scheme):
    ext = scheme.ext_ctx
    lines = [
        f"treepin-scheme q={ext.q} n={ext.n}",
        "modulus " + ",".join(map(str, ext.modulus)),
        f"root {'none' if scheme.root is None else scheme.root}",
        f"s {scheme.s}",
        " ".join(["owners", *map(str, scheme.owners)]),
        f"fmat rows={scheme.comm_matrix.rows} cols={scheme.comm_matrix.cols}",
        *_fmt_lines_referee(scheme.comm_matrix),
    ]
    for (node, eid), a in sorted(scheme.child_mix.items()):
        lines.append(f"amat node={node} edge={eid} rows={a.rows} cols={a.cols}")
        lines += _fmt_lines_referee(a)
    for eid, b in sorted(scheme.surplus_mix.items()):
        if b.cols:
            lines.append(f"bmat edge={eid} rows={b.rows} cols={b.cols}")
            lines += _fmt_lines_referee(b)
    if scheme.key is not None:
        lines.append(" ".join(["keycols", *map(str, scheme.key)]))
    return "\n".join(lines) + "\n"


def parse_elem_referee(token, ext):
    parts = token.split(",")
    if len(parts) != ext.n:
        raise SchemeError(f"element {token!r} needs {ext.n} coefficients")
    try:
        coeffs = [int(p) for p in parts]
    except ValueError:
        raise SchemeError(f"bad element {token!r}") from None
    for c in coeffs:
        if not 0 <= c < ext.q:
            raise SchemeError(f"coefficient {c} out of range for F_{ext.q}")
    return ext.encode(coeffs)


def block_codes_referee(text, ext):
    """Code rows of each matrix block with columns, in file order, parsed
    one entry at a time."""
    lines = text.splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if parts[0] in ("fmat", "amat", "bmat"):
            tag = dict(p.split("=") for p in parts[1:])
            rows, cols = int(tag["rows"]), int(tag["cols"])
            if cols:
                blocks.append([
                    [parse_elem_referee(t, ext) for t in lines[i + r].split()]
                    for r in range(rows)
                ])
                i += rows
    return blocks


def _block_codes(scheme):
    mats = [
        scheme.comm_matrix,
        *(a for _, a in sorted(scheme.child_mix.items())),
        *(b for _, b in sorted(scheme.surplus_mix.items())),
    ]
    return [m.to_code_rows() for m in mats if m.cols]


def assert_entry_io_matches_referee(scheme):
    text = save_scheme(scheme)
    assert text == save_scheme_referee(scheme)
    back = load_scheme(text)
    assert back.ext_ctx.key == scheme.ext_ctx.key
    assert _block_codes(back) == block_codes_referee(text, back.ext_ctx)
    assert save_scheme(back) == text


def _all_codes_scheme(ext, seed):
    """A scheme (not a valid design) whose first fmat row holds every code
    of a field of order at most 4096, or both ends and 500 sampled codes of
    a larger one, with amat and bmat blocks of sampled codes and one key
    coordinate per row (s = 2)."""
    rng = random.Random(seed)
    if ext.order <= 4096:
        codes = list(range(ext.order))
    else:
        codes = [0, ext.order - 1, *rng.sample(range(ext.order), 500)]
    draw = lambda r, c: FMatrix.from_rows(
        ext, [[rng.randrange(ext.order) for _ in range(c)] for _ in range(r)], cols=c
    )
    return CommScheme(
        ext_ctx=ext,
        s=2,
        comm_matrix=FMatrix.from_rows(ext, [codes, [0] * len(codes)], cols=len(codes)),
        owners=(0,) * len(codes),
        root=0,
        child_mix={(1, 0): draw(2, 2), (1, 2): draw(2, 2)},
        surplus_mix={0: draw(2, 3), 2: draw(2, 0)},
        key=(0, 1),
    )


@pytest.mark.parametrize("q, n", REFEREE_FIELDS)
def test_entry_io_matches_per_entry_referee(q, n):
    ext = make_ext_field(q, n)
    schemes = [scheme_over(q, n, seed=100 * q + 10 * n + inst)[2] for inst in range(2)]
    schemes.append(_all_codes_scheme(ext, seed=10 * q + n))
    for scheme in schemes:
        assert_entry_io_matches_referee(scheme)


def _other_field(q, n):
    """GF(q**n) over the first monic irreducible modulus (constant term
    varying slowest) that is not the canonical one."""
    canonical = make_ext_field(q, n).modulus
    for low in itertools.product(range(q), repeat=n):
        if (*low, 1) == canonical:
            continue
        try:
            return ExtFieldCtx(q, n, (*low, 1))
        except ValueError:
            continue
    raise AssertionError("no second irreducible modulus")


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (5, 2), (7, 3), (2, 13)])
def test_entry_io_matches_referee_over_another_modulus(q, n):
    ext = _other_field(q, n)
    assert ext.modulus != make_ext_field(q, n).modulus
    assert_entry_io_matches_referee(_all_codes_scheme(ext, seed=q + n))


# (spelling of an entry of GF(q**3), q <= 7; whether it names an element)
ENTRY_SPELLINGS = [
    ("01,0,0", True),
    ("+1,0,0", True),
    ("0,-0,1", True),
    ("1,0,00", True),
    ("1_0,0,0", False),  # int() reads 10
    ("7,0,0", False),
    ("-1,0,0", False),
    ("x,0,0", False),
    ("1,,0", False),
    ("1.0,0,0", False),
    ("1,1", False),
    ("0,0,0,0", False),
    ("1,0,0,", False),
]


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (7, 3), (2, 13)])
def test_entry_spellings_load_as_the_referee_parses_them(q, n):
    ext = make_ext_field(q, n)
    head = (
        f"treepin-scheme q={q} n={n}\nmodulus {','.join(map(str, ext.modulus))}\n"
        "root none\ns 1\nowners 0\nfmat rows=1 cols=1\n"
    )
    for spelling, names_an_element in ENTRY_SPELLINGS:
        # GF(2^13): the same spellings with ten more zero coefficients
        token = spelling + ",0" * (n - 3)
        try:
            want = parse_elem_referee(token, ext)
        except SchemeError as exc:
            assert not names_an_element, token
            with pytest.raises(SchemeError) as got:
                load_scheme(head + token + "\n")
            assert str(got.value) == str(exc)
        else:
            assert names_an_element, token
            assert load_scheme(head + token + "\n").comm_matrix.to_code_rows() == [[want]]


def test_mix_blocks_must_have_s_rows():
    """amat and bmat blocks have s rows; a tag saying otherwise is refused
    before any of its entry lines is read."""
    text = save_scheme(synth_random(*wide_path_irreducible(), seed=5))
    cases = [
        ("bmat edge=0 rows=1 cols=1", "bmat edge=0 rows=3 cols=1\n0,0\n0,0",
         "bmat block has rows=3, must have s = 1 rows"),
        ("amat node=2 edge=2 rows=1 cols=1",
         "amat node=0 edge=1 rows=10000000 cols=0\namat node=2 edge=2 rows=1 cols=1",
         "amat block has rows=10000000, must have s = 1 rows"),
    ]
    for old, new, message in cases:
        assert old in text
        with pytest.raises(SchemeError) as exc:
            load_scheme(text.replace(old, new))
        assert str(exc.value) == message
