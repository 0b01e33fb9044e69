"""Acceptance suite: the eight headline guarantees of the toolkit.

Each test prints a one line summary with the measured numbers; every
comparison on dimensions, ranks, and counts is exact integer arithmetic,
and bit values are compared as exact multiples of log2(q).
"""

from __future__ import annotations

import math
import random
import time

from treepin import (
    CommScheme,
    FMatrix,
    TreePinSource,
    Wiretapper,
    capacity_report,
    make_ext_field,
    reduce_full,
    run_protocol,
    save_scheme,
    synth_explicit_unit,
    verify_scheme,
)
from treepin.cli import main
from treepin.falinalg import expand_to_base, lift, rank
from treepin.oracle import (
    ENTROPY_BUDGET,
    MCF_BUDGET,
    cond_mutual_info_exhaustive,
    entropy_exhaustive,
    mcf_exhaustive,
)
from treepin.scheme import sample_alignment_certificate
from treepin.verify import leakage_symbol_dims

from conftest import explicit_certificate, parity_path, published_scheme, wide_path_reducible


def test_path3_reference_values_and_handwritten_scheme(tmp_path, capsys):
    """Path of three unit edges over F_2 tapped by the parity: the analyzer
    reports key capacity 1 bit, minimum leakage 1 bit, omniscience rate
    2 bits, all exact; the hand-entered two-column GF(4) scheme passes
    omniscience at all four nodes, aligns, and leaks exactly 1 bit per
    realization.  Wall clock under one second."""
    t0 = time.monotonic()
    from treepin import save_instance

    path = tmp_path / "path3.txt"
    path.write_text(save_instance(*parity_path()))
    code = main(["analyze", "--in", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    got = dict(
        line.split(" = ", 1) for line in out.strip().splitlines()
    )
    assert got["cw_bits"] == "1"
    assert got["rl_bits"] == "1"
    assert got["rco_bits"] == "2"
    assert got["cs_bits"] == "1"
    assert got["irreducible"] == "true"

    src, wt, scheme = published_scheme()
    # the relay multiplier 1+x acts on base coordinate pairs as [[1,1],[1,0]]
    mult = FMatrix.from_rows(scheme.ext_ctx, [[3]], cols=1)
    assert expand_to_base(mult).to_code_rows() == [[1, 1], [1, 0]]
    assert scheme.ext_ctx.n == 2

    rep = verify_scheme(scheme, src, wt)
    assert rep.omniscient == {0: True, 1: True, 2: True, 3: True}
    assert rep.aligned
    assert rep.leakage_dims == 1
    assert rep.leakage_dims * math.log2(scheme.ext_ctx.q) == 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"PASS reference instance: cw=1 rl=1 rco=2 bits exact, handwritten "
        f"scheme omniscient+aligned, leakage 1.0 bit, {elapsed:.3f}s"
    )


def test_random_synthesis_hits_optimal_rates_on_500_instances(
    synthesized_suite,
):
    """500 seeded irreducible instances (q in {2,3,5}, up to 7 vertices,
    multiplicities up to 3): every synthesized scheme passes omniscience,
    alignment, and key secrecy with leakage exactly (D - n_w - s) dims and
    key exactly s dims."""
    assert len(synthesized_suite) >= 500
    for source, wt, scheme in synthesized_suite:
        rep = verify_scheme(scheme, source, wt)
        assert all(rep.omniscient.values()), source
        assert rep.aligned, source
        assert rep.key_secret, source
        d, nw, s = source.base_dim, wt.dim, source.min_mult
        assert rep.leakage_dims == d - nw - s, source
        assert rep.key_dims == s, source
        # bit rates are the same integers scaled by log2 q
        lg = math.log2(source.q)
        assert rep.leakage_dims * lg == capacity_report(source, wt).rl_bits
    print(
        f"PASS {len(synthesized_suite)} random irreducible instances: "
        f"all schemes omniscient, aligned, key-secret, leakage and key "
        f"dims exactly optimal"
    )


def test_reduction_preserves_rates_on_200_instances(reducible_suite):
    """200 seeded reducible instances: key capacity and minimum leakage
    (dims and bits) are identical before and after full reduction; the
    two-symbol-edge example reduces in exactly one step to one wiretap
    column."""
    assert len(reducible_suite) >= 200
    for source, wt in reducible_suite:
        before = capacity_report(source, wt)
        trace = reduce_full(source, wt)
        fsrc, fwt = trace.final
        after = capacity_report(fsrc, fwt)
        assert before.cw_dims == after.cw_dims
        assert before.rl_dims == after.rl_dims
        assert before.cw_bits == after.cw_bits
        assert before.rl_bits == after.rl_bits

    src, wt = wide_path_reducible()
    trace = reduce_full(src, wt)
    assert len(trace.steps) == 1
    assert trace.final[1].dim == 1
    print(
        f"PASS {len(reducible_suite)} reducible instances: cw and rl exactly "
        f"invariant under reduction; canonical example reduces in 1 step to "
        f"n_w=1"
    )


def test_linear_algebra_matches_exhaustive_oracles(synthesized_suite):
    """On every suite instance small enough to enumerate (q^(D*n) within
    the 2^18 budget): wiretap entropy, per-edge common-function entropies,
    the communication's leakage information, and the key's independence all
    match brute force enumeration bit for bit."""
    ent_checked = mcf_checked = cmi_checked = 0
    for source, wt, scheme in synthesized_suite:
        q, d, n = source.q, source.base_dim, scheme.ext_ctx.n
        if q ** (d * n) > ENTROPY_BUDGET:
            continue
        lg = math.log2(q)

        ent = entropy_exhaustive(wt.matrix, q)
        assert ent == math.log2(q**wt.dim)
        ent_checked += 1

        if q**d <= MCF_BUDGET:
            for e in capacity_report(source, wt).per_edge:
                sel = source.edge_block_selector(e.edge_id)
                exh = mcf_exhaustive(sel, wt.matrix, q)
                assert exh.bits == e.mcf_dim * lg == 0.0
                mcf_checked += 1

        fb = expand_to_base(scheme.comm_matrix)
        wb = expand_to_base(lift(wt.matrix, scheme.ext_ctx))
        ib = FMatrix.identity(source.base_ctx, fb.rows)
        leak = cond_mutual_info_exhaustive(ib, fb, wb, q)
        assert leak == leakage_symbol_dims(scheme, wt) * n * lg

        kb = expand_to_base(FMatrix.basis_columns(scheme.ext_ctx, source.base_dim, scheme.key))
        empty = FMatrix.zeros(source.base_ctx, fb.rows, 0)
        key_mi = cond_mutual_info_exhaustive(kb, fb.hstack(wb), empty, q)
        assert key_mi == 0.0
        cmi_checked += 1
    assert ent_checked >= 10, "oracle comparison would be vacuous"
    assert cmi_checked >= 10
    assert mcf_checked >= 10
    print(
        f"PASS oracle agreement: {ent_checked} entropies, {mcf_checked} "
        f"edge common-function entropies, {cmi_checked} leakage/key "
        f"information pairs match exhaustive enumeration exactly"
    )


def test_certificate_sampling_success_rate_bound():
    """Randomized certificate sampling on the parity path (q=2, s=1, three
    edges, extension degree 2): over 10^4 seeded draws the fraction of
    discarded (singular) certificates stays below s*L/q^n = 0.75 plus
    three-sigma binomial slack.  The guarantee is one sided; the observed
    rate may be much smaller."""
    src, wt = parity_path()
    ext = make_ext_field(2, 2)
    rng = random.Random(424242)
    draws = 10_000
    singular = 0
    for _ in range(draws):
        if sample_alignment_certificate(src, wt, ext, 1, rng) is None:
            singular += 1
    rate = singular / draws
    bound = 0.75 + 3 * math.sqrt(0.75 * 0.25 / draws)
    assert rate <= bound, (rate, bound)
    print(
        f"PASS certificate sampling: singular rate {rate:.4f} over "
        f"{draws} draws <= {bound:.4f}"
    )


def test_explicit_synthesis_is_deterministic_and_optimal(irreducible_suite):
    """Every all-unit-multiplicity instance in the suite with at least one
    wiretap column and at most 8 edges: the deterministic construction
    returns byte-identical schemes across two runs, uses extension degree
    exactly |E| - n_w, produces a certificate with every entry nonzero, and
    passes the full verifier."""
    eligible = 0
    for source, wt in irreducible_suite:
        if any(e.mult != 1 for e in source.edges):
            continue
        if wt.dim == 0 or source.edge_count > 8:
            continue
        eligible += 1
        first = synth_explicit_unit(source, wt)
        second = synth_explicit_unit(source, wt)
        assert save_scheme(first) == save_scheme(second)
        assert first.ext_ctx.n == source.edge_count - wt.dim
        # synthesis keeps no certificate: rebuild the one it unfolded
        cert = explicit_certificate(source, wt)
        assert (cert @ first.comm_matrix).is_zero()
        assert all(
            cert[i, j].code
            for i in range(cert.rows)
            for j in range(cert.cols)
        )
        rep = verify_scheme(first, source, wt)
        assert rep.all_pass
    assert eligible >= 50, "determinism check would be vacuous"
    print(
        f"PASS explicit construction: {eligible} unit-multiplicity "
        f"instances, byte-identical reruns, degree |E|-n_w, nonzero "
        f"certificates, full verify"
    )


def test_leakage_sandwich_for_omniscient_schemes(synthesized_suite):
    """Every omniscient scheme in the corpus (synthesized, hand-entered,
    full-broadcast, and padded with redundant columns) leaks at least
    D - n_w - cw dims and at most rank(F) dims.  A scheme failing
    omniscience is exempt and the included negative example violates the
    lower bound."""
    corpus = []
    for source, wt, scheme in synthesized_suite[:100]:
        corpus.append((source, wt, scheme))

    src, wt, hand = published_scheme()
    corpus.append((src, wt, hand))

    # full broadcast of all three coordinates (owners can see their column)
    ext1 = make_ext_field(2, 1)
    broadcast = CommScheme(
        ext_ctx=ext1,
        s=0,
        comm_matrix=FMatrix.basis_columns(ext1, 3, [0, 1, 2]),
        owners=(0, 1, 2),
    )
    corpus.append((src, wt, broadcast))

    # a valid scheme padded with a redundant raw coordinate column
    padded_base = synth_explicit_unit(src, wt)
    padded = CommScheme(
        ext_ctx=padded_base.ext_ctx,
        s=1,
        comm_matrix=padded_base.comm_matrix.hstack(
            FMatrix.basis_columns(padded_base.ext_ctx, 3, [1])
        ),
        owners=padded_base.owners + (1,),
        key=padded_base.key,
    )
    corpus.append((src, wt, padded))

    checked = 0
    for source, wt, scheme in corpus:
        rep = verify_scheme(scheme, source, wt)
        assert all(rep.omniscient.values()), "corpus scheme must be omniscient"
        leak = rep.leakage_dims
        lower = (
            source.base_dim - wt.dim - capacity_report(source, wt).cw_dims
        )
        upper = rank(scheme.comm_matrix)
        assert lower <= leak <= upper, (lower, leak, upper)
        checked += 1

    # negative control: no communication at all fails omniscience and
    # sits strictly below the lower bound
    nsrc = TreePinSource(2, 3, [(0, 0, 1, 1), (1, 1, 2, 1)])
    nwt = Wiretapper(FMatrix.zeros(nsrc.base_ctx, 2, 0))
    silent = CommScheme(
        ext_ctx=ext1,
        s=1,
        comm_matrix=FMatrix.zeros(ext1, 2, 0),
        owners=(),
    )
    rep = verify_scheme(silent, nsrc, nwt)
    assert not all(rep.omniscient.values())
    neg_leak = rep.leakage_dims
    neg_lower = (
        nsrc.base_dim - nwt.dim - capacity_report(nsrc, nwt).cw_dims
    )
    assert neg_leak < neg_lower
    print(
        f"PASS leakage sandwich: {checked} omniscient schemes inside "
        f"[D-n_w-cw, rank(F)] dims; silent negative control fails "
        f"omniscience and the lower bound ({neg_leak} < {neg_lower})"
    )


def test_simulation_perfect_decode_and_key_agreement(synthesized_suite):
    """At least 5000 protocol trials across the whole corpus finish with
    zero decode failures and zero key mismatches.  Any single failure
    fails the build."""
    total = decode_failures = key_mismatches = 0
    for i, (source, wt, scheme) in enumerate(synthesized_suite):
        rep = run_protocol(scheme, source, wt, seed=50000 + i, trials=10)
        total += rep.trials
        decode_failures += rep.decode_failures
        key_mismatches += rep.key_mismatches

    src, wt, hand = published_scheme()
    rep = run_protocol(hand, src, wt, seed=60000, trials=100)
    total += rep.trials
    decode_failures += rep.decode_failures
    key_mismatches += rep.key_mismatches

    explicit = synth_explicit_unit(src, wt)
    rep = run_protocol(explicit, src, wt, seed=60001, trials=100)
    total += rep.trials
    decode_failures += rep.decode_failures
    key_mismatches += rep.key_mismatches

    assert total >= 5000
    assert decode_failures == 0
    assert key_mismatches == 0
    print(
        f"PASS simulation: {total} trials, 0 decode failures, "
        f"0 key mismatches"
    )
