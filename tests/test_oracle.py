"""Brute force information oracles and the property checks built on them."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from treepin import FMatrix, make_ext_field, oracle
from treepin.falinalg import rank
from treepin.oracle import (
    MCF_BUDGET,
    BudgetError,
    _all_vectors,
    _base_code_matrix,
    _distinct_counts,
    _image_labels,
    cond_mutual_info_exhaustive,
    entropy_exhaustive,
    mcf_exhaustive,
)

from conftest import _det_mod, _rank_mod

F2 = make_ext_field(2, 1)
F3 = make_ext_field(3, 1)


def random_matrix(ctx, rows, cols, rng):
    return FMatrix.from_rows(
        ctx,
        [[rng.randrange(ctx.order) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


# ---------------------------------------------------------------------------
# Independent referee: the integer route.  The oracles enumerate and map in
# float64; this enumerates with int64 // and %, maps with (vectors @ m) % q
# and packs rows into int64 base-q integers (row-wise np.unique past 2**62),
# so it shares none of the package's arithmetic.


def _ref_vectors(q: int, dim: int) -> np.ndarray:
    """(q**dim, dim) int64 array of all base vectors, coordinate j = digit j."""
    idx = np.arange(q**dim, dtype=np.int64)
    powers = q ** np.arange(dim, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % q


def _ref_code_matrix(m: FMatrix) -> np.ndarray:
    return np.array(m.to_code_rows(), dtype=np.int64).reshape(m.rows, m.cols)


def _ref_image_labels(vectors, m, q):
    """(labels, counts, values) of the image rows of vectors @ m, as the
    package's _image_labels returns them."""
    n, cols = vectors.shape[0], m.shape[1]
    img = (vectors @ m) % q
    if q**cols <= 2**62:
        powers = q ** np.arange(cols, dtype=np.int64)
        uniq, inverse, counts = np.unique(
            img @ powers, return_inverse=True, return_counts=True
        )
        values = (uniq[:, None] // powers[None, :]) % q
    else:
        values, inverse, counts = np.unique(
            img, axis=0, return_inverse=True, return_counts=True
        )
    return inverse.reshape(n), counts, values.reshape(len(counts), cols)


# ---------------------------------------------------------------------------
# Property oracles: exhaustive checks of identities the package relies on

_DETFORM_BUDGET = 2**16


def detform_property_check(
    q: int, s: int, m: int, trials: int, seed: int
) -> bool:
    """Exhaustively test the determinant dichotomy behind randomized
    certificate sampling: for the s x s matrix whose rows are x_i @ A
    (x_i free row vectors of length m, A a fixed m x s coefficient matrix),
    the determinant vanishes at every point iff the columns of A are
    linearly dependent.

    The determinant is multilinear in each x_i, so per-variable degree is
    1 < q and vanishing on all of (F_q**m)**s decides the polynomial
    identity.  Returns True iff no drawn A violates the dichotomy.
    """
    points = q ** (s * m)
    if points > _DETFORM_BUDGET:
        raise BudgetError(
            f"determinant check needs {points} evaluation points, "
            f"budget is {_DETFORM_BUDGET}"
        )
    rng = random.Random(seed)
    grid = _ref_vectors(q, s * m).reshape(points, s, m)
    for _ in range(trials):
        a = [[rng.randrange(q) for _ in range(s)] for _ in range(m)]
        an = np.array(a, dtype=np.int64)
        rows = (grid @ an) % q  # (points, s, s)
        vanishes = True
        for p in range(points):
            if _det_mod(rows[p].tolist(), q):
                vanishes = False
                break
        dependent = _rank_mod(a, q) < s
        if vanishes != dependent:
            return False
    return True


def split_source_property_check(
    q: int, dims: tuple[int, int], trials: int, seed: int
) -> bool:
    """Random split-source sanity check: with observations X, Y drawn from
    one coordinate block and Z from a disjoint block, adjoining Z to one or
    both sides changes the common function in the predictable way only:

      components(X ; (Y,Z)) == components(X ; Y)
      components((X,Z) ; (Y,Z)) == components(X ; Y) * |image(Z)|

    Counts are compared as exact integers.  Returns True iff every drawn
    triple satisfies both identities.
    """
    d_shared, d_z = dims
    d = d_shared + d_z
    total = q**d
    if total > MCF_BUDGET:
        raise BudgetError(
            f"split-source check needs {total} vectors, budget is {MCF_BUDGET}"
        )
    ctx = make_ext_field(q, 1)
    rng = random.Random(seed)
    vectors = _ref_vectors(q, d)

    def random_block(row_lo: int, row_hi: int, cols: int) -> FMatrix:
        grid = [
            [
                rng.randrange(q) if row_lo <= i < row_hi else 0
                for _ in range(cols)
            ]
            for i in range(d)
        ]
        return FMatrix.from_rows(ctx, grid, cols=cols)

    for _ in range(trials):
        mx = random_block(0, d_shared, rng.randint(1, max(1, d_shared)))
        my = random_block(0, d_shared, rng.randint(1, max(1, d_shared)))
        mz = random_block(d_shared, d, rng.randint(1, max(1, d_z)))

        base = mcf_exhaustive(mx, my, q)
        with_z_right = mcf_exhaustive(mx, my.hstack(mz), q)
        with_z_both = mcf_exhaustive(mx.hstack(mz), my.hstack(mz), q)
        _, z_counts, _ = _ref_image_labels(vectors, _ref_code_matrix(mz), q)
        z_image = len(z_counts)

        if with_z_right.n_components != base.n_components:
            return False
        if with_z_both.n_components != base.n_components * z_image:
            return False
    return True


def test_all_vectors_is_shared_and_read_only():
    vectors = _all_vectors(3, 2)
    assert vectors.dtype == np.float64
    assert vectors.tolist() == [[a % 3, a // 3] for a in range(9)]
    assert not vectors.flags.writeable
    with pytest.raises(ValueError):
        vectors[0, 0] = 1
    # one check alternates between two spaces; both stay cached
    other = _all_vectors(2, 3)
    assert other.shape == (8, 3)
    assert _all_vectors(3, 2) is vectors
    assert _all_vectors(2, 3) is other
    for q, dim in ((2, 0), (2, 5), (3, 4), (5, 3), (7, 2)):
        assert np.array_equal(_all_vectors(q, dim), _ref_vectors(q, dim))


def _assert_same_labels(got, want, packed_in_both):
    """Same image for every vector, same fiber per value; when both routes
    packed (ascending base-q order) the arrays must be identical."""
    (labels, counts, values), (ref_labels, ref_counts, ref_values) = got, want
    assert labels.dtype == counts.dtype == values.dtype == np.int64
    assert np.array_equal(values[labels], ref_values[ref_labels])
    assert sorted(zip(map(tuple, values.tolist()), counts.tolist())) == sorted(
        zip(map(tuple, ref_values.tolist()), ref_counts.tolist())
    )
    if packed_in_both:
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(values, ref_values)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_image_labels_matches_referee(q):
    ctx = make_ext_field(q, 1)
    rng = random.Random(200 + q)
    max_rows = {2: 8, 3: 5, 5: 4, 7: 3}[q]
    shapes = [(0, 0), (0, 3), (max_rows, 0), (2, 1)]
    shapes += [(rng.randint(0, max_rows), rng.randint(0, 5)) for _ in range(40)]
    for d, cols in shapes:
        m = random_matrix(ctx, d, cols, rng)
        got = _image_labels(_all_vectors(q, d), _base_code_matrix(m), q)
        want = _ref_image_labels(_ref_vectors(q, d), _ref_code_matrix(m), q)
        _assert_same_labels(got, want, packed_in_both=True)


@pytest.mark.parametrize("q, cols", [(2, 53), (2, 54), (3, 33), (3, 34)])
def test_image_labels_at_the_packing_limit(q, cols):
    """Rows pack into float64 while q**cols <= 2**53 and fall back to
    row-wise uniqueness beyond; both sides of the limit match the referee.
    The first map has image rows that differ only in digit 0 and are near
    q**cols, which float64 packing past the limit would merge."""
    assert (q**cols <= 2**53) == (cols in (53, 33))
    ctx = make_ext_field(q, 1)
    rng = random.Random(cols)
    d = {2: 6, 3: 4}[q]
    near_top = [[1] + [0] * (cols - 1), [0, 0] + [q - 1] * (cols - 2)]
    maps = [FMatrix.from_rows(ctx, near_top + [[0] * cols] * (d - 2), cols=cols)]
    maps += [random_matrix(ctx, d, cols, rng) for _ in range(2)]
    for m in maps:
        got = _image_labels(_all_vectors(q, d), _base_code_matrix(m), q)
        want = _ref_image_labels(_ref_vectors(q, d), _ref_code_matrix(m), q)
        _assert_same_labels(got, want, packed_in_both=q**cols <= 2**53)


def test_image_reduction_is_exact():
    """x - q*floor(x/q) gives the residue of every integer below 2**53.
    Multiplying by a rounded 1/q would not: 103 * (1/103) < 1."""
    q = 103
    m = np.array([[q - 1, 1, 0], [q - 1, 52, q - 2]])
    got = oracle._image(_all_vectors(q, 2), m.astype(np.float64), q)
    assert np.array_equal(got, (_ref_vectors(q, 2) @ m) % q)
    # the largest prime whose one-row images stay within the guard
    q = 94906249
    assert (q - 1) ** 2 < 2**53 <= (q + 17) ** 2
    rng = random.Random(5)
    xs = [q - 1 - k for k in range(50)] + [rng.randrange(q) for _ in range(200)]
    m = [q - 1, q - 2, (q + 1) // 2, 1]
    got = oracle._image(np.array(xs, dtype=np.float64)[:, None], np.array([m], dtype=np.float64), q)
    assert got.tolist() == [[x * c % q for c in m] for x in xs]


def test_exactness_guard_refuses_before_enumerating(monkeypatch):
    """A prime p with (p-1)**2 >= 2**53: one row already passes the exact
    float64 range, so every oracle refuses it even within its budget, and
    before it builds the enumeration."""
    p = 94906297
    assert (p - 1) ** 2 >= 2**53
    ctx = make_ext_field(p, 1)
    one = FMatrix.from_rows(ctx, [[p - 1]], cols=1)

    def no_enumeration(q, dim):
        raise AssertionError("enumeration built past the exactness guard")

    monkeypatch.setattr(oracle, "_all_vectors", no_enumeration)
    for call in (
        lambda: entropy_exhaustive(one, p, budget=2**27),
        lambda: mcf_exhaustive(one, one, p, budget=2**27),
        lambda: cond_mutual_info_exhaustive(one, one, one, p, budget=2**27),
    ):
        with pytest.raises(BudgetError, match="2\\*\\*53"):
            call()
    # the bound itself: (q-1)**2 * rows = 2**53 is refused, 2**52 is not
    oracle._check_exact(2**26 + 1, 1)
    with pytest.raises(BudgetError):
        oracle._check_exact(2**26 + 1, 2)


def test_refusals_are_pinned_in_order():
    """Every oracle refuses in one order, with one message each: maps of
    different base dimensions, a map over another field, an enumeration
    over budget, then an image past the exact float64 range.  Each case
    also breaks every later check, so a check run out of order would name
    the wrong fault.  The entropy oracle reads one map, so it has no
    base-dimension case."""
    p = 94906297  # (p-1)**2 >= 2**53: one row is already past exactness
    fp = make_ext_field(p, 1)
    oracles = {
        "entropy enumeration": lambda maps, q, budget: entropy_exhaustive(maps[0], q, budget),
        "mcf enumeration": lambda maps, q, budget: mcf_exhaustive(*maps[:2], q, budget),
        "enumeration": lambda maps, q, budget: cond_mutual_info_exhaustive(*maps, q, budget),
    }
    rows = (FMatrix.zeros(F3, 20, 1), FMatrix.zeros(F3, 21, 1), FMatrix.zeros(F3, 20, 1))
    field = (FMatrix.zeros(F3, 20, 1),) * 3
    budget = (FMatrix.zeros(fp, 2, 1),) * 3
    exact = (FMatrix.zeros(fp, 1, 1),) * 3
    for what, call in oracles.items():
        cases = [
            (rows, 2, 8, ValueError, "observation maps must share the base dimension"),
            (field, 2, 8, ValueError, "field mismatch"),
            (budget, p, 8, BudgetError, f"{what} needs {p**2} vectors, budget is 8"),
            (exact, p, 2**27, BudgetError, f"a 1-row image over GF({p}) has entries up to "
             f"{(p - 1) ** 2}, past the exact float64 range 2**53"),
        ]
        for maps, q, cap, kind, message in cases[what == "entropy enumeration" :]:
            with pytest.raises(kind) as err:
                call(maps, q, cap)
            assert str(err.value) == message


def test_entropy_examples():
    assert entropy_exhaustive(FMatrix.zeros(F2, 3, 2), 2) == 0.0
    assert entropy_exhaustive(FMatrix.identity(F2, 3), 2) == 3.0
    one = FMatrix.from_cols(F2, [[1, 1, 1]], rows=3)
    assert entropy_exhaustive(one, 2) == 1.0
    pair = FMatrix.from_cols(F3, [[1, 0], [1, 0]], rows=2)
    assert entropy_exhaustive(pair, 3) == math.log2(3)


def test_entropy_equals_rank_formula():
    """Exhaustive entropy of a linear image is exactly rank * log2(q)."""
    rng = random.Random(10)
    for ctx, q in ((F2, 2), (F3, 3)):
        for _ in range(40):
            m = random_matrix(ctx, rng.randint(1, 5), rng.randint(1, 4), rng)
            assert entropy_exhaustive(m, q) == rank(m) * math.log2(q)


def test_budget_errors():
    big = FMatrix.zeros(F2, 20, 1)
    with pytest.raises(BudgetError):
        entropy_exhaustive(big, 2)
    with pytest.raises(BudgetError):
        mcf_exhaustive(big, big, 2)
    with pytest.raises(BudgetError):
        cond_mutual_info_exhaustive(big, big, big, 2)
    with pytest.raises(BudgetError):
        detform_property_check(2, 3, 6, trials=1, seed=0)
    with pytest.raises(BudgetError):
        split_source_property_check(2, (10, 5), trials=1, seed=0)
    # tightened explicit budgets trip too
    with pytest.raises(BudgetError):
        entropy_exhaustive(FMatrix.zeros(F2, 4, 1), 2, budget=8)


def test_mcf_exhaustive_cases():
    m = FMatrix.identity(F2, 3)
    same = mcf_exhaustive(m, m, 2)
    assert same.n_components == 8
    assert same.bits == 3.0
    a = FMatrix.basis_columns(F2, 4, [0, 1])
    b = FMatrix.basis_columns(F2, 4, [2, 3])
    indep = mcf_exhaustive(a, b, 2)
    assert indep.n_components == 1
    assert indep.bits == 0.0
    # one shared coordinate
    c = FMatrix.basis_columns(F2, 4, [0, 2])
    shared = mcf_exhaustive(a, c, 2)
    assert shared.n_components == 2
    assert shared.bits == 1.0


def test_mcf_labels_cover_all_observed_values():
    rng = random.Random(0)
    for _ in range(10):
        a = random_matrix(F2, 4, rng.randint(1, 3), rng)
        b = random_matrix(F2, 4, rng.randint(1, 3), rng)
        res = mcf_exhaustive(a, b, 2)
        assert len(res.labels_left) == 2 ** rank(a)
        assert len(res.labels_right) == 2 ** rank(b)
        assert set(res.labels_left.values()) == set(range(res.n_components))
        assert set(res.labels_right.values()) == set(range(res.n_components))


def test_mcf_rejects_mismatched_rows():
    with pytest.raises(ValueError):
        mcf_exhaustive(FMatrix.zeros(F2, 3, 1), FMatrix.zeros(F2, 4, 1), 2)
    with pytest.raises(ValueError):
        mcf_exhaustive(FMatrix.zeros(F2, 3, 1), FMatrix.zeros(F3, 3, 1), 2)


def test_cmi_identities():
    rng = random.Random(14)
    for _ in range(15):
        a = random_matrix(F2, 4, 2, rng)
        c = random_matrix(F2, 4, 1, rng)
        # I(A;A|C) == H(A|C) == rank([A|C]) - rank(C) bits
        got = cond_mutual_info_exhaustive(a, a, c, 2)
        expect = (rank(a.hstack(c)) - rank(c)) * 1.0
        assert got == expect
        # conditioning on everything kills the information
        full = FMatrix.identity(F2, 4)
        assert cond_mutual_info_exhaustive(a, a, full, 2) == 0.0


def test_cmi_matches_rank_formula():
    """I(XA ; XB | XC) = (r(AC) + r(BC) - r(ABC) - r(C)) log2 q."""
    rng = random.Random(15)
    for ctx, q in ((F2, 2), (F3, 3)):
        for _ in range(25):
            d = rng.randint(2, 4)
            a = random_matrix(ctx, d, rng.randint(1, 2), rng)
            b = random_matrix(ctx, d, rng.randint(1, 2), rng)
            c = random_matrix(ctx, d, rng.randint(1, 2), rng)
            got = cond_mutual_info_exhaustive(a, b, c, q)
            expect = (
                rank(a.hstack(c)) + rank(b.hstack(c))
                - rank(a.hstack(b).hstack(c)) - rank(c)
            ) * math.log2(q)
            assert got == pytest.approx(expect, abs=1e-12)
            assert got >= 0.0


def test_cmi_independent_blocks():
    a = FMatrix.basis_columns(F2, 4, [0])
    b = FMatrix.basis_columns(F2, 4, [1])
    c = FMatrix.basis_columns(F2, 4, [2])
    assert cond_mutual_info_exhaustive(a, b, c, 2) == 0.0
    assert cond_mutual_info_exhaustive(a, a, c, 2) == 1.0


def test_detform_explicit_cases():
    # trials draw random coefficient matrices; across 1000 draws both sides
    # of the dichotomy appear and must always agree
    assert detform_property_check(2, 2, 3, trials=1000, seed=7)
    assert detform_property_check(3, 2, 2, trials=300, seed=8)
    assert detform_property_check(2, 1, 1, trials=50, seed=9)


def test_split_source_identities():
    assert split_source_property_check(2, (4, 2), trials=200, seed=3)
    assert split_source_property_check(3, (2, 1), trials=50, seed=4)


def test_entropy_rejects_extension_fields():
    f4 = make_ext_field(2, 2)
    with pytest.raises(ValueError):
        entropy_exhaustive(FMatrix.identity(f4, 2), 2)


# ---------------------------------------------------------------------------
# Referee: cond_mutual_info_exhaustive takes the four joint images as column
# slices of one float64 enumeration image, counted with one sort.  The route
# below maps every base vector through each of the four stacked maps
# separately, on the integer referee, and must give the same float bit for
# bit.


def _cmi_four_maps(ma, mb, mc, q):
    vectors = _ref_vectors(q, ma.rows)

    def image_exponent(*mats):
        stacked = mats[0]
        for m in mats[1:]:
            stacked = stacked.hstack(m)
        _, counts, _ = _ref_image_labels(vectors, _ref_code_matrix(stacked), q)
        n_values = len(counts)
        e = round(math.log(n_values, q))
        assert q**e == n_values
        return e

    ea = image_exponent(ma, mc)
    eb = image_exponent(mb, mc)
    eab = image_exponent(ma, mb, mc)
    ec = image_exponent(mc)
    return (ea + eb - eab - ec) * math.log2(q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_cmi_equals_four_map_route(q):
    ctx = make_ext_field(q, 1)
    rng = random.Random(100 + q)
    max_rows = {2: 7, 3: 5, 5: 4, 7: 3}[q]
    for trial in range(60):
        d = rng.randint(0, max_rows)
        # every third trial empties one of the three maps
        widths = [rng.randint(0, 4) for _ in range(3)]
        if trial % 3 == 0:
            widths[trial // 3 % 3] = 0
        ma, mb, mc = (random_matrix(ctx, d, w, rng) for w in widths)
        got = cond_mutual_info_exhaustive(ma, mb, mc, q)
        want = _cmi_four_maps(ma, mb, mc, q)
        assert got.hex() == want.hex(), (q, d, widths)
    # all three empty, and maps of a 0-dimensional base vector
    empty = FMatrix.zeros(ctx, 3, 0)
    got = cond_mutual_info_exhaustive(empty, empty, empty, q)
    assert got.hex() == _cmi_four_maps(empty, empty, empty, q).hex()
    flat = [FMatrix.zeros(ctx, 0, w) for w in (2, 0, 1)]
    assert cond_mutual_info_exhaustive(*flat, q).hex() == _cmi_four_maps(*flat, q).hex()


@pytest.mark.parametrize(
    "q, widths",
    [
        (2, (30, 31, 4)),
        (3, (20, 0, 21)),
        (5, (0, 14, 14)),
        (2, (26, 27, 1)),
        (3, (16, 17, 1)),
    ],
)
def test_cmi_equals_four_map_route_past_packing_limit(q, widths):
    """Joint images with q**cols > 2**53 cannot be packed into float64 and
    take the row-wise np.unique fallback; the last two cases put [ma|mc]
    just below the limit and the whole stack just above it."""
    ctx = make_ext_field(q, 1)
    rng = random.Random(7 * q + sum(widths))
    d = {2: 8, 3: 5, 5: 4}[q]
    assert q ** sum(widths) > 2**53
    for _ in range(5):
        ma, mb, mc = (random_matrix(ctx, d, w, rng) for w in widths)
        got = cond_mutual_info_exhaustive(ma, mb, mc, q)
        assert got.hex() == _cmi_four_maps(ma, mb, mc, q).hex()
    # both counting routes count distinct rows of each slice
    cols = sum(widths)
    digits = np.array([[rng.randrange(q) for _ in range(cols)] for _ in range(20)])
    img = digits[[rng.randrange(20) for _ in range(60)]]
    slices = ((0, cols), (0, widths[0] + widths[1]), (widths[0], cols), (1, 1))
    want = [len(set(map(tuple, img[:, lo:hi].tolist()))) for lo, hi in slices]
    assert _distinct_counts(img.astype(np.float64), q, slices) == want
