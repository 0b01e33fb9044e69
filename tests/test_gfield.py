"""Field arithmetic on codes: modulus selection, axioms, tables vs fallback."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from treepin import (
    CommScheme,
    ExtFieldCtx,
    FieldElem,
    FMatrix,
    SchemeError,
    load_instance,
    load_scheme,
    make_ext_field,
    random_instance,
    save_instance,
    save_scheme,
)
from treepin import gfield

from conftest import REFEREE_FIELDS


def pow_code(ctx, a, e):
    """a**e on codes by square-and-multiply with ctx.mul_code."""
    result = 1
    while e:
        if e & 1:
            result = ctx.mul_code(result, a)
        a = ctx.mul_code(a, a)
        e >>= 1
    return result


def test_modulus_examples():
    assert make_ext_field(2, 2).modulus == (1, 1, 1)
    assert make_ext_field(3, 1).modulus == (0, 1)
    assert make_ext_field(2, 3).modulus == (1, 1, 0, 1)


def test_modulus_deterministic():
    a = make_ext_field(5, 3)
    b = make_ext_field(5, 3)
    assert a.modulus == b.modulus
    assert a.key == b.key


def test_f4_square_of_generator():
    f4 = make_ext_field(2, 2)
    assert f4.mul_code(2, 2) == 3  # x^2 = x + 1


def test_f8_inverse_of_x():
    f8 = make_ext_field(2, 3)
    assert f8.inv_code(2) == 5  # x^2 + 1
    assert f8.mul_code(2, f8.inv_code(2)) == 1


def test_additive_inverse_everywhere():
    for q, n in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_ext_field(q, n)
        for a in range(ctx.order):
            assert ctx.add_code(a, ctx.neg_code(a)) == 0


def test_non_prime_q_rejected():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            make_ext_field(bad, 1)


def test_bad_degree_rejected():
    with pytest.raises(ValueError):
        make_ext_field(2, 0)


def test_inv_of_zero_rejected():
    ctx = make_ext_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv_code(0)


def test_cross_context_operations_rejected():
    """Elements and matrices of two fields never meet: a matrix refuses
    another field's entry, and hstack and @ refuse another field's matrix."""
    f4 = make_ext_field(2, 2)
    f8 = make_ext_field(2, 3)
    with pytest.raises(ValueError, match="different field"):
        FMatrix(f4, [[f4(1), f8(1)]])
    a, b = FMatrix.identity(f4, 2), FMatrix.identity(f8, 2)
    with pytest.raises(ValueError, match="field mismatch"):
        a.hstack(b)
    with pytest.raises(ValueError, match="field mismatch"):
        a @ b


def test_code_out_of_range_rejected():
    f4 = make_ext_field(2, 2)
    with pytest.raises(ValueError):
        f4(4)
    with pytest.raises(ValueError):
        f4([1, 1, 1])


def test_embed_base():
    """Base-field values are the codes below q (what lift relies on): they
    are the constant polynomials and multiply as in F_q."""
    ctx = make_ext_field(3, 2)
    assert ctx(1).code == 1
    assert ctx(0) == ctx.zero
    for a in range(3):
        assert ctx(a).coeffs == (a, 0)
        for b in range(3):
            assert ctx.mul_code(a, b) == (a * b) % 3
    assert ctx(3).coeffs == (0, 1)


@pytest.mark.parametrize(
    "q,n",
    [(2, 1), (2, 2), (2, 4), (2, 8), (2, 12), (3, 2), (3, 4), (3, 7),
     (5, 2), (5, 4), (7, 2), (13, 1), (2, 13)],
)
def test_multiplicative_group_order(q, n):
    """Every nonzero element has order dividing q**n - 1 (exhaustive)."""
    ctx = make_ext_field(q, n)
    span = ctx.order - 1
    for code in range(1, ctx.order):
        assert pow_code(ctx, code, span) == 1


@pytest.mark.parametrize("q,n", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 1)])
def test_field_axioms_randomized(q, n):
    """Associativity, commutativity, distributivity on 10^4 random triples."""
    ctx = make_ext_field(q, n)
    rng = random.Random(1234 + q * 100 + n)
    order = ctx.order
    add, mul = ctx.add_code, ctx.mul_code
    for _ in range(10_000):
        a = rng.randrange(order)
        b = rng.randrange(order)
        c = rng.randrange(order)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_pow_and_division():
    ctx = make_ext_field(3, 3)
    rng = random.Random(9)
    for _ in range(200):
        a = rng.randrange(1, ctx.order)
        assert pow_code(ctx, a, 0) == 1
        assert pow_code(ctx, a, ctx.order - 1) == 1
        assert pow_code(ctx, a, ctx.order - 2) == ctx.inv_code(a)
        b = rng.randrange(1, ctx.order)
        assert ctx.mul_code(ctx.mul_code(a, ctx.inv_code(b)), b) == a


def test_fallback_matches_table_arithmetic():
    """GF(2^13) is above both table limits, so its context runs the
    table-less path: x^13 reduced by the modulus is minus its tail."""
    ctx = make_ext_field(2, 13)
    assert pow_code(ctx, 2, 13) == ctx.neg_code(ctx.encode(ctx.modulus[:13]))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (3, 5), (7, 3)])
def test_table_less_ops_match_tables(q, n, monkeypatch):
    """The same field built without tables agrees with the cached table
    context on every code operation and every pair of codes."""
    tables = make_ext_field(q, n)
    monkeypatch.setattr(gfield, "_TABLE_LIMIT", 0)
    monkeypatch.setattr(gfield, "_ADD_TABLE_LIMIT", 0)
    bare = ExtFieldCtx(q, n, tables.modulus)
    codes = range(tables.order)
    for a in codes:
        assert bare.neg_code(a) == tables.neg_code(a)
        if a:
            assert bare.inv_code(a) == tables.inv_code(a)
        for b in codes:
            assert bare.add_code(a, b) == tables.add_code(a, b)
            assert bare.sub_code(a, b) == tables.sub_code(a, b)
            assert bare.mul_code(a, b) == tables.mul_code(a, b)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 3), (7, 2)])
def test_other_modulus_shares_the_addition_tables(q, n):
    """Addition does not depend on the modulus, so a context built with
    another irreducible reads the cached tables of its (q, n), builds
    none, and still adds, subtracts and negates digitwise on every pair
    of codes, while its products follow its own modulus."""
    canonical = make_ext_field(q, n)
    monic = [canonical.decode(tail) + (1,) for tail in range(q**n)]
    others = [f for f in monic if f != canonical.modulus and gfield._poly_is_irreducible(f, q)]
    before = gfield._add_tables.cache_info()
    other = ExtFieldCtx(q, n, others[0])
    after = gfield._add_tables.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert any(
        other.mul_code(a, b) != canonical.mul_code(a, b)
        for a in range(other.order)
        for b in range(other.order)
    )
    for a in range(other.order):
        da = other.decode(a)
        assert other.neg_code(a) == other.encode([-x % q for x in da])
        for b in range(other.order):
            db = other.decode(b)
            assert other.add_code(a, b) == other.encode([(x + y) % q for x, y in zip(da, db)])
            assert other.sub_code(a, b) == other.encode([(x - y) % q for x, y in zip(da, db)])


@given(st.integers(0, 15), st.integers(0, 15))
def test_hypothesis_add_sub_roundtrip(a, b):
    ctx = make_ext_field(2, 4)
    assert ctx.sub_code(ctx.add_code(a, b), b) == a


@given(st.integers(0, 8), st.integers(0, 8))
def test_hypothesis_mul_commutes_f9(a, b):
    ctx = make_ext_field(3, 2)
    assert ctx.mul_code(a, b) == ctx.mul_code(b, a)


@given(st.integers(1, 24))
@settings(max_examples=24)
def test_hypothesis_inverse_roundtrip_f25(a):
    ctx = make_ext_field(5, 2)
    assert ctx.mul_code(a, ctx.inv_code(a)) == 1
    assert ctx.inv_code(ctx.inv_code(a)) == a


def test_element_hash_and_bool():
    ctx = make_ext_field(2, 2)
    assert not ctx.zero
    assert ctx(1)
    assert len({ctx(0), ctx(1), ctx(1)}) == 2
    assert ctx(3).coeffs == (1, 1)


def test_equal_elements_hash_equal():
    """An element equals the int of its code, so it hashes as that int;
    elements of two fields with one code stay distinct."""
    f4 = make_ext_field(2, 2)
    f8 = make_ext_field(2, 3)
    f9 = make_ext_field(3, 2)
    assert f9(1) in {1}
    assert len({f9(1), 1}) == 1
    assert len({f4(1), f8(1)}) == 2


def test_ctx_constructor_validates_modulus():
    with pytest.raises(ValueError):
        ExtFieldCtx(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 is not irreducible
    ok = ExtFieldCtx(2, 2, [1, 1, 1])
    assert ok.key == make_ext_field(2, 2).key


def test_isinstance_surface():
    ctx = make_ext_field(2, 2)
    assert isinstance(ctx(1), FieldElem)


# ---------------------------------------------------------------------------
# The one entry-token table of instance and scheme files


def coeff_token(code, q, n):
    """Referee: an entry as its file writes it, its n coefficients (the
    base-q digits of its code), comma-joined, lowest degree first."""
    digits = []
    for _ in range(n):
        code, digit = divmod(code, q)
        digits.append(str(digit))
    return ",".join(digits)


def matrix_scheme(m):
    """A scheme (not a valid design) whose only block is fmat = m."""
    return CommScheme(ext_ctx=m.ctx, s=m.rows, comm_matrix=m, owners=(0,) * m.cols)


@pytest.mark.parametrize("q, n", REFEREE_FIELDS + [(4099, 1)])
def test_file_formats_share_one_entry_spelling(q, n):
    """Both file formats write an entry as its coefficients, comma-joined,
    lowest degree first, through gfield's one table where the field has
    one and entry by entry where it has none (q = 4099 at n = 1, GF(2^13),
    q = 2^32 + 15); both read it back and re-save the same text."""
    ctx = make_ext_field(q, n)
    assert bool(gfield._entry_tables(ctx)[0]) == (ctx.order <= gfield._TABLE_LIMIT)
    rng = random.Random(17 * q + n)
    rows = [[rng.randrange(ctx.order) for _ in range(6)] for _ in range(5)]
    rows[0][:2] = [0, ctx.order - 1]
    m = FMatrix.from_rows(ctx, rows, cols=6)
    text = save_scheme(matrix_scheme(m))
    # header, modulus, root, s, owners and the fmat tag come first
    assert text.splitlines()[6:] == [" ".join(coeff_token(c, q, n) for c in row) for row in rows]
    back = load_scheme(text)
    assert back.comm_matrix == m
    assert save_scheme(back) == text
    if n == 1:
        source, wt = random_instance(q + 1, 8, 3, q, 4)
        text = save_instance(source, wt)
        want = [" ".join(coeff_token(c, q, 1) for c in row) for row in wt.matrix.to_code_rows()]
        assert text.splitlines()[-source.base_dim :] == want
        assert load_instance(text) == (source, wt)
        assert save_instance(source, wt) == save_instance(*load_instance(text))


def test_a_row_that_misses_the_table_is_parsed_token_by_token():
    """In a field with a table, a row holding another spelling of an entry
    loads through the per-token parse, and the first bad token there, even
    after a table hit or another spelling, raises that parse's message."""
    ctx = make_ext_field(3, 2)
    m = FMatrix.from_rows(ctx, [[1, 5, 0]], cols=3)
    text = save_scheme(matrix_scheme(m))
    row = "1,0 2,1 0,0"
    assert text.endswith("\n" + row + "\n")
    for spelling in ("01,0 2,1 0,0", "1,0 2,1 +0,00", "1,0 0002,1 0,0"):
        assert load_scheme(text.replace(row, spelling)).comm_matrix == m
    for bad, message in [
        ("1,0 2,x 0,0", "bad element '2,x'"),
        ("01,0 2,1 3,0", "coefficient 3 out of range for F_3"),
        ("1,0 2 0,0", "element '2' needs 2 coefficients"),
        ("1,0 01,0 -1,0", "coefficient -1 out of range for F_3"),
        ("1,0 2,9 x,0", "coefficient 9 out of range for F_3"),  # the first one
    ]:
        with pytest.raises(SchemeError) as exc:
            load_scheme(text.replace(row, bad))
        assert str(exc.value) == message


def test_a_prime_row_above_the_table_limit_reads_as_integers():
    """q = 4099 has no entry table: a row of in-range integers loads as
    one integer conversion, and any other row is parsed token by token, so
    the first bad token, even after good ones, raises that parse's
    message."""
    ctx = make_ext_field(4099, 1)
    assert not gfield._entry_tables(ctx)[0]
    m = FMatrix.from_rows(ctx, [[1, 4098, 0]], cols=3)
    text = save_scheme(matrix_scheme(m))
    row = "1 4098 0"
    assert text.endswith("\n" + row + "\n")
    for spelling in ("01 4098 0", "1 +4098 00"):
        assert load_scheme(text.replace(row, spelling)).comm_matrix == m
    for bad, message in [
        ("1 x 4099", "bad element 'x'"),
        ("1 1,0 -1", "element '1,0' needs 1 coefficients"),
        ("1 -1 0", "coefficient -1 out of range for F_4099"),
        ("0 4099 1", "coefficient 4099 out of range for F_4099"),
        ("4099 -1 0", "coefficient 4099 out of range for F_4099"),  # the first one
    ]:
        with pytest.raises(SchemeError) as exc:
            load_scheme(text.replace(row, bad))
        assert str(exc.value) == message
