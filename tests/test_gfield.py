"""Field arithmetic on codes: modulus selection, axioms, tables vs fallback."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from treepin import ExtFieldCtx, FieldElem, FMatrix, make_ext_field
from treepin import gfield


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


@pytest.mark.parametrize("q,n", [(2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
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
