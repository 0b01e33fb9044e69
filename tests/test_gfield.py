"""Field arithmetic: modulus selection, axioms, tables vs fallback."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from treepin import ExtFieldCtx, FieldElem, make_ext_field


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
    x = f4(2)
    assert x * x == f4(3)  # x^2 = x + 1


def test_f8_inverse_of_x():
    f8 = make_ext_field(2, 3)
    x = f8(2)
    assert x.inv() == f8(5)  # x^2 + 1
    assert x * x.inv() == f8.one


def test_additive_inverse_everywhere():
    for q, n in [(2, 3), (3, 2), (5, 1)]:
        ctx = make_ext_field(q, n)
        for a in map(ctx, range(ctx.order)):
            assert a + (-a) == ctx.zero


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
        ctx.zero.inv()


def test_cross_context_operations_rejected():
    f4 = make_ext_field(2, 2)
    f8 = make_ext_field(2, 3)
    with pytest.raises(ValueError):
        f4(1) + f8(1)


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
    assert ctx(1) == ctx.one
    assert ctx(0) == ctx.zero
    for a in range(3):
        assert ctx(a).coeffs == (a, 0)
        for b in range(3):
            assert ctx(a) * ctx(b) == ctx((a * b) % 3)
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
        assert ctx(code) ** span == ctx.one


@pytest.mark.parametrize("q,n", [(2, 1), (2, 4), (3, 2), (5, 1), (7, 1)])
def test_field_axioms_randomized(q, n):
    """Associativity, commutativity, distributivity on 10^4 random triples."""
    ctx = make_ext_field(q, n)
    rng = random.Random(1234 + q * 100 + n)
    order = ctx.order
    for _ in range(10_000):
        a = ctx(rng.randrange(order))
        b = ctx(rng.randrange(order))
        c = ctx(rng.randrange(order))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_pow_and_division():
    ctx = make_ext_field(3, 3)
    rng = random.Random(9)
    for _ in range(200):
        a = ctx(rng.randrange(1, ctx.order))
        assert a**0 == ctx.one
        assert a ** (ctx.order - 1) == ctx.one
        assert a ** (-1) == a.inv()
        b = ctx(rng.randrange(1, ctx.order))
        assert (a / b) * b == a


def test_fallback_matches_table_arithmetic():
    """The same field built with and without tables agrees operation by
    operation (fallback exercised via a context above the table limit is
    impractical to cross-check directly, so compare a mid-size field against
    hand-evaluated polynomial products instead)."""
    ctx = make_ext_field(2, 13)  # order 8192: above the add-table limit
    x = ctx(2)
    acc = ctx.one
    for _ in range(13):
        acc = acc * x
    # x^13 reduced by the modulus must equal the modulus tail
    tail = ctx(list(ctx.modulus[:13]))
    assert acc == -tail


@given(st.integers(0, 15), st.integers(0, 15))
def test_hypothesis_add_sub_roundtrip(a, b):
    ctx = make_ext_field(2, 4)
    ea, eb = ctx(a), ctx(b)
    assert (ea + eb) - eb == ea


@given(st.integers(0, 8), st.integers(0, 8))
def test_hypothesis_mul_commutes_f9(a, b):
    ctx = make_ext_field(3, 2)
    assert ctx(a) * ctx(b) == ctx(b) * ctx(a)


@given(st.integers(1, 24))
@settings(max_examples=24)
def test_hypothesis_inverse_roundtrip_f25(a):
    ctx = make_ext_field(5, 2)
    ea = ctx(a)
    assert ea * ea.inv() == ctx.one
    assert ea.inv().inv() == ea


def test_element_hash_and_bool():
    ctx = make_ext_field(2, 2)
    assert not ctx.zero
    assert ctx.one
    assert len({ctx(0), ctx(1), ctx(1)}) == 2
    assert ctx(3).coeffs == (1, 1)


def test_ctx_constructor_validates_modulus():
    with pytest.raises(ValueError):
        ExtFieldCtx(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 is not irreducible
    ok = ExtFieldCtx(2, 2, [1, 1, 1])
    assert ok.key == make_ext_field(2, 2).key


def test_isinstance_surface():
    ctx = make_ext_field(2, 2)
    assert isinstance(ctx(1), FieldElem)
