"""Exact arithmetic for prime fields and their extensions.

A field context couples a prime q with an extension degree n and a monic
irreducible modulus of degree n over F_q, realising GF(q**n) as the residues
of F_q[x] modulo that polynomial.  Every element is stored as an integer
code in [0, q**n): the base-q digits of the code are the polynomial
coefficients, lowest degree first, so base-field values embed as the codes
below q.

All arithmetic is the context's code operations (`ctx.add_code`,
`mul_code`, ...) on codes; `FieldElem`, a code tagged with its context, is
a plain value for the API edge.  The one exception is a prime field (n =
1): there a code is the residue 0..q-1 itself and the code operations are
arithmetic mod q, so `falinalg`'s elimination, back substitution and
product compute `(x - f*y) % q` (xor over GF(2)) on the codes directly,
which gives the same codes.  Small contexts precompute discrete log/exp
tables once, which turns multiplication and inversion into table lookups.
Addition is digitwise addition mod q of the codes, whatever the modulus:
xor in characteristic 2, and in odd characteristic, up to order
_ADD_TABLE_LIMIT, a full addition table and a negation table, built one
digit at a time and shared by every context of that (q, n), whichever its
modulus (`_add_tables`).  Larger contexts fall back to direct polynomial
arithmetic.  Which path is active never changes the semantics.  Contexts
and elements are immutable and hashable, and each field's context is built
once: `make_ext_field` and a scheme file's modulus both go through one
cache, `_field_context`.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import chain
from typing import Sequence

__all__ = [
    "ExtFieldCtx",
    "FieldElem",
    "make_ext_field",
]

# Orders up to which the log/exp (and negation) tables are built.
_TABLE_LIMIT = 4096
# Orders up to which a full pairwise addition table is built (odd q only;
# characteristic 2 adds codes with a single xor and needs no table).
_ADD_TABLE_LIMIT = 512


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); larger q are rejected as not prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; False for every p >= _MR_LIMIT."""
    if p < 2 or p >= _MR_LIMIT:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_field(q: int, n: int) -> None:
    """Raise ValueError unless q is prime and n >= 1."""
    if not _is_prime(q):
        raise ValueError(f"base field size must be prime, got {q}")
    if n < 1:
        raise ValueError(f"extension degree must be >= 1, got {n}")


def _digits(code: int, q: int, n: int) -> tuple[int, ...]:
    """The n base-q digits of code, lowest first."""
    out = []
    for _ in range(n):
        code, r = divmod(code, q)
        out.append(r)
    return tuple(out)


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_q.  Polynomials are tuples of coefficients,
# lowest degree first, normalised so the last entry is nonzero (zero = ()).


def _pnorm(p: Sequence[int]) -> tuple[int, ...]:
    i = len(p)
    while i and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _psub(a: Sequence[int], b: Sequence[int], q: int) -> tuple[int, ...]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % q
    return _pnorm(out)


def _pmul(a: Sequence[int], b: Sequence[int], q: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % q
    return _pnorm(out)


def _pdivmod(a, b, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    b = _pnorm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(_pnorm(a))
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, q)
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        f = (rem[-1] * lead_inv) % q
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - f * c) % q
        while rem and rem[-1] == 0:
            rem.pop()
    return _pnorm(quo), _pnorm(rem)


def _pmod(a, b, q: int) -> tuple[int, ...]:
    return _pdivmod(a, b, q)[1]


def _pgcd(a, b, q: int) -> tuple[int, ...]:
    a, b = _pnorm(a), _pnorm(b)
    while b:
        a, b = b, _pmod(a, b, q)
    if a:
        lead_inv = pow(a[-1], -1, q)
        a = tuple((c * lead_inv) % q for c in a)
    return a


def _ppowmod(base, e: int, mod, q: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    acc = _pmod(base, mod, q)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, q), mod, q)
        acc = _pmod(_pmul(acc, acc, q), mod, q)
        e >>= 1
    return result


def _pinvmod(a, mod, q: int) -> tuple[int, ...]:
    # Extended Euclid in F_q[x]; requires gcd(a, mod) = 1.
    r0, r1 = _pnorm(mod), _pmod(a, mod, q)
    t0, t1 = (), (1,)
    while r1:
        quo, rem = _pdivmod(r0, r1, q)
        r0, r1 = r1, rem
        t0, t1 = t1, _psub(t0, _pmul(quo, t1, q), q)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    lead_inv = pow(r0[0], -1, q)
    return _pmod(tuple((c * lead_inv) % q for c in t0), mod, q)


def _poly_is_irreducible(f: Sequence[int], q: int) -> bool:
    """Rabin's test for a monic polynomial over F_q."""
    f = _pnorm(f)
    n = len(f) - 1
    if n < 1:
        return False
    x = (0, 1)
    if _ppowmod(x, q**n, f, q) != _pmod(x, f, q):
        return False
    for p in _prime_factors(n):
        h = _psub(_ppowmod(x, q ** (n // p), f, q), _pmod(x, f, q), q)
        if len(_pgcd(h, f, q)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _add_tables(q: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The addition table (row a, column b: the code of a + b) and the
    negation table of GF(q**n) for an odd prime q, built once per (q, n).

    Addition is digitwise addition mod q of the base-q codes, whatever the
    modulus, so every context of the order shares them, and they are built
    one digit at a time.  Write a code as c = c0 + q*c' (c0 its lowest
    digit): then a + b = (a0 + b0 mod q) + q*(a' + b'), so row a is the
    blocks of the mod-q row of a0, each shifted by q times an entry of the
    (q, n-1) table's row of a'.  Over F_q itself row a is 0..q-1 rotated by
    a, and -a is q - a.  Each row is a concatenation of q**(n-1) prebuilt
    blocks, so no entry is computed twice, and the tables are tuples
    because they are shared."""
    if n == 1:
        codes = tuple(range(q))
        return tuple(codes[a:] + codes[:a] for a in codes), (0,) + codes[:0:-1]
    low_add, low_neg = _add_tables(q, 1)
    high_add, high_neg = _add_tables(q, n - 1)
    # blocks[a0][h] = the codes q*h + (a0 + b0 mod q) for b0 = 0..q-1
    blocks = [[tuple(q * h + x for x in row) for h in range(q ** (n - 1))] for row in low_add]
    add = tuple(
        tuple(chain.from_iterable(map(block.__getitem__, high)))
        for high in high_add
        for block in blocks
    )
    return add, tuple(q * h + x for h in high_neg for x in low_neg)


# ---------------------------------------------------------------------------


class FieldElem:
    """One element of an ExtFieldCtx, stored as its integer code; no
    arithmetic (run ctx.*_code on codes).  Equal to its code as an int."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: "ExtFieldCtx", code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Polynomial coefficients, lowest degree first (length n)."""
        return self.ctx.decode(self.code)

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.code == other.code and self.ctx.key == other.ctx.key
        if isinstance(other, int):
            # Integer comparison is by code; 0 and 1 are the usual suspects.
            return self.code == other
        return NotImplemented

    def __hash__(self):
        return hash(self.code)  # as the int it equals; __eq__ splits fields

    def __repr__(self):
        if self.ctx.n == 1:
            return f"FieldElem({self.code} mod {self.ctx.q})"
        return f"FieldElem({list(self.coeffs)} over GF({self.ctx.q}^{self.ctx.n}))"


class ExtFieldCtx:
    """Field context for GF(q**n) = F_q[x] / (modulus)."""

    __slots__ = (
        "q",
        "n",
        "modulus",
        "order",
        "key",
        "zero",
        "add_code",
        "sub_code",
        "neg_code",
        "mul_code",
        "inv_code",
    )

    def __init__(self, q: int, n: int, modulus: Sequence[int]):
        _check_field(q, n)
        modulus = tuple(int(c) % q for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _poly_is_irreducible(modulus, q):
            raise ValueError(f"modulus {list(modulus)} is not irreducible over F_{q}")
        self.q = q
        self.n = n
        self.modulus = modulus
        self.order = q**n
        self.key = (q, n, modulus)
        self._build_ops()
        self.zero = FieldElem(self, 0)

    # -- codes <-> coefficient tuples ------------------------------------

    def decode(self, code: int) -> tuple[int, ...]:
        return _digits(code, self.q, self.n)

    def encode(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.q + c
        return v

    # -- table construction ----------------------------------------------

    def _mul_generic(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.encode(_pmod(_pmul(self.decode(a), self.decode(b), self.q), self.modulus, self.q))

    def _inv_generic(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.encode(_pinvmod(self.decode(a), self.modulus, self.q))

    def _pow_generic(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._mul_generic(result, a)
            a = self._mul_generic(a, a)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        m = self.order - 1
        if m == 1:
            return 1
        checks = [m // p for p in _prime_factors(m)]
        for cand in range(2, self.order):
            if all(self._pow_generic(cand, c) != 1 for c in checks):
                return cand
        raise AssertionError("no multiplicative generator found")

    def _build_ops(self) -> None:
        q, n, order = self.q, self.n, self.order
        if order <= _TABLE_LIMIT:
            g = self._find_generator()
            span = order - 1
            exp = [0] * (2 * span)
            log = [0] * order
            e = 1
            for i in range(span):
                exp[i] = e
                exp[i + span] = e
                log[e] = i
                e = self._mul_generic(e, g)
            if e != 1:
                raise AssertionError("generator order mismatch")

            def mul_code(a: int, b: int, _exp=exp, _log=log) -> int:
                if a == 0 or b == 0:
                    return 0
                return _exp[_log[a] + _log[b]]

            def inv_code(a: int, _exp=exp, _log=log, _span=span) -> int:
                if a == 0:
                    raise ZeroDivisionError("inverse of zero")
                return _exp[(_span - _log[a]) % _span]

            self.mul_code = mul_code
            self.inv_code = inv_code
        else:
            self.mul_code = self._mul_generic
            self.inv_code = self._inv_generic

        if q == 2:
            # Characteristic 2: coefficientwise addition is xor of codes.
            self.add_code = lambda a, b: a ^ b
            self.sub_code = lambda a, b: a ^ b
            self.neg_code = lambda a: a
            return

        if order <= _ADD_TABLE_LIMIT:
            addt, negt = _add_tables(q, n)
            self.add_code = lambda a, b, _t=addt: _t[a][b]
            self.neg_code = lambda a, _t=negt: _t[a]
            self.sub_code = lambda a, b, _t=addt, _n=negt: _t[a][_n[b]]
        else:

            def add_generic(a: int, b: int) -> int:
                ca, cb = self.decode(a), self.decode(b)
                return self.encode(tuple((x + y) % q for x, y in zip(ca, cb)))

            def neg_generic(a: int) -> int:
                return self.encode(tuple((-x) % q for x in self.decode(a)))

            self.add_code = add_generic
            self.neg_code = neg_generic
            self.sub_code = lambda a, b: add_generic(a, neg_generic(b))

    # -- element construction ----------------------------------------------

    def __call__(self, value) -> FieldElem:
        """Coerce an integer code, coefficient sequence or element.
        Integers (numpy's and bools too) are read through operator.index
        and stored as plain ints; anything else raises ValueError."""
        if isinstance(value, FieldElem):
            if value.ctx.key != self.key:
                raise ValueError("element belongs to a different field")
            return value
        try:
            code = operator.index(value)
        except TypeError:
            pass
        else:
            if not 0 <= code < self.order:
                raise ValueError(f"code {code} out of range for field of order {self.order}")
            return FieldElem(self, code)
        try:
            coeffs = [operator.index(c) % self.q for c in value]
        except TypeError:
            raise ValueError(f"{value!r} is not a code, coefficient sequence or element") from None
        if len(coeffs) > self.n:
            raise ValueError(f"too many coefficients for degree {self.n}")
        coeffs += [0] * (self.n - len(coeffs))
        return FieldElem(self, self.encode(coeffs))

    def __eq__(self, other):
        return isinstance(other, ExtFieldCtx) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ExtFieldCtx(q={self.q}, n={self.n}, modulus={list(self.modulus)})"


@lru_cache(maxsize=16)
def _entry_tables(ctx: ExtFieldCtx) -> tuple[tuple[str, ...], dict[str, int]]:
    """The file token of every element, indexed by code, and the map back,
    built once per field: a token is the element's coefficients,
    comma-joined, lowest degree first (str(code) at n = 1).  Both are empty
    above _TABLE_LIMIT, where each entry is converted alone."""
    if ctx.order > _TABLE_LIMIT:
        return (), {}
    tokens = tuple(",".join(map(str, ctx.decode(c))) for c in range(ctx.order))
    return tokens, dict(zip(tokens, range(ctx.order)))


def _entry_lines(ctx: ExtFieldCtx, rows: Sequence[Sequence[int]]) -> list[str]:
    """One line per row of codes: its tokens (see _entry_tables), spaced."""
    tokens = _entry_tables(ctx)[0]
    if tokens:
        return [" ".join([tokens[c] for c in row]) for row in rows]
    if ctx.n == 1:
        return [" ".join(map(str, row)) for row in rows]
    decode = ctx.decode
    return [" ".join([",".join(map(str, decode(c))) for c in row]) for row in rows]


@lru_cache(maxsize=None)
def _field_context(q: int, n: int, modulus: tuple[int, ...]) -> ExtFieldCtx:
    """GF(q**n) = F_q[x] / (modulus), built once per modulus reduced mod q
    (as ExtFieldCtx keeps it): another spelling gets its residues' context."""
    ctx = ExtFieldCtx(q, n, modulus)
    return ctx if ctx.modulus == modulus else _field_context(q, n, ctx.modulus)


@lru_cache(maxsize=None)
def make_ext_field(q: int, n: int) -> ExtFieldCtx:
    """Build GF(q**n) with the canonical modulus.

    The modulus is the first monic irreducible polynomial of degree n over
    F_q in ascending integer-encoding order (coefficients as base-q digits,
    constant term least significant).  For n = 1 this is the polynomial x,
    and arithmetic is plain arithmetic mod q.  The context is
    _field_context's, which a scheme file naming this modulus gets too.
    """
    _check_field(q, n)
    for tail in range(q**n):
        cand = _digits(tail, q, n) + (1,)
        if _poly_is_irreducible(cand, q):
            return _field_context(q, n, cand)
    raise AssertionError(f"no irreducible polynomial of degree {n} over F_{q}")  # pragma: no cover
