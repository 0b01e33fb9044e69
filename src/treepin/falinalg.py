"""Dense exact linear algebra over finite field contexts.

Matrices are immutable row-major grids over one context.  They store each
row as a tuple of integer element codes (see `gfield`); `FieldElem` objects
appear only at the API edge: the public constructors take and validate
them, and `m[i, j]`, `row` and `col` hand them out.  Everything inside works
on the codes with the context's bound code operations.

`rref`, `rank` and `left_inverse` share one elimination kernel,
`_eliminate`: plain Gaussian elimination with deterministic pivoting (first
nonzero entry scanning top to bottom), so repeated runs produce identical
results.  One kernel over integer codes, with the field arithmetic supplied
by the context, follows the design of the galois package
(https://github.com/mhostetter/galois).  The kernel uses no floats, and
touches only the pivot row's nonzero entries: it scales them, and updates
each row it clears at those columns alone.  Most matrices eliminated here
are sparse (an identity half, or a communication matrix whose columns use
a few coordinates each), so the work per pivot follows the row's support,
not its width.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gfield import ExtFieldCtx, FieldElem, make_ext_field

__all__ = [
    "FMatrix",
    "RrefResult",
    "rref",
    "rank",
    "inverse",
    "left_inverse",
    "solve_right",
    "right_nullspace_basis",
    "left_nullspace_basis",
    "col_space_intersect",
    "completion_indices",
    "lift",
    "expand_to_base",
]


def _mat(ctx: ExtFieldCtx, rows: Iterable[Sequence[int]], cols: int) -> "FMatrix":
    """Matrix from rows of codes known to be valid in ctx; no per-entry
    checks.  Every internal result is built here."""
    m = object.__new__(FMatrix)
    m.ctx = ctx
    m._codes = tuple(map(tuple, rows))
    m.rows = len(m._codes)
    m.cols = cols
    return m


def _code(ctx: ExtFieldCtx, value) -> int:
    """Code of an integer code, coefficient sequence or element of ctx."""
    if type(value) is int and 0 <= value < ctx.order:
        return value
    return ctx(value).code


def _width(grid: Sequence[Sequence], cols: int | None) -> int:
    """Row width of a grid; rejects ragged rows and a width that differs
    from cols when cols is given (it is the width of a grid with no rows)."""
    if not grid:
        return 0 if cols is None else cols
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows")
    if cols is not None and cols != width:
        raise ValueError("cols does not match row width")
    return width


class FMatrix:
    """Immutable matrix over one ExtFieldCtx, stored as rows of codes."""

    __slots__ = ("ctx", "rows", "cols", "_codes")

    def __init__(self, ctx: ExtFieldCtx, data: Iterable[Iterable[FieldElem]], cols: int | None = None):
        grid = tuple(tuple(row) for row in data)
        cols = _width(grid, cols)
        for row in grid:
            for e in row:
                if not isinstance(e, FieldElem) or e.ctx.key != ctx.key:
                    raise ValueError("entry does not belong to the matrix field")
        self.ctx = ctx
        self.rows = len(grid)
        self.cols = cols
        self._codes = tuple(tuple(e.code for e in row) for row in grid)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, ctx: ExtFieldCtx, rows: Sequence[Sequence], cols: int | None = None) -> "FMatrix":
        """Build from rows whose entries are coerced through ctx(...)."""
        grid = [[_code(ctx, v) for v in row] for row in rows]
        return _mat(ctx, grid, _width(grid, cols))

    @classmethod
    def from_cols(cls, ctx: ExtFieldCtx, cols: Sequence[Sequence], rows: int | None = None) -> "FMatrix":
        if cols:
            return cls.from_rows(ctx, list(zip(*cols)), cols=len(cols))
        if rows is None:
            raise ValueError("rows required for a matrix with no columns")
        return _mat(ctx, [()] * rows, 0)

    @classmethod
    def zeros(cls, ctx: ExtFieldCtx, rows: int, cols: int) -> "FMatrix":
        return _mat(ctx, [(0,) * cols] * rows, cols)

    @classmethod
    def identity(cls, ctx: ExtFieldCtx, n: int) -> "FMatrix":
        return cls.basis_columns(ctx, n, range(n))

    @classmethod
    def basis_columns(cls, ctx: ExtFieldCtx, rows: int, indices: Sequence[int]) -> "FMatrix":
        """Selector matrix whose j-th column is the standard basis vector
        at indices[j]."""
        return _mat(ctx, [[1 if i == r else 0 for r in indices] for i in range(rows)], len(indices))

    # -- access ------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> FieldElem:
        i, j = key
        return FieldElem(self.ctx, self._codes[i][j])

    def row(self, i: int) -> tuple[FieldElem, ...]:
        ctx = self.ctx
        return tuple(FieldElem(ctx, c) for c in self._codes[i])

    def col(self, j: int) -> tuple[FieldElem, ...]:
        ctx = self.ctx
        return tuple(FieldElem(ctx, r[j]) for r in self._codes)

    def to_code_rows(self) -> list[list[int]]:
        """The stored codes, as fresh lists."""
        return [list(r) for r in self._codes]

    # -- shape surgery -----------------------------------------------------

    def transpose(self) -> "FMatrix":
        if self.rows == 0:
            return _mat(self.ctx, [()] * self.cols, 0)
        return _mat(self.ctx, zip(*self._codes), self.rows)

    def hstack(self, *others: "FMatrix") -> "FMatrix":
        for m in others:
            if m.rows != self.rows:
                raise ValueError("row count mismatch in hstack")
            if m.ctx.key != self.ctx.key:
                raise ValueError("field mismatch in hstack")
        blocks = [m._codes for m in (self, *others) if m.cols]
        total = sum(m.cols for m in others) + self.cols
        if not blocks:
            return _mat(self.ctx, [()] * self.rows, 0)
        return _mat(self.ctx, [sum(parts, ()) for parts in zip(*blocks)], total)

    def take_rows(self, indices: Iterable[int]) -> "FMatrix":
        codes = self._codes
        return _mat(self.ctx, [codes[i] for i in indices], self.cols)

    def take_cols(self, indices: Sequence[int]) -> "FMatrix":
        return _mat(self.ctx, [[r[j] for j in indices] for r in self._codes], len(indices))

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        if self.ctx.key != other.ctx.key:
            raise ValueError("field mismatch in matmul")
        add, mul = self.ctx.add_code, self.ctx.mul_code
        width = other.cols
        out = []
        for arow in self._codes:
            acc = [0] * width
            for a, brow in zip(arow, other._codes):
                if a:
                    acc = [add(x, mul(a, b)) if b else x for x, b in zip(acc, brow)]
            out.append(acc)
        return _mat(self.ctx, out, width)

    # -- misc ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(any(r) for r in self._codes)

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.ctx.key == other.ctx.key
            and self._codes == other._codes
        )

    def __hash__(self):
        return hash((self.shape, self.ctx.key, self._codes))

    def __repr__(self):
        return f"FMatrix({self.rows}x{self.cols} over GF({self.ctx.q}^{self.ctx.n}))"


class RrefResult(NamedTuple):
    matrix: FMatrix
    pivots: tuple[int, ...]
    rank: int


def _eliminate(ctx: ExtFieldCtx, rows: list[list[int]], limit: int, full: bool) -> list[int]:
    """The elimination kernel, in place on a list of code rows (lists).

    Columns 0..limit-1 are scanned in order; the pivot of a column is the
    first row at or below the current pivot row with a nonzero entry there.
    It is swapped up, scaled to a leading 1, and the column is cleared in
    every row below it, and also above it when `full` (Gauss-Jordan, which
    leaves the reduced row echelon form).  Whole rows are updated, so an
    augmented [A | B] block is carried along.  Returns the pivot columns.

    A pivot row is zero before its pivot column, so the row operations read
    only its support past the pivot column, found once per pivot (and only
    when the row is scaled or some row is hit): the scaling and each hit
    row's update touch those entries and no others, and a hit row's entry
    at the pivot column is cleared outright.
    """
    mul, sub, inv = ctx.mul_code, ctx.sub_code, ctx.inv_code
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prow = 0
    for c in range(limit):
        if prow == nrows:
            break
        for pr in range(prow, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        p = rows[pr]
        if pr != prow:
            rows[pr] = rows[prow]
            rows[prow] = p
        support = None
        pv = p[c]
        if pv != 1:
            support = list(compress(range(c + 1, width), p[c + 1 :]))
            pinv = inv(pv)
            p[c] = 1
            for j in support:
                p[j] = mul(pinv, p[j])
        for i in range(0 if full else prow + 1, nrows):
            r = rows[i]
            f = r[c]
            if f and i != prow:
                if support is None:
                    support = list(compress(range(c + 1, width), p[c + 1 :]))
                r[c] = 0
                # f == 1 saves the multiply; over GF(2) every factor is 1
                if f == 1:
                    for j in support:
                        r[j] = sub(r[j], p[j])
                else:
                    for j in support:
                        r[j] = sub(r[j], mul(f, p[j]))
        pivots.append(c)
        prow += 1
    return pivots


def _with_identity(codes: Iterable[Sequence[int]], width: int, n: int) -> list[list[int]]:
    """Code rows of [A | I_n] for the n rows `codes` of A (width columns)."""
    rows = []
    for i, r in enumerate(codes):
        row = list(r)
        row += [0] * n
        row[width + i] = 1
        rows.append(row)
    return rows


def rref(m: FMatrix, pivot_cols: int | None = None) -> RrefResult:
    """Reduced row echelon form.

    Pivots are searched only within the first pivot_cols columns (all
    columns by default), but the whole row is reduced; this is what makes
    [A | B] style augmented eliminations work.
    """
    limit = m.cols if pivot_cols is None else pivot_cols
    data = m.to_code_rows()
    pivots = _eliminate(m.ctx, data, limit, full=True)
    return RrefResult(_mat(m.ctx, data, m.cols), tuple(pivots), len(pivots))


def rank(m: FMatrix) -> int:
    """Matrix rank via forward elimination (no back substitution)."""
    pivots = _eliminate(m.ctx, m.to_code_rows(), m.cols, full=False)
    return len(pivots)


def completion_indices(m: FMatrix) -> tuple[int, ...]:
    """Standard basis indices, picked greedily in ascending order, whose
    vectors complete m's columns to a basis of the ambient space.

    One forward elimination of [m | I]: a column is a pivot exactly when it
    is independent of the columns before it, so the pivots that fall in
    the identity part are the greedy picks.
    """
    pivots = _eliminate(m.ctx, _with_identity(m._codes, m.cols, m.rows), m.cols + m.rows, full=False)
    return tuple(c - m.cols for c in pivots if c >= m.cols)


def inverse(m: FMatrix) -> FMatrix:
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    return left_inverse(m)


def left_inverse(m: FMatrix) -> FMatrix:
    """E with E @ m = identity; requires full column rank.

    One Gauss-Jordan elimination of the code rows of [m | I], pivoting in
    m's columns only: the first m.cols rows then end in E.
    """
    c = m.cols
    rows = _with_identity(m._codes, c, m.rows)
    if len(_eliminate(m.ctx, rows, c, full=True)) < c:
        raise ValueError("matrix does not have full column rank")
    return _mat(m.ctx, [r[c:] for r in rows[:c]], m.rows)


def solve_right(a: FMatrix, b: FMatrix) -> FMatrix | None:
    """A particular X with a @ X = b, or None when the system is
    inconsistent.  Free variables are set to zero."""
    if not isinstance(b, FMatrix):
        raise ValueError("right-hand side must be an FMatrix")
    if a.rows != b.rows:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ctx.key != b.ctx.key:
        raise ValueError("field mismatch in solve_right")
    r = rref(a.hstack(b), pivot_cols=a.cols)
    red = r.matrix._codes
    if any(any(row[a.cols:]) for row in red[r.rank:]):
        return None
    grid = [(0,) * b.cols] * a.cols
    for k, c in enumerate(r.pivots):
        grid[c] = red[k][a.cols:]
    return _mat(a.ctx, grid, b.cols)


def _null_pivot_rows(ctx: ExtFieldCtx, rows: Sequence[Sequence[int]], pivots: Sequence[int], width: int) -> list[list[int]]:
    """Basis of {x : a @ x = 0} from an echelon form of a, stored in the
    size of that form.  `rows[k]` has a leading 1 at pivot column pivots[k]
    (entries above the pivots need not be cleared), and only the first
    `width` columns are read.

    Vector i of the basis is 1 at the i-th free (non-pivot) column and 0 at
    the other free columns, and back substitution fills the pivot columns,
    so it is the basis the reduced row echelon form gives.  Returned is the
    basis's coordinate row at each pivot column, in pivot order: entry i is
    coordinate pivots[k] of vector i.  At the free columns the coordinate
    rows are the unit vectors, so they are not stored; `_null_basis_rows`
    reads any coordinate rows back.

    All free columns are substituted together, from the last pivot up:
    coordinate pivots[k] of every vector is -(rows[k] at the free columns +
    rows[k][p] times coordinate p of every vector, for each later pivot p),
    one row operation per nonzero rows[k][p]."""
    add, mul, neg = ctx.add_code, ctx.mul_code, ctx.neg_code
    pivotset = set(pivots)
    free = [c for c in range(width) if c not in pivotset]
    out: list[list[int]] = [[]] * len(pivots)
    for k in range(len(pivots) - 1, -1, -1):
        row = rows[k]
        acc = [row[f] for f in free]
        for j in range(k + 1, len(pivots)):
            a = row[pivots[j]]
            if a:
                acc = [add(x, mul(a, y)) if y else x for x, y in zip(acc, out[j])]
        out[k] = [neg(x) for x in acc]
    return out


def _null_basis_rows(ctx: ExtFieldCtx, pivots: Sequence[int], pivot_rows: Sequence[Sequence[int]], coords: Iterable[int], nullity: int) -> "FMatrix":
    """Coordinate rows `coords` of the null basis that `pivots` (ascending)
    and `pivot_rows` (from _null_pivot_rows) describe: a len(coords) x
    nullity matrix whose column i is part of vector i."""
    grid = []
    for c in coords:
        k = bisect_left(pivots, c)
        if k < len(pivots) and pivots[k] == c:
            grid.append(pivot_rows[k])
        else:
            unit = [0] * nullity
            unit[c - k] = 1
            grid.append(unit)
    return _mat(ctx, grid, nullity)


def _right_null_parts(m: FMatrix) -> tuple[tuple[int, ...], list[list[int]]]:
    """right_nullspace_basis(m) in the size of m: the pivot columns of one
    forward elimination of m and the basis's coordinate rows at them."""
    rows = m.to_code_rows()
    pivots = _eliminate(m.ctx, rows, m.cols, full=False)
    return tuple(pivots), _null_pivot_rows(m.ctx, rows, pivots, m.cols)


def right_nullspace_basis(m: FMatrix) -> FMatrix:
    """Columns form a basis of {x : m @ x = 0}.  Shape cols x nullity."""
    pivots, pivot_rows = _right_null_parts(m)
    return _null_basis_rows(m.ctx, pivots, pivot_rows, range(m.cols), m.cols - len(pivots))


def left_nullspace_basis(m: FMatrix) -> FMatrix:
    """Rows form a basis of {y : y @ m = 0}.  Shape (rows - rank) x rows."""
    return right_nullspace_basis(m.transpose()).transpose()


def _left_null_and_ginverse(f: FMatrix) -> tuple[FMatrix, FMatrix, tuple[int, ...]]:
    """(N, L, free) for f (d x c) from one elimination of [f^T | I_c].

    The rows of N (k x d, k = d - rank f) are the basis of {y : y @ f = 0}
    that left_nullspace_basis(f) returns, read off the free columns of the
    left block.  `free` lists those k free (non-pivot) coordinates in
    ascending order; N is the identity there: row i of N is 1 at free[i]
    and 0 at the other free coordinates.  L (c x d) is a generalized
    inverse, f @ L @ f = f: with E the right block (the row operations),
    column p_k of L is row k of E, for the k-th pivot column p_k.  Row k of
    E @ f^T has a 1 at p_k and 0 at the other pivots and spans the rows of
    f^T, which gives f^T L^T f^T = f^T.
    """
    ctx, d, c = f.ctx, f.rows, f.cols
    red = _with_identity(zip(*f._codes) if d else [()] * c, d, c)
    pivots = _eliminate(ctx, red, d, full=True)
    pivot_rows = _null_pivot_rows(ctx, red, pivots, d)
    null = _null_basis_rows(ctx, pivots, pivot_rows, range(d), d - len(pivots)).transpose()
    lt = [(0,) * c] * d
    for k, p in enumerate(pivots):
        lt[p] = red[k][d:]
    pivotset = set(pivots)
    free = tuple(j for j in range(d) if j not in pivotset)
    return null, _mat(ctx, lt, c).transpose(), free


def col_space_intersect(a: FMatrix, b: FMatrix) -> FMatrix:
    """Basis (as columns) of col(a) intersected with col(b).

    Zassenhaus block trick: row reduce [[a^T a^T], [b^T 0]]; rows whose left
    half vanished carry a basis of the intersection in their right half.
    The basis is the reduced row echelon basis of the intersection (read
    as rows), so it depends only on the two column spaces.
    """
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch")
    if a.ctx.key != b.ctx.key:
        raise ValueError("field mismatch")
    d = a.rows
    zero = (0,) * d
    at, bt = a.transpose()._codes, b.transpose()._codes
    z = _mat(a.ctx, [col + col for col in at] + [col + zero for col in bt], 2 * d)
    r = rref(z)
    cols = [
        row[d:]
        for row in r.matrix._codes[: r.rank]
        if not any(row[:d]) and any(row[d:])
    ]
    return _mat(a.ctx, zip(*cols), len(cols)) if cols else _mat(a.ctx, [()] * d, 0)


def lift(m: FMatrix, ext: ExtFieldCtx) -> FMatrix:
    """Embed a base-field matrix entrywise into an extension context.

    Constant polynomials keep their codes, so this is code-preserving; it
    also preserves rank (Gaussian elimination over the subfield is valid
    over the extension).
    """
    if m.ctx.n != 1:
        raise ValueError("lift expects a matrix over a prime field")
    if ext.q != m.ctx.q:
        raise ValueError("characteristic mismatch in lift")
    return _mat(ext, m._codes, m.cols)


def expand_to_base(m: FMatrix) -> FMatrix:
    """Rewrite a matrix over GF(q**n) as its base-field realisation.

    Each coordinate of the domain and codomain is replaced by n base-field
    coordinates (the coefficients on the power basis 1, x, ..., x^(n-1)).
    Entry a becomes the n x n block R with R[r][c] = coeff_c(x^r * a), so a
    row vector of coefficient blocks times the result reproduces the
    original product coefficientwise.  Shape (rows*n) x (cols*n).
    """
    ctx = m.ctx
    grid = _expand([m], _int_dtype(ctx, ctx.n))[0]
    return _mat(make_ext_field(ctx.q, 1), grid.tolist(), m.cols * ctx.n)


# -- base-field digit arrays ---------------------------------------------------
#
# A GF(q**n) matrix acts on coefficient vectors as an F_q-linear map, so a
# batch of vectors can be pushed through it as one integer matrix product
# reduced mod q, the way the galois package
# (https://github.com/mhostetter/galois) runs extension-field linear algebra.
#
# Such a product is exact in float64, where numpy multiplies through BLAS,
# while every sum stays below 2**53: float64 holds every integer up to
# there.  A sum of `inner` products of digits below q is at most
# (q-1)**2 * inner (_exact_f64).  The product is then reduced mod q as
# x - q*floor(x/q) (_floor_mod): for an integer x below 2**53 in magnitude
# the rounded quotient x/q never crosses an integer, so the floor is exact.
# (Multiplying by a rounded 1/q instead is not: 103 * (1/103) < 1.)  For a
# negative x, q*floor(x/q) reaches down to x - q + 1, so x must stay q
# above -2**53 for that product to be exact as well.  This is how
# word-size finite-field BLAS computes (Dumas, Giorgi, Pernet, "Dense
# linear algebra over word-size prime fields: the FFLAS and FFPACK
# packages", ACM TOMS 35(3), 2008).  Past the bound, int64 and then
# Python-int object arrays take over (_int_dtype).

_EXACT = 2**53     # float64 holds every integer up to here
_MOD_BLOCK = 8192  # entries per pass of _floor_mod


def _exact_f64(q: int, inner: int) -> bool:
    """Whether every sum of `inner` products of two digits below q stays
    below 2**53, so that float64 products and _floor_mod are exact."""
    return (q - 1) ** 2 * inner < _EXACT


def _floor_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Reduce a C-contiguous float64 array of integers x with
    -(2**53 - q) <= x < 2**53 mod q, in place, as x - q*floor(x/q);
    returns a.

    The quotient is taken _MOD_BLOCK entries at a time: a temporary the
    size of a would cost more in fresh pages than the arithmetic."""
    if not a.flags.c_contiguous:
        raise ValueError("_floor_mod reduces in place: a must be C-contiguous")
    flat = a.reshape(-1)
    for lo in range(0, flat.size, _MOD_BLOCK):
        part = flat[lo : lo + _MOD_BLOCK]
        t = part / q
        np.floor(t, out=t)
        t *= q
        part -= t
    return a


def _int_dtype(ctx: ExtFieldCtx, inner: int):
    """Array dtype for digit arithmetic in ctx: int64 while every code of
    ctx and every sum of `inner` digit products fits in it, Python ints
    (object arrays) beyond that."""
    if ctx.order <= 2**63 and (ctx.q - 1) ** 2 * inner < 2**63:
        return np.int64
    return object


def _to_digits(codes: np.ndarray, ctx: ExtFieldCtx) -> np.ndarray:
    """Base-q digits, lowest first, of an array of codes: shape (..., k)
    becomes (..., k*n), entry j spread over columns j*n .. j*n+n-1."""
    powers = np.array([ctx.q**k for k in range(ctx.n)], dtype=codes.dtype)
    digits = codes[..., None] // powers % ctx.q
    return digits.reshape(*codes.shape[:-1], codes.shape[-1] * ctx.n)


def _from_digits(digits: np.ndarray, ctx: ExtFieldCtx) -> np.ndarray:
    """Inverse of _to_digits."""
    n = ctx.n
    powers = np.array([ctx.q**k for k in range(n)], dtype=digits.dtype)
    return digits.reshape(*digits.shape[:-1], digits.shape[-1] // n, n) @ powers


def _expand(mats: Sequence[FMatrix], dtype) -> list[np.ndarray]:
    """The arrays behind expand_to_base, one per matrix of `mats` (all over
    one context, at least one matrix), as dtype arrays: an integer dtype
    from _int_dtype, or float64 for a context whose codes fit 2**53.

    Entry a = sum_k a_k x^k gives the block R[r][c] = sum_k a_k *
    coeff_c(x^(r+k) mod modulus), so one product of the digit array of
    every entry of every matrix with the table of the powers x^0 ..
    x^(2n-2) builds every block; each result is a slice of that product,
    copied into its final layout and dtype in one step.  The blocks are
    computed in int64 for float64 output (their inner dimension is n).
    """
    ctx = mats[0].ctx
    q, n = ctx.q, ctx.n
    work = np.int64 if dtype is np.float64 else dtype
    # x has code q; n = 1 needs only x^0
    powers = [1]
    for _ in range(2 * n - 2):
        powers.append(ctx.mul_code(powers[-1], q))
    table = _to_digits(np.array(powers, dtype=work)[:, None], ctx)
    k = np.arange(n)
    # hankel[k, r*n + c] = coeff_c(x^(k+r))
    hankel = table[k[:, None] + k[None, :]].reshape(n, n * n)
    total = sum(m.rows * m.cols for m in mats)
    codes = np.fromiter(chain.from_iterable(chain.from_iterable(m._codes for m in mats)), work, total)
    blocks = _to_digits(codes.reshape(total, 1), ctx) @ hankel % q
    out = []
    start = 0
    for m in mats:
        stop = start + m.rows * m.cols
        block = blocks[start:stop].reshape(m.rows, m.cols, n, n).transpose(0, 2, 1, 3)
        out.append(np.asarray(block, dtype=dtype, order="C").reshape(m.rows * n, m.cols * n))
        start = stop
    return out
