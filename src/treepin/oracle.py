"""Brute-force ground truth for the analytic fast paths.

Everything in this module enumerates the full base-vector space F_q**D and
counts: no sampling, no rank shortcuts.  Hard budgets keep the enumeration
honest; callers that want bigger instances get a BudgetError, not a silently
subsampled answer.

Entropies are assembled from exact integer counts.  For a linear map the
fibers are cosets of the kernel, so every image has the same number of
preimages and the entropy is log2 of an integer; comparing against
``math.log2(q**dim)`` is then a bit-exact float comparison, not a tolerance
check.  Non-uniform label distributions (possible for component labels of
arbitrary pairs) fall back to the exact rational formula
``log2(total) - sum(c*log2 c)/total``.

The conditional mutual information needs the image sizes of four joint
maps, [ma|mc], [mb|mc], [ma|mb|mc] and [mc].  The image of a stacked map is
exactly the matching columns of the image of the whole stack, so every base
vector is mapped once, through [ma|mc|mb], and each joint image is a column
slice of that one enumeration whose distinct rows are counted: still full
enumeration with exact counts, no rank shortcut.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .falinalg import FMatrix

__all__ = [
    "BudgetError",
    "ENTROPY_BUDGET",
    "MCF_BUDGET",
    "entropy_exhaustive",
    "McfExhaustive",
    "mcf_exhaustive",
    "cond_mutual_info_exhaustive",
]


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the hard size cap."""


ENTROPY_BUDGET = 2**18
MCF_BUDGET = 2**14


def _base_code_matrix(m: FMatrix) -> np.ndarray:
    if m.ctx.n != 1:
        raise ValueError(
            "exhaustive oracles work over the base field; expand extension "
            "matrices to base coordinates first"
        )
    return np.array(m.to_code_rows(), dtype=np.int64).reshape(m.rows, m.cols)


@functools.lru_cache(maxsize=1)
def _all_vectors(q: int, dim: int) -> np.ndarray:
    """(q**dim, dim) array of all base vectors, coordinate j = digit j.

    The oracles of one check enumerate the same space over and over, so the
    last array is kept; it is read-only because every caller shares it."""
    idx = np.arange(q**dim, dtype=np.int64)
    powers = q ** np.arange(dim, dtype=np.int64)
    vectors = (idx[:, None] // powers[None, :]) % q
    vectors.setflags(write=False)
    return vectors


def _image_labels(
    vectors: np.ndarray, m: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map every base vector through m and label the distinct image rows.

    Returns (labels, counts, values): labels[i] in [0, k) identifies the
    image of vector i, counts[j] is the fiber size of value j, values[j]
    is that value's coordinate row.  Rows are packed into single base-q
    integers when they fit in an int64; wider images fall back to row-wise
    uniqueness.
    """
    n, cols = vectors.shape[0], m.shape[1]
    if cols == 0:
        return (
            np.zeros(n, dtype=np.int64),
            np.array([n], dtype=np.int64),
            np.zeros((1, 0), dtype=np.int64),
        )
    img = (vectors @ m) % q
    if q**cols <= 2**62:
        powers = q ** np.arange(cols, dtype=np.int64)
        packed = img @ powers
        uniq, inverse, counts = np.unique(
            packed, return_inverse=True, return_counts=True
        )
        values = (uniq[:, None] // powers[None, :]) % q
    else:
        values, inverse, counts = np.unique(
            img, axis=0, return_inverse=True, return_counts=True
        )
    return inverse.reshape(n), counts, values


def _distinct_rows(img: np.ndarray, q: int) -> int:
    """Number of distinct rows of an array of base-q digits, packed into
    base-q integers as in _image_labels (row-wise uniqueness when wider)."""
    cols = img.shape[1]
    if cols == 0:
        return 1
    if q**cols <= 2**62:
        packed = img @ q ** np.arange(cols, dtype=np.int64)
        # return_counts keeps np.unique on its sorting path; numpy 2's plain
        # np.unique hashes instead, over ten times slower on these sizes
        return len(np.unique(packed, return_counts=True)[1])
    return len(np.unique(img, axis=0))


def _entropy_from_counts(counts: np.ndarray, total: int) -> float:
    counts = np.asarray(counts, dtype=np.int64)
    if np.all(counts == counts[0]):
        return math.log2(len(counts))
    return math.log2(total) - float(
        sum(int(c) * math.log2(int(c)) for c in counts) / total
    )


def entropy_exhaustive(m: FMatrix, q: int, budget: int = ENTROPY_BUDGET) -> float:
    """Shannon entropy (bits) of X @ m for uniform X, by full enumeration."""
    if m.ctx.q != q:
        raise ValueError("field mismatch")
    total = q**m.rows
    if total > budget:
        raise BudgetError(
            f"entropy enumeration needs {total} vectors, budget is {budget}"
        )
    vectors = _all_vectors(q, m.rows)
    _, counts, _ = _image_labels(vectors, _base_code_matrix(m), q)
    return _entropy_from_counts(counts, total)


@dataclass(frozen=True)
class McfExhaustive:
    """Maximal common function of two observations, by graph components.

    Two observation values are linked when some base vector produces both;
    the common function is the component label.  labels_left / labels_right
    map observed value tuples to component ids 0..n_components-1.
    """

    bits: float
    n_components: int
    labels_left: dict[tuple[int, ...], int]
    labels_right: dict[tuple[int, ...], int]


def mcf_exhaustive(
    m1: FMatrix, m2: FMatrix, q: int, budget: int = MCF_BUDGET
) -> McfExhaustive:
    if m1.rows != m2.rows:
        raise ValueError("observation maps must share the base dimension")
    if m1.ctx.q != q or m2.ctx.q != q:
        raise ValueError("field mismatch")
    total = q**m1.rows
    if total > budget:
        raise BudgetError(
            f"mcf enumeration needs {total} vectors, budget is {budget}"
        )
    vectors = _all_vectors(q, m1.rows)
    left, _, left_values = _image_labels(vectors, _base_code_matrix(m1), q)
    right, _, right_values = _image_labels(vectors, _base_code_matrix(m2), q)

    # union-find over the two (disjoint) value alphabets
    n_left = left_values.shape[0]
    parent = list(range(n_left + right_values.shape[0]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lv, rv in zip(left.tolist(), right.tolist()):
        ra, rb = find(lv), find(n_left + rv)
        if ra != rb:
            parent[ra] = rb

    roots: dict[int, int] = {}
    comp_counts: dict[int, int] = {}
    for lv in left.tolist():
        label = roots.setdefault(find(lv), len(roots))
        comp_counts[label] = comp_counts.get(label, 0) + 1
    labels_left = {
        tuple(left_values[v].tolist()): roots[find(v)] for v in range(n_left)
    }
    labels_right = {
        tuple(right_values[v].tolist()): roots[find(n_left + v)]
        for v in range(right_values.shape[0])
    }

    counts = np.array(sorted(comp_counts.values()), dtype=np.int64)
    return McfExhaustive(
        bits=_entropy_from_counts(counts, total),
        n_components=len(roots),
        labels_left=labels_left,
        labels_right=labels_right,
    )


def cond_mutual_info_exhaustive(
    ma: FMatrix,
    mb: FMatrix,
    mc: FMatrix,
    q: int,
    budget: int = ENTROPY_BUDGET,
) -> float:
    """I(X@ma ; X@mb | X@mc) in bits, by full enumeration.

    Image sizes of linear maps are exact powers of q, so the four joint
    entropies are assembled from integer exponents and the result is the
    bit-exact value ``(ea + eb - eab - ec) * log2(q)``.  The four joint
    images are column slices of one image of [ma|mc|mb] (module docstring).
    """
    if not (ma.rows == mb.rows == mc.rows):
        raise ValueError("observation maps must share the base dimension")
    for m in (ma, mb, mc):
        if m.ctx.q != q:
            raise ValueError("field mismatch")
    total = q**ma.rows
    if total > budget:
        raise BudgetError(
            f"enumeration needs {total} vectors, budget is {budget}"
        )
    # in [ma | mc | mb] every joint map is a contiguous run of columns
    a, c = ma.cols, mc.cols
    stacked = ma.hstack(mc).hstack(mb)
    img = (_all_vectors(q, ma.rows) @ _base_code_matrix(stacked)) % q

    def image_exponent(lo: int, hi: int) -> int:
        n_values = _distinct_rows(img[:, lo:hi], q)
        e = round(math.log(n_values, q))
        if q**e != n_values:
            raise AssertionError(
                "image of a linear map must have q-power size"
            )
        return e

    ea = image_exponent(0, a + c)
    eb = image_exponent(a, stacked.cols)
    eab = image_exponent(0, stacked.cols)
    ec = image_exponent(a, a + c)
    return (ea + eb - eab - ec) * math.log2(q)
