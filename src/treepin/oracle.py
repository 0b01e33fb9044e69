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

The arithmetic runs in float64, where numpy multiplies through BLAS, and it
is exact.  Every base vector is mapped, as one product ``vectors @ M``
whose entries are sums of ``rows`` products of digits, reduced mod q by
floor; `falinalg._exact_f64` states the bound, (q-1)**2 * rows < 2**53,
and `falinalg._floor_mod` is the reduction, the same kernel that runs
`simulate`'s trial batches (the falinalg notes on digit arrays give the
argument).  Past that bound the oracles raise BudgetError before they
enumerate anything (such an enumeration would need at least 2**26
vectors).  Image rows are then packed into single base-q numbers by one
more product with q-powers, exact while q**cols <= 2**53; wider images
fall back to row-wise uniqueness.

The conditional mutual information needs the image sizes of four joint
maps, [ma|mc], [mb|mc], [ma|mb|mc] and [mc].  The image of a stacked map is
exactly the matching columns of the image of the whole stack, so every base
vector is mapped once, through [ma|mc|mb], and each joint image is a column
slice of that one enumeration.  The four slices are packed by one product
with a (cols x 4) power matrix and their distinct values counted with one
sort: still full enumeration with exact counts, no rank shortcut.

Each function that builds an array imports numpy itself, so importing the
CLI, which imports this module for `oracle-check`, loads no numpy for the
commands that never enumerate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .falinalg import _EXACT, FMatrix, _exact_f64, _floor_mod

__all__ = [
    "BudgetError",
    "ENTROPY_BUDGET",
    "MCF_BUDGET",
    "entropy_exhaustive",
    "McfExhaustive",
    "mcf_exhaustive",
    "cond_mutual_info_exhaustive",
]

if TYPE_CHECKING:
    import numpy as np


class BudgetError(RuntimeError):
    """The requested enumeration exceeds the hard size cap."""


ENTROPY_BUDGET = 2**18
MCF_BUDGET = 2**14


def _base_code_matrix(m: FMatrix) -> np.ndarray:
    import numpy as np

    if m.ctx.n != 1:
        raise ValueError(
            "exhaustive oracles work over the base field; expand extension "
            "matrices to base coordinates first"
        )
    return np.array(m.to_code_rows(), dtype=np.float64).reshape(m.rows, m.cols)


def _check_exact(q: int, rows: int) -> None:
    """Refuse an image whose float64 entries could reach 2**53 (module
    docstring)."""
    if not _exact_f64(q, rows):
        raise BudgetError(
            f"a {rows}-row image over GF({q}) has entries up to "
            f"{(q - 1) ** 2 * rows}, past the exact float64 range 2**53"
        )


@functools.lru_cache(maxsize=2)
def _all_vectors(q: int, dim: int) -> np.ndarray:
    """(q**dim, dim) float64 array of all base vectors, coordinate j = digit j.

    One check alternates between two spaces (the instance's D and the
    scheme's D*n), so the last two arrays are kept; they are read-only
    because every caller shares them.  Coordinate j is built as one
    contiguous row, the digits broadcast into blocks of q**j, and the
    array is its transpose (BLAS takes either layout)."""
    import numpy as np

    digits = np.arange(q, dtype=np.float64)[:, None]
    coords = np.empty((dim, q**dim))
    for j in range(dim):
        coords[j].reshape(q ** (dim - 1 - j), q, q**j)[...] = digits
    vectors = coords.T
    vectors.setflags(write=False)
    return vectors


@functools.lru_cache(maxsize=64)
def _powers(q: int, cols: int) -> np.ndarray:
    """q**0 .. q**(cols-1) as float64, for packing rows with q**cols <= 2**53
    (cached and shared, so read-only)."""
    import numpy as np

    powers = np.array([q**j for j in range(cols)], dtype=np.float64)
    powers.setflags(write=False)
    return powers


def _image(vectors: np.ndarray, m: np.ndarray, q: int) -> np.ndarray:
    """vectors @ m reduced mod q, exact under _check_exact (module docstring)."""
    return _floor_mod(vectors @ m, q)


def _image_labels(
    vectors: np.ndarray, m: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map every base vector through m and label the distinct image rows.

    Returns (labels, counts, values): labels[i] in [0, k) identifies the
    image of vector i, counts[j] is the fiber size of value j, values[j]
    is that value's coordinate row, as int64 digits.  Rows are packed into
    single base-q numbers when q**cols <= 2**53 and labelled by one sort;
    wider images fall back to row-wise uniqueness.
    """
    import numpy as np

    n, cols = vectors.shape[0], m.shape[1]
    img = _image(vectors, m, q)
    if q**cols > _EXACT:
        values, labels, counts = np.unique(
            img, axis=0, return_inverse=True, return_counts=True
        )
        return labels.reshape(n), counts, values.astype(np.int64)
    packed = img @ _powers(q, cols)
    order = packed.argsort()
    ordered = packed[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    labels = np.empty(n, dtype=np.int64)
    labels[order] = first.cumsum() - 1
    values = img[order[first]]
    return labels, np.bincount(labels), values.astype(np.int64)


@functools.lru_cache(maxsize=64)
def _slice_powers(
    q: int, cols: int, slices: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """(len(slices), cols) read-only matrix whose row t packs columns
    lo..hi-1 of slice t into one base-q number; every slice must fit 2**53."""
    import numpy as np

    out = np.zeros((len(slices), cols))
    for t, (lo, hi) in enumerate(slices):
        out[t, lo:hi] = _powers(q, hi - lo)
    out.setflags(write=False)
    return out


def _distinct_counts(
    img: np.ndarray, q: int, slices: tuple[tuple[int, int], ...]
) -> list[int]:
    """Number of distinct rows of each column slice img[:, lo:hi] of an
    array of base-q digits.  Slices that fit 2**53 are packed by one
    product and counted with one sort; wider ones fall back to row-wise
    uniqueness."""
    import numpy as np

    packable = tuple(s for s in slices if q ** (s[1] - s[0]) <= _EXACT)
    counts = {}
    if packable:
        packed = _slice_powers(q, img.shape[1], packable) @ img.T
        packed.sort(axis=1)
        changes = np.count_nonzero(packed[:, 1:] != packed[:, :-1], axis=1)
        counts = dict(zip(packable, (changes + 1).tolist()))
    return [
        counts[s] if s in counts else len(np.unique(img[:, s[0]:s[1]], axis=0))
        for s in slices
    ]


def _entropy_from_counts(counts: np.ndarray, total: int) -> float:
    import numpy as np

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
    _check_exact(q, m.rows)
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
    import numpy as np

    if m1.rows != m2.rows:
        raise ValueError("observation maps must share the base dimension")
    if m1.ctx.q != q or m2.ctx.q != q:
        raise ValueError("field mismatch")
    total = q**m1.rows
    if total > budget:
        raise BudgetError(
            f"mcf enumeration needs {total} vectors, budget is {budget}"
        )
    _check_exact(q, m1.rows)
    vectors = _all_vectors(q, m1.rows)
    left, _, left_values = _image_labels(vectors, _base_code_matrix(m1), q)
    right, _, right_values = _image_labels(vectors, _base_code_matrix(m2), q)

    # components of the bipartite graph with one edge (left[i], right[i])
    # per base vector: every left value falls to the least left value of
    # its component, each right value taking the least over its edges
    n_left = len(left_values)
    comp = np.arange(n_left)
    while True:
        via_right = np.full(len(right_values), n_left)
        np.minimum.at(via_right, right, comp[left])
        step = np.full(n_left, n_left)
        np.minimum.at(step, left, via_right[right])
        if (step == comp).all():
            break
        comp = step
    ids = (comp == np.arange(n_left)).cumsum() - 1
    left_ids, right_ids = ids[comp], ids[via_right]
    counts = np.sort(np.bincount(left_ids[left]))
    return McfExhaustive(
        bits=_entropy_from_counts(counts, total),
        n_components=len(counts),
        labels_left=dict(zip(map(tuple, left_values.tolist()), left_ids.tolist())),
        labels_right=dict(zip(map(tuple, right_values.tolist()), right_ids.tolist())),
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
    _check_exact(q, ma.rows)
    # in [ma | mc | mb] every joint map is a contiguous run of columns
    a, c = ma.cols, mc.cols
    stacked = ma.hstack(mc, mb)
    img = _image(_all_vectors(q, ma.rows), _base_code_matrix(stacked), q)
    slices = ((0, a + c), (a, stacked.cols), (0, stacked.cols), (a, a + c))
    exponents = []
    for n_values in _distinct_counts(img, q, slices):
        e = round(math.log(n_values, q))
        if q**e != n_values:
            raise AssertionError(
                "image of a linear map must have q-power size"
            )
        exponents.append(e)
    ea, eb, eab, ec = exponents
    return (ea + eb - eab - ec) * math.log2(q)
