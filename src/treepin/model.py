"""Tree sources with pairwise shared randomness and a linear eavesdropper.

A source is a tree on vertices 0..m-1 whose edges each carry `mult`
independent uniform symbols from F_q, observed by both endpoints.  Stacking
every edge's symbols (in edge-list order) gives the base vector of dimension
D; a node sees exactly the coordinate ranges of its incident edges.  The
eavesdropper observes the base vector times a full-column-rank D x n_w
matrix over F_q.

Instance file format (line oriented, UTF-8, '#' starts a comment line):

    treepin q=<prime>
    vertices <m>
    edge <id> <u> <v> <mult>     (one line per edge)
    wiretap cols=<n_w>
    <D rows of n_w integers in [0, q)>   (absent when n_w = 0)

save_instance emits the canonical form (no comments, one trailing newline);
load_instance(save_instance(...)) is the identity on instances and
save_instance(load_instance(t)) == t for canonical t.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .falinalg import FMatrix, _eliminate, _mat, _null_basis_rows, _right_null_parts
from .gfield import ExtFieldCtx, _entry_lines, _entry_tables, make_ext_field

__all__ = [
    "InstanceError",
    "EdgeSpec",
    "NodeView",
    "TreePinSource",
    "Wiretapper",
    "load_instance",
    "save_instance",
    "random_instance",
]


class InstanceError(ValueError):
    """Malformed instance data (parse or validation failure)."""


class EdgeSpec(NamedTuple):
    edge_id: int
    u: int
    v: int
    mult: int


@dataclass(frozen=True)
class NodeView:
    """What a single node observes: its incident edges' coordinate ranges."""

    node: int
    base_dim: int
    coords: tuple[int, ...]
    edge_ids: tuple[int, ...]

    def selector(self, ctx: ExtFieldCtx) -> FMatrix:
        """base_dim x len(coords) selector with standard basis columns."""
        return FMatrix.basis_columns(ctx, self.base_dim, self.coords)


class TreePinSource:
    """Validated tree source; immutable once constructed."""

    __slots__ = (
        "q",
        "vertex_count",
        "edges",
        "base_dim",
        "base_ctx",
        "_ranges",
        "_incident",
        "_views",
    )

    def __init__(self, q: int, vertex_count: int, edges: Sequence[EdgeSpec]):
        try:
            base_ctx = make_ext_field(q, 1)
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
        if vertex_count < 2:
            raise InstanceError("a tree source needs at least 2 vertices")
        edges = tuple(EdgeSpec(*e) for e in edges)
        if len(edges) != vertex_count - 1:
            raise InstanceError(
                f"a tree on {vertex_count} vertices has {vertex_count - 1} edges, "
                f"got {len(edges)}"
            )
        seen_ids = set()
        parent = list(range(vertex_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in edges:
            if e.edge_id in seen_ids:
                raise InstanceError(f"duplicate edge id {e.edge_id}")
            seen_ids.add(e.edge_id)
            if not (0 <= e.u < vertex_count and 0 <= e.v < vertex_count):
                raise InstanceError(f"edge {e.edge_id} endpoint out of range")
            if e.u == e.v:
                raise InstanceError(f"edge {e.edge_id} is a self loop")
            if e.mult < 1:
                raise InstanceError(
                    f"edge {e.edge_id} multiplicity must be at least 1"
                )
            ru, rv = find(e.u), find(e.v)
            if ru == rv:
                raise InstanceError("edge set contains a cycle; not a tree")
            parent[ru] = rv

        ranges: dict[int, range] = {}
        start = 0
        for e in edges:
            ranges[e.edge_id] = range(start, start + e.mult)
            start += e.mult

        incident: dict[int, list[EdgeSpec]] = {v: [] for v in range(vertex_count)}
        for e in edges:
            incident[e.u].append(e)
            incident[e.v].append(e)

        self.q = q
        self.vertex_count = vertex_count
        self.edges = edges
        self.base_dim = start
        self.base_ctx = base_ctx
        self._ranges = ranges
        self._incident = {v: tuple(es) for v, es in incident.items()}
        self._views: tuple[NodeView, ...] | None = None  # built by node_view

    # -- structure ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def min_mult(self) -> int:
        return min(e.mult for e in self.edges)

    def edge(self, edge_id: int) -> EdgeSpec:
        for e in self.edges:
            if e.edge_id == edge_id:
                return e
        raise InstanceError(f"no edge with id {edge_id}")

    def edge_range(self, edge_id: int) -> range:
        try:
            return self._ranges[edge_id]
        except KeyError:
            raise InstanceError(f"no edge with id {edge_id}") from None

    def incident_edges(self, v: int) -> tuple[EdgeSpec, ...]:
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def leaves(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.vertex_count) if self.degree(v) == 1)

    def node_view(self, v: int) -> NodeView:
        """Node v's view.  The first call builds every node's view, which
        later calls share (the source is immutable)."""
        if self._views is None:
            self._views = tuple(map(self._build_view, range(self.vertex_count)))
        if not 0 <= v < self.vertex_count:
            raise KeyError(v)
        return self._views[v]

    def _build_view(self, v: int) -> NodeView:
        coords: list[int] = []
        for e in self._incident[v]:
            coords.extend(self._ranges[e.edge_id])
        coords.sort()
        return NodeView(
            node=v,
            base_dim=self.base_dim,
            coords=tuple(coords),
            edge_ids=tuple(e.edge_id for e in self._incident[v]),
        )

    def edge_block_selector(self, edge_id: int) -> FMatrix:
        """base_dim x mult selector for one edge's coordinate block."""
        return FMatrix.basis_columns(
            self.base_ctx, self.base_dim, list(self.edge_range(edge_id))
        )

    def with_multiplicity(self, edge_id: int, mult: int) -> "TreePinSource":
        new_edges = [
            e._replace(mult=mult) if e.edge_id == edge_id else e for e in self.edges
        ]
        return TreePinSource(self.q, self.vertex_count, new_edges)

    def __eq__(self, other):
        return (
            isinstance(other, TreePinSource)
            and self.q == other.q
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.q, self.vertex_count, self.edges))

    def __repr__(self):
        return (
            f"TreePinSource(q={self.q}, vertices={self.vertex_count}, "
            f"edges={len(self.edges)}, base_dim={self.base_dim})"
        )


class Wiretapper:
    """Linear eavesdropper: observes base vector times a full-column-rank
    matrix over the prime field.

    The one elimination of W happens here, a forward elimination of W^T.
    It leaves N_W^T, the right-null basis of W^T (rows x (rows - dim), so
    N_W @ W = 0), in the size of W: `pivot_coords` are the pivot columns of
    that elimination, ascending, and only N_W^T's rows at those coordinates
    are kept.  Its rows at every other coordinate are distinct unit
    vectors.  `null_rows` reads rows of N_W^T back, and `null_rank` ranks a
    range of them."""

    __slots__ = ("matrix", "pivot_coords", "_pivot_rows")

    def __init__(self, matrix: FMatrix):
        if matrix.ctx.n != 1:
            raise InstanceError("wiretap matrix must live over the prime field")
        pivots, pivot_rows = _right_null_parts(matrix.transpose())
        if len(pivots) != matrix.cols:
            raise InstanceError("wiretap matrix does not have full column rank")
        self.matrix = matrix
        self.pivot_coords = pivots
        self._pivot_rows = pivot_rows

    def null_rows(self, coords: Iterable[int]) -> FMatrix:
        """The rows of N_W^T at the coordinates `coords`."""
        return _null_basis_rows(
            self.matrix.ctx, self.pivot_coords, self._pivot_rows, coords, self.rows - self.dim
        )

    def null_rank(self, coords: range) -> int:
        """rank(null_rows(coords)) for a range of step 1, without
        eliminating its unit rows.  With k and k' the numbers of pivot
        coordinates below its start and stop, the range's other coordinates
        read the unit rows of columns [start - k, stop - k').  Those span
        the columns, so the rank is their count plus the rank of the
        range's pivot rows with those columns removed: a test for one row,
        one forward elimination of those rows alone for more."""
        pivots = self.pivot_coords
        k = bisect_left(pivots, coords.start)
        if k == len(pivots) or pivots[k] >= coords.stop:
            return len(coords)
        k_stop = bisect_left(pivots, coords.stop, k)
        lo, hi = coords.start - k, coords.stop - k_stop
        if k_stop == k + 1:
            row = self._pivot_rows[k]
            return hi - lo + (any(row[:lo]) or any(row[hi:]))
        rest = [r[:lo] + r[hi:] for r in self._pivot_rows[k:k_stop]]
        return hi - lo + len(_eliminate(self.matrix.ctx, rest, len(rest[0]), full=False))

    @property
    def dim(self) -> int:
        return self.matrix.cols

    @property
    def rows(self) -> int:
        return self.matrix.rows

    def __eq__(self, other):
        return isinstance(other, Wiretapper) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Wiretapper({self.rows}x{self.dim} over F_{self.matrix.ctx.q})"


# ---------------------------------------------------------------------------
# File format


def load_instance(text: str) -> tuple[TreePinSource, Wiretapper]:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    pos = 0

    def take(expect: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            raise InstanceError(f"unexpected end of file, expected {expect}")
        item = lines[pos]
        pos += 1
        return item

    lineno, header = take("'treepin q=<prime>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "treepin" or not parts[1].startswith("q="):
        raise InstanceError(f"line {lineno}: malformed header {header!r}")
    try:
        q = int(parts[1][2:])
    except ValueError:
        raise InstanceError(f"line {lineno}: q must be an integer") from None

    lineno, vline = take("'vertices <m>'")
    vparts = vline.split()
    if len(vparts) != 2 or vparts[0] != "vertices":
        raise InstanceError(f"line {lineno}: expected 'vertices <m>'")
    vertex_count = _parse_int(vparts[1], lineno)

    edges = []
    while pos < len(lines) and lines[pos][1].startswith("edge "):
        lineno, eline = take("edge line")
        eparts = eline.split()
        if len(eparts) != 5:
            raise InstanceError(
                f"line {lineno}: expected 'edge <id> <u> <v> <mult>'"
            )
        edges.append(EdgeSpec(*_parse_ints(eparts[1:], lineno)))

    lineno, wline = take("'wiretap cols=<n_w>'")
    wparts = wline.split()
    if len(wparts) != 2 or wparts[0] != "wiretap" or not wparts[1].startswith("cols="):
        raise InstanceError(f"line {lineno}: expected 'wiretap cols=<n_w>'")
    n_w = _parse_int(wparts[1][5:], lineno)
    if n_w < 0:
        raise InstanceError(f"line {lineno}: wiretap cols must be >= 0")

    source = TreePinSource(q, vertex_count, edges)

    codes = _entry_tables(source.base_ctx)[1]
    rows: list[list[int]] = []
    if n_w:
        for _ in range(source.base_dim):
            lineno, rline = take("wiretap matrix row")
            tokens = rline.split()
            try:
                vals = [codes[t] for t in tokens]
            except KeyError:
                vals = None
            if vals is None or len(vals) != n_w:
                # a row spelled otherwise than save_instance writes it, or
                # malformed: the checks in order, each with its message
                vals = _parse_ints(tokens, lineno)
                if len(vals) != n_w:
                    raise InstanceError(
                        f"line {lineno}: expected {n_w} entries, got {len(vals)}"
                    )
                if min(vals) < 0 or max(vals) >= q:
                    v = next(v for v in vals if not 0 <= v < q)
                    raise InstanceError(
                        f"line {lineno}: entry {v} out of range for F_{q}"
                    )
            rows.append(vals)
    if pos != len(lines):
        raise InstanceError(f"line {lines[pos][0]}: trailing content")

    # every entry came from the token table or passed the range check above
    matrix = _mat(source.base_ctx, rows or [()] * source.base_dim, n_w)
    return source, Wiretapper(matrix)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InstanceError(f"line {lineno}: expected integer, got {token!r}") from None


def _parse_ints(tokens: list[str], lineno: int) -> list[int]:
    """The integers of one line's tokens, parsed in one pass; on a token
    that is not an integer, the token-by-token parse raises _parse_int's
    message for the first one."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_parse_int(p, lineno) for p in tokens]


def save_instance(source: TreePinSource, wiretapper: Wiretapper) -> str:
    if wiretapper.rows != source.base_dim:
        raise InstanceError("wiretap matrix row count does not match the source")
    lines = [f"treepin q={source.q}", f"vertices {source.vertex_count}"]
    for e in source.edges:
        lines.append(f"edge {e.edge_id} {e.u} {e.v} {e.mult}")
    lines.append(f"wiretap cols={wiretapper.dim}")
    if wiretapper.dim:
        lines += _entry_lines(source.base_ctx, wiretapper.matrix._codes)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random instances


def random_instance(
    seed: int,
    vertex_count: int,
    max_multiplicity: int,
    q: int,
    n_w_target: int,
) -> tuple[TreePinSource, Wiretapper]:
    """Deterministic random instance: uniform labelled tree (random Pruefer
    sequence), multiplicities uniform in [1, max_multiplicity], wiretap
    matrix resampled until it has full column rank."""
    if vertex_count < 2:
        raise InstanceError("a tree source needs at least 2 vertices")
    if max_multiplicity < 1:
        raise InstanceError("max_multiplicity must be >= 1")
    rng = random.Random(seed)
    pairs = _random_tree(rng, vertex_count)
    edges = [
        EdgeSpec(i, u, v, rng.randint(1, max_multiplicity))
        for i, (u, v) in enumerate(pairs)
    ]
    source = TreePinSource(q, vertex_count, edges)
    d = source.base_dim
    if n_w_target < 0:
        raise InstanceError("wiretap dimension must be >= 0")
    if n_w_target > d:
        raise InstanceError(
            f"wiretap dimension {n_w_target} exceeds base dimension {d}"
        )
    ctx = source.base_ctx
    if n_w_target == 0:
        matrix = FMatrix.zeros(ctx, d, 0)
        return source, Wiretapper(matrix)
    while True:
        rows = [[rng.randrange(q) for _ in range(n_w_target)] for _ in range(d)]
        try:
            return source, Wiretapper(FMatrix.from_rows(ctx, rows, cols=n_w_target))
        except InstanceError:
            continue


def _random_tree(rng: random.Random, m: int) -> list[tuple[int, int]]:
    if m == 2:
        return [(0, 1)]
    import heapq

    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for x in seq:
        leaf = heapq.heappop(heap)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return edges
