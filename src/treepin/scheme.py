"""Linear non-interactive communication schemes for omniscience with a key.

The schemes communicate linear combinations of blocks of n consecutive base
realisations, viewed as single symbols of GF(q**n).  Rooted at a designated
leaf, every internal node relays its parent-edge block against each child
edge (s columns each, s = minimum edge multiplicity), and every non-root
node reveals its parent edge's surplus symbols padded with the leading
block.  The stacked column blocks form the communication matrix F
(base_dim x (base_dim - s), rank base_dim - s), and the whole design is
driven by one object: a certificate matrix S (s x base_dim) whose rows
annihilate both F and the eavesdropper's (lifted) matrix, and whose per-edge
leading s x s blocks S_e are all invertible.

A certificate is drawn as C = R N_W, R an s x m matrix of uniform entries
and N_W (m x base_dim) the tap's left-null basis, in the style of random
linear network coding (Ho et al., IEEE Trans. IT 52(10), 2006).  N_W is
the identity at the tap's free coordinates, so C's columns there are R's,
and only its columns at the tap's n_w pivot coordinates are products: a
draw costs s * m * n_w field products, whether it is kept or rejected.
Each S_e is inverted once, when the certificate is drawn: the inversion is
also the draw's nonsingularity test.  The certificate and those inverses,
all code rows, unfold into the scheme in one pass: a walk from the root
records each node's parent edge and child edges, and node v's relay block
for child edge e is -S_e^-1 S_up (S_up the block of v's parent edge), edge
e's surplus block -S_e^-1 T_e (T_e the rest of S on e).  Their columns are
written straight into F as integer codes; an FMatrix is built only for
each stored block, F and the key map.  C itself is a synthesis
intermediate: the scheme does not keep it and its file does not carry it.

The key coordinates are the greedy completion of col F by standard basis
vectors.  For N the left-null basis of F, rank([F | X]) = rank F +
rank(N X), so they are the pivot columns of the reduced echelon form of N.
The certificate C spans the same row space as N (C F = 0 and rank C = s =
base_dim - rank F), so synthesis reads them off the pivots of C, which
equal those of N.  The scheme is valid by construction and is not
validated again; a loaded scheme is.

Synthesis strategies, both on the path above:

 * synth_random: draw R uniformly over GF(q**n) and retry while some
   per-edge block is singular (each attempt fails with probability at most
   s * edge_count / q**n < 1);
 * synth_explicit_unit: for all-unit multiplicities, a deterministic,
   seed-free certificate whose R is the power row (1, x, ..., x^(k-1)) of
   GF(q**k), k = edge_count - wiretap_dim.

Scheme files are line oriented and round-trip exactly; entries are written
as comma-joined coefficient lists, lowest degree first.  For a field of order
at most gfield._TABLE_LIMIT, save and load map each entry through a token
table built once per field (code -> token and its inverse); any other
spelling of an entry, and every entry of a larger field, is parsed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, filterfalse

from .falinalg import (
    FMatrix,
    _eliminate,
    _mat,
    _with_identity,
    left_nullspace_basis,
    rank,
)
from .gfield import _TABLE_LIMIT, ExtFieldCtx, make_ext_field
from .model import TreePinSource, Wiretapper
from .reduce import is_irreducible

__all__ = [
    "SchemeError",
    "KeyExtractor",
    "CommScheme",
    "choose_extension_degree",
    "sample_alignment_certificate",
    "synth_random",
    "synth_explicit_unit",
    "save_scheme",
    "load_scheme",
]

# certificate draws synth_random makes before it gives up
_MAX_ATTEMPTS = 64


class SchemeError(ValueError):
    """Synthesis precondition violation or invalid scheme data."""


@dataclass(frozen=True)
class KeyExtractor:
    """Key map: block vector times `matrix` (base_dim x s, standard basis
    columns at `coords`) is the secret key."""

    matrix: FMatrix
    coords: tuple[int, ...]


def _key_at(ext: ExtFieldCtx, base_dim: int, coords: tuple[int, ...]) -> KeyExtractor:
    """The key map that reads the block vector at `coords`."""
    return KeyExtractor(matrix=FMatrix.basis_columns(ext, base_dim, coords), coords=coords)


@dataclass
class CommScheme:
    """A communication design over one extension context.

    comm_matrix columns are the transmitted linear combinations; owners[j]
    is the node that can compute column j from its own observation.  The
    synthesis fields (root, child_mix, surplus_mix) are optional so
    hand-written schemes can be represented; verification never needs them.
    """

    ext_ctx: ExtFieldCtx
    s: int
    comm_matrix: FMatrix
    owners: tuple[int, ...]
    root: int | None = None
    child_mix: dict[tuple[int, int], FMatrix] = field(default_factory=dict)
    surplus_mix: dict[int, FMatrix] = field(default_factory=dict)
    key: KeyExtractor | None = None
    # (F, left_nullspace_basis(F)) for the comm_matrix object last read
    _null_of: tuple[FMatrix, FMatrix] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def null(self) -> FMatrix:
        """N = left_nullspace_basis(comm_matrix): k x base_dim, N @ F = 0,
        k = base_dim - rank F.  Built on first read and kept with the F it
        came from; reassigning comm_matrix makes the next read rebuild it."""
        f = self.comm_matrix
        if self._null_of is None or self._null_of[0] is not f:
            self._null_of = (f, left_nullspace_basis(f))
        return self._null_of[1]

    @property
    def base_dim(self) -> int:
        return self.comm_matrix.rows

    @property
    def block_len(self) -> int:
        """Realisations per transmitted symbol (the extension degree)."""
        return self.ext_ctx.n

    def check_owners(self, source: TreePinSource) -> None:
        """Raise SchemeError unless the scheme has one row per coordinate
        of the source and every column has one owner, a node of the tree
        that observes every coordinate the column uses."""
        f = self.comm_matrix
        if f.rows != source.base_dim:
            raise SchemeError("scheme does not match the source")
        if len(self.owners) != f.cols:
            raise SchemeError("one owner per communication column required")
        for j, owner in enumerate(self.owners):
            if not 0 <= owner < source.vertex_count:
                raise SchemeError(
                    f"owner {owner} of column {j} is not a node of the tree"
                )
        visible = {o: set(source.node_view(o).coords) for o in set(self.owners)}
        coords = range(f.rows)
        for j, (owner, col) in enumerate(zip(self.owners, zip(*f._codes))):
            # the column's nonzero coordinates, lowest first
            unseen = next(filterfalse(visible[owner].__contains__, compress(coords, col)), None)
            if unseen is not None:
                raise SchemeError(
                    f"column {j} uses coordinate {unseen} that node {owner} "
                    f"cannot observe"
                )

    def validate(self, source: TreePinSource) -> None:
        """Check structural invariants; raises SchemeError on violation."""
        self.check_owners(source)  # the row count, before N (up to R x R for R rows)
        if self.ext_ctx.q != source.q:
            raise SchemeError("field characteristic mismatch")
        # rank(N @ K) = s below does not bound K's width, and a wider key
        # that completes F is not secret
        if self.key is not None and self.key.matrix.cols != self.s:
            raise SchemeError(
                f"key map has {self.key.matrix.cols} columns, must have s = {self.s}"
            )
        # rank F = base_dim - (rows of N) and rank([F | K]) = rank F +
        # rank(N @ K)
        null = self.null
        if null.rows != self.s:
            raise SchemeError(
                "communication matrix rank must be base_dim - s"
            )
        for (node, edge_id), a in self.child_mix.items():
            if a.rows != self.s or a.cols != self.s:
                raise SchemeError(f"mix block for node {node}, edge {edge_id} has wrong shape")
            if rank(a) < self.s:
                raise SchemeError(f"mix block for node {node}, edge {edge_id} is singular")
        if self.key is not None:
            if rank(null @ self.key.matrix) != null.rows:
                raise SchemeError("key columns do not complete the communication")


def _default_root(source: TreePinSource) -> int:
    return min(source.leaves())


def choose_extension_degree(source: TreePinSource) -> int:
    """Smallest n with q**n > min_mult * edge_count (single-attempt failure
    probability of certificate sampling stays below 1)."""
    q = source.q
    target = source.min_mult * source.edge_count
    n = 1
    while q**n <= target:
        n += 1
    return n


# ---------------------------------------------------------------------------
# Certificate machinery
#
# A certificate and its lead inverses are code rows (lists of codes of the
# extension field); synthesis wraps only the blocks a scheme stores in
# FMatrix objects.


def _neg_product(ext: ExtFieldCtx, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """-(a @ b) on code rows (b has at least one row): each nonzero entry
    of a is negated once and scales a whole row of b."""
    add, mul, neg = ext.add_code, ext.mul_code, ext.neg_code
    width = len(b[0])
    out = []
    for arow in a:
        acc = [0] * width
        for x, brow in zip(arow, b):
            if x:
                x = neg(x)
                acc = [add(y, mul(x, z)) if z else y for y, z in zip(acc, brow)]
        out.append(acc)
    return out


def _lead_inverse(ext: ExtFieldCtx, cert: list[list[int]], start: int, s: int) -> list[list[int]] | None:
    """S_e^-1 for the s x s block of cert at columns start..start+s-1, from
    one Gauss-Jordan elimination of [S_e | I]; None when S_e is singular.
    For s = 1, S_e is one entry and its inverse is the field's."""
    if s == 1:
        lead = cert[0][start]
        return [[ext.inv_code(lead)]] if lead else None
    rows = _with_identity((r[start : start + s] for r in cert), s, s)
    if len(_eliminate(ext, rows, s, full=True)) < s:
        return None
    return [r[s:] for r in rows]


def _certificate(
    source: TreePinSource,
    wiretapper: Wiretapper,
    ext: ExtFieldCtx,
    coeff: list[list[int]],
) -> tuple[list[list[int]], dict[int, list[list[int]]]] | None:
    """C = coeff N_W over ext, as code rows, with S_e^-1 for every edge e
    (keyed by edge id); None as soon as some S_e is singular.

    N_W is the identity at the tap's free (non-pivot) coordinates: its
    columns there are the unit vectors, in order.  So C's columns there are
    coeff's columns, and only C's columns at the tap's pivot coordinates are
    products, coeff times N_W^T's rows there (lifted code for code): s * m
    * n_w field products for coeff of shape s x m and n_w pivots."""
    add, mul = ext.add_code, ext.mul_code
    pivots = wiretapper.pivot_coords
    pivot_rows = wiretapper.null_rows(pivots).to_code_rows()
    cert = []
    for r in coeff:
        # before pivot k, len(row) - k free coordinates are written
        row: list[int] = []
        for k, (p, prow) in enumerate(zip(pivots, pivot_rows)):
            row += r[len(row) - k : p - k]
            acc = 0
            for a, b in zip(r, prow):
                if a and b:
                    acc = add(acc, mul(a, b))
            row.append(acc)
        row += r[len(row) - len(pivots) :]
        cert.append(row)
    s = len(coeff)
    lead_inv: dict[int, list[list[int]]] = {}
    for e in source.edges:
        inv = _lead_inverse(ext, cert, source.edge_range(e.edge_id).start, s)
        if inv is None:
            return None
        lead_inv[e.edge_id] = inv
    return cert, lead_inv


def sample_alignment_certificate(
    source: TreePinSource,
    wiretapper: Wiretapper,
    ext: ExtFieldCtx,
    s: int,
    rng: random.Random,
) -> tuple[list[list[int]], dict[int, list[list[int]]]] | None:
    """One uniform draw of a certificate candidate over ext from the row
    space of N_W, the tap's left-null basis: C = R N_W for an s x m matrix
    R of uniform entries (m = rows of N_W), drawn row by row.  Returns C's
    code rows and the code rows of the inverse of each edge's leading s x s
    block (keyed by edge id); None when some such block is singular."""
    m = wiretapper.rows - wiretapper.dim
    coeff = [[rng.randrange(ext.order) for _ in range(m)] for _ in range(s)]
    return _certificate(source, wiretapper, ext, coeff)


# ---------------------------------------------------------------------------
# Synthesis entry points


def _synth_from_certificate(
    source: TreePinSource,
    ext: ExtFieldCtx,
    cert: list[list[int]],
    lead_inv: dict[int, list[list[int]]],
    root: int,
) -> CommScheme:
    """Unfold the certificate (code rows) into the scheme in one walk from
    the root; lead_inv holds the code rows of S_e^-1 for every edge, as
    sample_alignment_certificate gives them.

    The result is valid by construction, so it is not validated again:
    every mix block -S_e^-1 S_up is a product of invertible blocks; F's
    d - s columns are independent (on each child edge's lead block its
    relay columns are an invertible mix block, and each surplus column has
    its own unit); rank C = s because each S_e is invertible; C F = 0 by the
    relay and surplus identities; and C annihilates the tap because it was
    drawn from the row space of N_W.  So C spans F's left nullspace, and the
    key coordinates, the pivots of N's reduced echelon form, are those of
    C's: an s-row elimination instead of one of F.
    """
    s = source.min_mult
    d = source.base_dim
    parent_edge: dict[int, int] = {}
    child_edges: dict[int, list[int]] = {v: [] for v in range(source.vertex_count)}
    stack = [root]
    while stack:
        v = stack.pop()
        for e in source.incident_edges(v):
            other = e.v if e.u == v else e.u
            if other != root and other not in parent_edge:
                parent_edge[other] = e.edge_id
                child_edges[v].append(e.edge_id)
                stack.append(other)

    # S_e B_e = -T_e for the surplus block T_e
    lead: dict[int, list[list[int]]] = {}
    surplus: dict[int, list[list[int]]] = {}
    for e in source.edges:
        block = source.edge_range(e.edge_id)
        lead[e.edge_id] = [r[block.start : block.start + s] for r in cert]
        if e.mult > s:
            tail = [r[block.start + s : block.stop] for r in cert]
            surplus[e.edge_id] = _neg_product(ext, lead_inv[e.edge_id], tail)

    cols: list[list[int]] = []
    owners: list[int] = []

    def add_columns(owner: int, units: range, start: int, mix: list[list[int]]) -> None:
        # one column per unit row; column j of mix fills rows start..start+s-1
        for unit, codes in zip(units, zip(*mix)):
            col = [0] * d
            col[unit] = 1
            col[start : start + s] = codes
            cols.append(col)
            owners.append(owner)

    # nodes ascending: relay columns per child edge (sorted), then the
    # parent edge's surplus columns; the root (a leaf) sends nothing
    child_mix: dict[tuple[int, int], FMatrix] = {}
    for v in range(source.vertex_count):
        if v == root:
            continue
        up = parent_edge[v]
        block = source.edge_range(up)
        for eid in sorted(child_edges[v]):
            # S_up + S_e A = 0 aligns the relayed pair with the certificate
            a = _neg_product(ext, lead_inv[eid], lead[up])
            child_mix[(v, eid)] = _mat(ext, a, s)
            add_columns(v, range(block.start, block.start + s), source.edge_range(eid).start, a)
        if up in surplus:
            add_columns(v, range(block.start + s, block.stop), block.start, surplus[up])

    # C's pivots: a forward elimination finds the columns rref would
    pivots = _eliminate(ext, [list(r) for r in cert], d, full=False)
    return CommScheme(
        ext_ctx=ext,
        s=s,
        comm_matrix=_mat(ext, zip(*cols), len(cols)) if cols else _mat(ext, [()] * d, 0),
        owners=tuple(owners),
        root=root,
        child_mix=child_mix,
        surplus_mix={eid: _mat(ext, b, len(b[0])) for eid, b in surplus.items()},
        key=_key_at(ext, d, tuple(pivots)),
    )


def _require_irreducible(source: TreePinSource, wiretapper: Wiretapper) -> None:
    """Raise SchemeError unless no edge overlaps the tap."""
    if not is_irreducible(source, wiretapper):
        raise SchemeError(
            "instance is reducible; strip the eavesdropper's common parts "
            "first (reduce_full)"
        )


def synth_random(
    source: TreePinSource,
    wiretapper: Wiretapper,
    seed: int,
) -> CommScheme:
    """Randomised certificate synthesis for an irreducible instance."""
    _require_irreducible(source, wiretapper)
    s = source.min_mult
    n = choose_extension_degree(source)
    ext = make_ext_field(source.q, n)
    root = _default_root(source)
    if wiretapper.rows - wiretapper.dim < s:
        raise SchemeError(
            "wiretap dimension too large: no certificate space left"
        )
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        draw = sample_alignment_certificate(source, wiretapper, ext, s, rng)
        if draw is not None:
            return _synth_from_certificate(source, ext, *draw, root)
    raise SchemeError(
        f"no nonsingular certificate found in {_MAX_ATTEMPTS} attempts"
    )


def synth_explicit_unit(
    source: TreePinSource, wiretapper: Wiretapper
) -> CommScheme:
    """Deterministic certificate for all-unit multiplicities.

    The left-null basis N_W of the wiretap matrix has k = edge_count -
    wiretap_dim rows; row j is 1 at the j-th non-pivot coordinate of the
    column-reduced tap and 0 at the other non-pivot ones.  The certificate is
    (1, x, ..., x^(k-1)) N_W over GF(q**k): the power basis sits on the
    non-pivot coordinates and forces the pivot coordinates to the
    corresponding (nonzero) mixed sums, so every entry is nonzero.
    """
    if any(e.mult != 1 for e in source.edges):
        raise SchemeError(
            "explicit synthesis needs all-unit multiplicities; use "
            "synth_random instead"
        )
    if wiretapper.dim == 0:
        raise SchemeError(
            "explicit synthesis needs at least one wiretap column; use "
            "synth_random instead"
        )
    _require_irreducible(source, wiretapper)
    k = wiretapper.rows - wiretapper.dim
    if k < 1:
        raise SchemeError("eavesdropper already sees a full basis")
    ext = make_ext_field(source.q, k)
    # power basis element x**j has code q**j; s = 1 and every edge has one
    # coordinate, so S_e is the entry itself
    draw = _certificate(source, wiretapper, ext, [[source.q**j for j in range(k)]])
    if draw is None:
        raise AssertionError(
            "zero certificate entry; instance was not irreducible"
        )
    return _synth_from_certificate(source, ext, *draw, _default_root(source))


# ---------------------------------------------------------------------------
# Serialization


class _TokenCodes(dict):
    """Entry token -> code for one field.  A token the table lacks (another
    spelling of an entry, such as '01,0', a malformed token, or any token of
    a field too large for a table) goes through _parse_elem."""

    def __init__(self, ext: ExtFieldCtx, tokens: tuple[str, ...]):
        super().__init__(zip(tokens, range(len(tokens))))
        self.ext = ext

    def __missing__(self, token: str) -> int:
        return _parse_elem(token, self.ext)


@lru_cache(maxsize=16)
def _entry_tables(ext: ExtFieldCtx) -> tuple[tuple[str, ...] | None, _TokenCodes]:
    """The field's entry tokens indexed by code (None above _TABLE_LIMIT)
    and the token -> code map, built once per field."""
    if ext.order > _TABLE_LIMIT:
        return None, _TokenCodes(ext, ())
    tokens = tuple(",".join(map(str, ext.decode(c))) for c in range(ext.order))
    return tokens, _TokenCodes(ext, tokens)


def _fmt_matrix_lines(m: FMatrix, tokens: tuple[str, ...] | None) -> list[str]:
    if not m.cols:
        return []
    if tokens is None:
        decode = m.ctx.decode
        return [
            " ".join(",".join(map(str, decode(c))) for c in row)
            for row in m.to_code_rows()
        ]
    return [" ".join(map(tokens.__getitem__, row)) for row in m.to_code_rows()]


def save_scheme(scheme: CommScheme) -> str:
    ext = scheme.ext_ctx
    n = ext.n
    tokens, _ = _entry_tables(ext)
    lines = [
        f"treepin-scheme q={ext.q} n={n}",
        "modulus " + ",".join(str(c) for c in ext.modulus),
        f"root {scheme.root if scheme.root is not None else 'none'}",
        f"s {scheme.s}",
        "owners" + ("" if not scheme.owners else " " + " ".join(str(o) for o in scheme.owners)),
        f"fmat rows={scheme.comm_matrix.rows} cols={scheme.comm_matrix.cols}",
        *_fmt_matrix_lines(scheme.comm_matrix, tokens),
    ]
    for (node, eid) in sorted(scheme.child_mix):
        a = scheme.child_mix[(node, eid)]
        lines.append(f"amat node={node} edge={eid} rows={a.rows} cols={a.cols}")
        lines.extend(_fmt_matrix_lines(a, tokens))
    for eid in sorted(scheme.surplus_mix):
        b = scheme.surplus_mix[eid]
        if b.cols == 0:
            continue
        lines.append(f"bmat edge={eid} rows={b.rows} cols={b.cols}")
        lines.extend(_fmt_matrix_lines(b, tokens))
    if scheme.key is not None:
        lines.append(
            "keycols" + ("" if not scheme.key.coords else " " + " ".join(str(c) for c in scheme.key.coords))
        )
    return "\n".join(lines) + "\n"


def _parse_elem(token: str, ext: ExtFieldCtx) -> int:
    parts = token.split(",")
    if len(parts) != ext.n:
        raise SchemeError(f"element {token!r} needs {ext.n} coefficients")
    try:
        coeffs = [int(p) for p in parts]
    except ValueError:
        raise SchemeError(f"bad element {token!r}") from None
    for c in coeffs:
        if not 0 <= c < ext.q:
            raise SchemeError(f"coefficient {c} out of range for F_{ext.q}")
    return ext.encode(coeffs)


def _ints(values: list[str], what: str) -> list[int]:
    """The integers of one scheme line; SchemeError naming the line (`what`)
    on a value that is not one."""
    try:
        return [int(v) for v in values]
    except ValueError:
        raise SchemeError(f"malformed {what}") from None


def _tag_fields(parts: list[str]) -> dict[str, str]:
    """The key=value fields of a block tag line such as 'amat node=1 edge=0
    rows=2 cols=2', split once."""
    if not all("=" in p for p in parts[1:]):
        raise SchemeError(f"malformed {parts[0]} tag: fields must be key=value")
    return dict(p.split("=", 1) for p in parts[1:])


def _tag_ints(tag: str, fields: dict[str, str], names: tuple[str, ...]) -> list[int]:
    """Values of the named non-negative integer fields of a `tag` line."""
    try:
        values = [int(fields[name]) for name in names]
    except (KeyError, ValueError):
        raise SchemeError(
            f"malformed {tag} tag: needs integer "
            + " ".join(f"{name}=" for name in names)
        ) from None
    if any(v < 0 for v in values):
        raise SchemeError(f"malformed {tag} tag: negative field")
    return values


def load_scheme(text: str) -> CommScheme:
    lines = [
        l.strip()
        for l in text.splitlines()
        if l.strip() and not l.strip().startswith("#")
    ]
    pos = 0

    def take(expect: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise SchemeError(f"unexpected end of scheme file, expected {expect}")
        line = lines[pos]
        pos += 1
        return line

    header = take("header")
    parts = header.split()
    if (
        len(parts) != 3
        or parts[0] != "treepin-scheme"
        or not parts[1].startswith("q=")
        or not parts[2].startswith("n=")
    ):
        raise SchemeError(f"malformed scheme header {header!r}")
    q, n = _ints([parts[1][2:], parts[2][2:]], f"scheme header {header!r}")

    mline = take("modulus").split()
    if len(mline) != 2 or mline[0] != "modulus":
        raise SchemeError("expected modulus line")
    modulus = tuple(_ints(mline[1].split(","), "modulus line"))
    try:
        if len(modulus) != n + 1:
            raise ValueError("modulus must be monic of degree n")
        # Reuse the cached canonical context; build one only for another
        # modulus.
        ext = make_ext_field(q, n)
        if ext.modulus != tuple(c % q for c in modulus):
            ext = ExtFieldCtx(q, n, modulus)
    except ValueError as exc:
        raise SchemeError(str(exc)) from None

    rline = take("root").split()
    if len(rline) != 2 or rline[0] != "root":
        raise SchemeError("expected root line")
    root = None if rline[1] == "none" else _ints(rline[1:], "root line")[0]

    sline = take("s").split()
    if len(sline) != 2 or sline[0] != "s":
        raise SchemeError("expected s line")
    (s,) = _ints(sline[1:], "s line")

    oline = take("owners").split()
    if oline[0] != "owners":
        raise SchemeError("expected owners line")
    owners = tuple(_ints(oline[1:], "owners line"))
    codes = _entry_tables(ext)[1]

    def read_matrix(tag: str, fields: dict[str, str], s_rows: bool = False) -> FMatrix:
        rows, cols = _tag_ints(tag, fields, ("rows", "cols"))
        if s_rows and rows != s:
            raise SchemeError(
                f"{tag} block has rows={rows}, must have s = {s} rows"
            )
        grid = []
        for _ in range(rows):
            if cols == 0:
                grid.append(())
                continue
            tokens = take("matrix row").split()
            if len(tokens) != cols:
                raise SchemeError(f"expected {cols} entries in matrix row")
            # each code is valid in ext: a table hit or a parsed token
            grid.append(tuple(map(codes.__getitem__, tokens)))
        return _mat(ext, grid, cols)

    fline = take("fmat").split()
    if fline[0] != "fmat":
        raise SchemeError("expected fmat block")
    comm = read_matrix("fmat", _tag_fields(fline))
    if len(owners) != comm.cols:
        raise SchemeError("owners count does not match communication columns")

    child_mix: dict[tuple[int, int], FMatrix] = {}
    surplus_mix: dict[int, FMatrix] = {}
    key = None
    while pos < len(lines):
        line = take("block")
        parts = line.split()
        if parts[0] == "amat":
            fields = _tag_fields(parts)
            node, eid = _tag_ints("amat", fields, ("node", "edge"))
            child_mix[(node, eid)] = read_matrix("amat", fields, s_rows=True)
        elif parts[0] == "bmat":
            fields = _tag_fields(parts)
            (eid,) = _tag_ints("bmat", fields, ("edge",))
            surplus_mix[eid] = read_matrix("bmat", fields, s_rows=True)
        elif parts[0] == "keycols":
            coords = tuple(_ints(parts[1:], "keycols line"))
            if len(set(coords)) != len(coords) or not all(
                0 <= c < comm.rows for c in coords
            ):
                raise SchemeError(
                    f"keycols must be distinct coordinates in [0, {comm.rows})"
                )
            key = _key_at(ext, comm.rows, coords)
        else:
            raise SchemeError(f"unknown scheme block {parts[0]!r}")
    return CommScheme(
        ext_ctx=ext,
        s=s,
        comm_matrix=comm,
        owners=owners,
        root=root,
        child_mix=child_mix,
        surplus_mix=surplus_mix,
        key=key,
    )
