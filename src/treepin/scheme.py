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
leading s x s blocks are all invertible.

Synthesis strategies:

 * synth_random: sample the certificate uniformly from the left nullspace
   of the lifted wiretap matrix and retry while some per-edge block is
   singular (each attempt fails with probability at most
   s * edge_count / q**n < 1);
 * synth_explicit_unit: for all-unit multiplicities, a deterministic,
   seed-free certificate built from a power basis of GF(q**k), k =
   edge_count - wiretap_dim.

Scheme files are line oriented and round-trip exactly; entries are written
as comma-joined coefficient lists, lowest degree first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .falinalg import (
    FMatrix,
    completion_indices,
    det,
    inverse,
    left_nullspace_basis,
    lift,
    rank,
)
from .gfield import ExtFieldCtx, make_ext_field
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
    "extract_key",
    "save_scheme",
    "load_scheme",
]


class SchemeError(ValueError):
    """Synthesis precondition violation or invalid scheme data."""


@dataclass(frozen=True)
class KeyExtractor:
    """Key map: block vector times `matrix` (base_dim x s, standard basis
    columns at `coords`) is the secret key."""

    matrix: FMatrix
    coords: tuple[int, ...]


@dataclass
class CommScheme:
    """A communication design over one extension context.

    comm_matrix columns are the transmitted linear combinations; owners[j]
    is the node that can compute column j from its own observation.  The
    synthesis fields (certificate, child_mix, surplus_mix) are optional so
    hand-written schemes can be represented; verification never needs them.
    """

    ext_ctx: ExtFieldCtx
    s: int
    comm_matrix: FMatrix
    owners: tuple[int, ...]
    root: int | None = None
    child_mix: dict[tuple[int, int], FMatrix] = field(default_factory=dict)
    surplus_mix: dict[int, FMatrix] = field(default_factory=dict)
    certificate: FMatrix | None = None
    key: KeyExtractor | None = None

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
        columns = f.transpose().to_code_rows()
        for j, (owner, col) in enumerate(zip(self.owners, columns)):
            visible = set(source.node_view(owner).coords)
            for i, code in enumerate(col):
                if code and i not in visible:
                    raise SchemeError(
                        f"column {j} uses coordinate {i} that node {owner} "
                        f"cannot observe"
                    )

    def validate(self, source: TreePinSource, wiretapper: Wiretapper | None = None) -> None:
        """Check structural invariants; raises SchemeError on violation."""
        self.check_owners(source)
        if self.ext_ctx.q != source.q:
            raise SchemeError("field characteristic mismatch")
        f = self.comm_matrix
        # rank F = base_dim - (rows of N) and rank([F | K]) = rank F +
        # rank(N @ K), for N the left-null basis of F
        null = left_nullspace_basis(f)
        if null.rows != self.s:
            raise SchemeError(
                "communication matrix rank must be base_dim - s"
            )
        for (node, edge_id), a in self.child_mix.items():
            if a.rows != self.s or a.cols != self.s:
                raise SchemeError(f"mix block for node {node}, edge {edge_id} has wrong shape")
            if not det(a).code:
                raise SchemeError(f"mix block for node {node}, edge {edge_id} is singular")
        if self.certificate is not None:
            cert = self.certificate
            if cert.rows != self.s or cert.cols != source.base_dim:
                raise SchemeError("certificate has the wrong shape")
            if rank(cert) != self.s:
                raise SchemeError("certificate rows are dependent")
            if not (cert @ f).is_zero():
                raise SchemeError("certificate does not annihilate the communication")
            if wiretapper is not None and wiretapper.dim:
                wl = lift(wiretapper.matrix, self.ext_ctx)
                if not (cert @ wl).is_zero():
                    raise SchemeError("certificate does not annihilate the wiretap matrix")
        if self.key is not None:
            if rank(null @ self.key.matrix) != null.rows:
                raise SchemeError("key columns do not complete the communication")


# ---------------------------------------------------------------------------
# Rooted tree bookkeeping


class _Rooted:
    """Parent/child structure of the source tree under a chosen root."""

    def __init__(self, source: TreePinSource, root: int):
        self.root = root
        parent_edge: dict[int, int] = {}
        parent_node: dict[int, int] = {}
        order = [root]
        seen = {root}
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for e in source.incident_edges(v):
                other = e.v if e.u == v else e.u
                if other not in seen:
                    seen.add(other)
                    parent_edge[other] = e.edge_id
                    parent_node[other] = v
                    order.append(other)
        self.parent_edge = parent_edge
        self.parent_node = parent_node
        self.bfs_order = tuple(order)
        children: dict[int, list[int]] = {v: [] for v in range(source.vertex_count)}
        for child, eid in parent_edge.items():
            children[parent_node[child]].append(eid)
        self.children_edges = {v: tuple(sorted(es)) for v, es in children.items()}
        # the node on the root side of each edge
        self.upper_node = {
            eid: parent_node[child] for child, eid in parent_edge.items()
        }
        self.lower_node = {eid: child for child, eid in parent_edge.items()}


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


def _certificate_blocks(
    source: TreePinSource, cert: FMatrix, s: int
) -> dict[int, tuple[FMatrix, FMatrix]]:
    """Split the certificate into per-edge (leading s x s, surplus) blocks."""
    out = {}
    for e in source.edges:
        block = source.edge_range(e.edge_id)
        lead = cert.take_cols(range(block.start, block.start + s))
        tail = cert.take_cols(range(block.start + s, block.stop))
        out[e.edge_id] = (lead, tail)
    return out


def sample_alignment_certificate(
    source: TreePinSource,
    null_basis: FMatrix,
    s: int,
    rng: random.Random,
) -> FMatrix | None:
    """One uniform draw of a certificate candidate from the row space of
    null_basis; None when some per-edge leading block is singular."""
    ext = null_basis.ctx
    m = null_basis.rows
    coeff = FMatrix.from_rows(
        ext,
        [[rng.randrange(ext.order) for _ in range(m)] for _ in range(s)],
        cols=m,
    )
    cert = coeff @ null_basis
    for _, (lead, _tail) in _certificate_blocks(source, cert, s).items():
        if not det(lead).code:
            return None
    return cert


def _coeffs_from_certificate(
    source: TreePinSource, rooted: _Rooted, cert: FMatrix, s: int
) -> tuple[dict[tuple[int, int], FMatrix], dict[int, FMatrix]]:
    """Recover the per-node mixing blocks from the certificate.

    For each edge e with root-side node i, the relay block solves
    S_{e} A_{i,e} = -S_{parent_edge(i)}; the surplus block solves
    S_e B_e = -T_e.  Nodes are processed in root-to-leaf BFS order.
    """
    blocks = _certificate_blocks(source, cert, s)
    child_mix: dict[tuple[int, int], FMatrix] = {}
    surplus_mix: dict[int, FMatrix] = {}
    for node in rooted.bfs_order:
        for eid in rooted.children_edges[node]:
            if node != rooted.root:
                lead_e, _ = blocks[eid]
                lead_up, _ = blocks[rooted.parent_edge[node]]
                child_mix[(node, eid)] = -(inverse(lead_e) @ lead_up)
    for e in source.edges:
        lead, tail = blocks[e.edge_id]
        if tail.cols:
            surplus_mix[e.edge_id] = -(inverse(lead) @ tail)
    return child_mix, surplus_mix


def _assemble(
    source: TreePinSource,
    rooted: _Rooted,
    ext: ExtFieldCtx,
    s: int,
    child_mix: dict[tuple[int, int], FMatrix],
    surplus_mix: dict[int, FMatrix],
) -> tuple[FMatrix, tuple[int, ...]]:
    """Stack the per-node column blocks into the communication matrix."""
    d = source.base_dim
    zero = ext.zero
    cols: list[list] = []
    owners: list[int] = []

    def lead_rows(edge_id: int) -> list[int]:
        block = source.edge_range(edge_id)
        return [block.start + k for k in range(s)]

    for node in range(source.vertex_count):
        if source.degree(node) >= 2:
            up = rooted.parent_edge[node]
            for eid in rooted.children_edges[node]:
                a = child_mix[(node, eid)]
                up_rows = lead_rows(up)
                lo_rows = lead_rows(eid)
                for j in range(s):
                    col = [zero] * d
                    col[up_rows[j]] = ext.one
                    for i in range(s):
                        col[lo_rows[i]] = a[i, j]
                    cols.append(col)
                    owners.append(node)
        if node != rooted.root:
            eid = rooted.parent_edge[node]
            block = source.edge_range(eid)
            surplus = range(block.start + s, block.stop)
            b = surplus_mix.get(eid)
            e_rows = lead_rows(eid)
            for j, row_idx in enumerate(surplus):
                col = [zero] * d
                col[row_idx] = ext.one
                if b is not None:
                    for i in range(s):
                        col[e_rows[i]] = b[i, j]
                cols.append(col)
                owners.append(node)
    return FMatrix.from_cols(ext, cols, rows=d), tuple(owners)


# ---------------------------------------------------------------------------
# Synthesis entry points


def _synth_from_certificate(
    source: TreePinSource,
    wiretapper: Wiretapper,
    ext: ExtFieldCtx,
    cert: FMatrix,
    root: int,
) -> CommScheme:
    s = source.min_mult
    rooted = _Rooted(source, root)
    child_mix, surplus_mix = _coeffs_from_certificate(source, rooted, cert, s)
    comm, owners = _assemble(source, rooted, ext, s, child_mix, surplus_mix)
    scheme = CommScheme(
        ext_ctx=ext,
        s=s,
        comm_matrix=comm,
        owners=owners,
        root=root,
        child_mix=child_mix,
        surplus_mix=surplus_mix,
        certificate=cert,
    )
    scheme.key = extract_key(scheme)
    scheme.validate(source, wiretapper)
    return scheme


def synth_random(
    source: TreePinSource,
    wiretapper: Wiretapper,
    seed: int,
    max_attempts: int = 64,
) -> CommScheme:
    """Randomised certificate synthesis for an irreducible instance."""
    if not is_irreducible(source, wiretapper):
        raise SchemeError(
            "instance is reducible; strip the eavesdropper's common parts "
            "first (reduce_full)"
        )
    s = source.min_mult
    n = choose_extension_degree(source)
    ext = make_ext_field(source.q, n)
    root = _default_root(source)
    wl = lift(wiretapper.matrix, ext)
    null_basis = left_nullspace_basis(wl)
    if null_basis.rows < s:
        raise SchemeError(
            "wiretap dimension too large: no certificate space left"
        )
    rng = random.Random(seed)
    for _ in range(max_attempts):
        cert = sample_alignment_certificate(source, null_basis, s, rng)
        if cert is not None:
            return _synth_from_certificate(source, wiretapper, ext, cert, root)
    raise SchemeError(
        f"no nonsingular certificate found in {max_attempts} attempts"
    )


def synth_explicit_unit(
    source: TreePinSource, wiretapper: Wiretapper
) -> CommScheme:
    """Deterministic certificate for all-unit multiplicities.

    Column-reduce the wiretap matrix (reduced row echelon form of its
    transpose); the pivot coordinates carry an identity block and the
    remaining k = edge_count - wiretap_dim coordinates carry the mixing
    rows.  Assigning the power basis 1, x, ..., x^(k-1) of GF(q**k) to the
    non-pivot coordinates forces the pivot coordinates to the corresponding
    (nonzero) mixed sums, giving a certificate with every entry nonzero.
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
    if not is_irreducible(source, wiretapper):
        raise SchemeError(
            "instance is reducible; strip the eavesdropper's common parts "
            "first (reduce_full)"
        )
    d = source.base_dim
    m = wiretapper.dim
    k = d - m
    if k < 1:
        raise SchemeError("eavesdropper already sees a full basis")
    from .falinalg import rref

    red = rref(wiretapper.matrix.transpose())
    if red.rank != m:
        raise AssertionError("wiretap matrix lost rank")  # guarded by Wiretapper
    pivots = list(red.pivots)
    pivotset = set(pivots)
    nonpivots = [c for c in range(d) if c not in pivotset]
    ext = make_ext_field(source.q, k)

    entries = [ext.zero] * d
    for j, c in enumerate(nonpivots):
        # power basis element x**j has code q**j
        entries[c] = ext(source.q**j)
    for i, c in enumerate(pivots):
        acc = ext.zero
        for j, nc in enumerate(nonpivots):
            a = red.matrix[i, nc].code
            if a:
                acc = acc + ext(a) * entries[nc]
        entries[c] = -acc
        if not entries[c].code:
            raise AssertionError(
                "zero certificate entry; instance was not irreducible"
            )
    cert = FMatrix(ext, [entries], cols=d)
    return _synth_from_certificate(
        source, wiretapper, ext, cert, _default_root(source)
    )


def extract_key(scheme: CommScheme) -> KeyExtractor:
    """Greedy key columns: the first standard basis vectors (ascending
    coordinate) that extend the communication's column space to full rank."""
    f = scheme.comm_matrix
    coords = completion_indices(f)
    if len(coords) != scheme.s:
        raise SchemeError("communication matrix does not leave an s-dim key space")
    return KeyExtractor(
        matrix=FMatrix.basis_columns(scheme.ext_ctx, f.rows, coords), coords=coords
    )


# ---------------------------------------------------------------------------
# Serialization


def _fmt_matrix_lines(m: FMatrix) -> list[str]:
    if not m.cols:
        return []
    decode = m.ctx.decode
    return [
        " ".join(",".join(map(str, decode(c))) for c in row)
        for row in m.to_code_rows()
    ]


def save_scheme(scheme: CommScheme) -> str:
    ext = scheme.ext_ctx
    n = ext.n
    lines = [
        f"treepin-scheme q={ext.q} n={n}",
        "modulus " + ",".join(str(c) for c in ext.modulus),
        f"root {scheme.root if scheme.root is not None else 'none'}",
        f"s {scheme.s}",
        "owners" + ("" if not scheme.owners else " " + " ".join(str(o) for o in scheme.owners)),
        f"fmat rows={scheme.comm_matrix.rows} cols={scheme.comm_matrix.cols}",
        *_fmt_matrix_lines(scheme.comm_matrix),
    ]
    for (node, eid) in sorted(scheme.child_mix):
        a = scheme.child_mix[(node, eid)]
        lines.append(f"amat node={node} edge={eid} rows={a.rows} cols={a.cols}")
        lines.extend(_fmt_matrix_lines(a))
    for eid in sorted(scheme.surplus_mix):
        b = scheme.surplus_mix[eid]
        if b.cols == 0:
            continue
        lines.append(f"bmat edge={eid} rows={b.rows} cols={b.cols}")
        lines.extend(_fmt_matrix_lines(b))
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


def _tag_ints(parts: list[str], names: tuple[str, ...]) -> list[int]:
    """Values of the named non-negative integer fields of a block tag line
    such as 'amat node=1 edge=0 rows=2 cols=2'."""
    if not all("=" in p for p in parts[1:]):
        raise SchemeError(f"malformed {parts[0]} tag: fields must be key=value")
    fields = dict(p.split("=", 1) for p in parts[1:])
    try:
        values = [int(fields[name]) for name in names]
    except (KeyError, ValueError):
        raise SchemeError(
            f"malformed {parts[0]} tag: needs integer "
            + " ".join(f"{name}=" for name in names)
        ) from None
    if any(v < 0 for v in values):
        raise SchemeError(f"malformed {parts[0]} tag: negative field")
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
    q = int(parts[1][2:])
    n = int(parts[2][2:])

    mline = take("modulus").split()
    if len(mline) != 2 or mline[0] != "modulus":
        raise SchemeError("expected modulus line")
    try:
        modulus = tuple(int(c) for c in mline[1].split(","))
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
    root = None if rline[1] == "none" else int(rline[1])

    sline = take("s").split()
    if len(sline) != 2 or sline[0] != "s":
        raise SchemeError("expected s line")
    s = int(sline[1])

    oline = take("owners").split()
    if oline[0] != "owners":
        raise SchemeError("expected owners line")
    owners = tuple(int(o) for o in oline[1:])

    def read_matrix(tag_parts: list[str]) -> FMatrix:
        rows, cols = _tag_ints(tag_parts, ("rows", "cols"))
        grid = []
        for _ in range(rows):
            if cols == 0:
                grid.append([])
                continue
            tokens = take("matrix row").split()
            if len(tokens) != cols:
                raise SchemeError(f"expected {cols} entries in matrix row")
            grid.append([_parse_elem(t, ext) for t in tokens])
        return FMatrix.from_rows(ext, grid, cols=cols)

    fline = take("fmat").split()
    if fline[0] != "fmat":
        raise SchemeError("expected fmat block")
    comm = read_matrix(fline)
    if len(owners) != comm.cols:
        raise SchemeError("owners count does not match communication columns")

    child_mix: dict[tuple[int, int], FMatrix] = {}
    surplus_mix: dict[int, FMatrix] = {}
    key = None
    while pos < len(lines):
        line = take("block")
        parts = line.split()
        if parts[0] == "amat":
            node, eid = _tag_ints(parts, ("node", "edge"))
            child_mix[(node, eid)] = read_matrix(parts)
        elif parts[0] == "bmat":
            (eid,) = _tag_ints(parts, ("edge",))
            surplus_mix[eid] = read_matrix(parts)
        elif parts[0] == "keycols":
            coords = tuple(int(c) for c in parts[1:])
            if len(set(coords)) != len(coords) or not all(
                0 <= c < comm.rows for c in coords
            ):
                raise SchemeError(
                    f"keycols must be distinct coordinates in [0, {comm.rows})"
                )
            key = KeyExtractor(
                matrix=FMatrix.basis_columns(ext, comm.rows, coords),
                coords=coords,
            )
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
        certificate=None,
        key=key,
    )
