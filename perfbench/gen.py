"""Seeded instance generator and independent rate referee.

Everything here is plain Python on integers and does not import treepin, so
the parent commit and a change receive byte-identical inputs and the
expected rates do not depend on the code under test.

An instance is a tree on `vertices` nodes (uniform labelled tree from a
Pruefer sequence), one multiplicity per edge, and a full-column-rank wiretap
matrix over F_q given as D rows of n_w integers.  `instance_text` writes the
canonical instance file format.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """What a workload fixes per instance; the seed fills in the rest."""

    q: int
    vertices: int
    mults: tuple[int, ...]   # edge multiplicities, in edge-list order
    n_w: int


@dataclass(frozen=True)
class Instance:
    q: int
    vertices: int
    edges: tuple[tuple[int, int, int, int], ...]   # (edge_id, u, v, mult)
    wiretap: tuple[tuple[int, ...], ...]           # D rows of n_w entries

    @property
    def base_dim(self) -> int:
        return sum(e[3] for e in self.edges)

    @property
    def n_w(self) -> int:
        return len(self.wiretap[0]) if self.wiretap else 0


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank of an integer matrix over F_q (q prime)."""
    a = [[x % q for x in row] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], q - 2, q)
        prow = [(x * inv) % q for x in a[r]]
        a[r] = prow
        for i in range(r + 1, n_rows):
            f = a[i][c]
            if f:
                a[i] = [(x - f * y) % q for x, y in zip(a[i], prow)]
        r += 1
        if r == n_rows:
            break
    return r


def _random_tree(rng: random.Random, m: int) -> list[tuple[int, int]]:
    if m == 2:
        return [(0, 1)]
    seq = [rng.randrange(m) for _ in range(m - 2)]
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    heap = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(heap)
    pairs = []
    for x in seq:
        leaf = heapq.heappop(heap)
        pairs.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(heap, x)
    u, v = heapq.heappop(heap), heapq.heappop(heap)
    pairs.append((min(u, v), max(u, v)))
    return pairs


def make_instance(rng: random.Random, shape: Shape) -> Instance:
    """Random tree and uniform full-rank wiretap; the multiplicities keep
    the shape's order along the edge list (the tree decides which edge gets
    which).  Elimination cost depends on where the wide edges sit in the
    base vector, so a fixed order keeps the cost of a slot steady."""
    if len(shape.mults) != shape.vertices - 1:
        raise ValueError("one multiplicity per edge required")
    pairs = _random_tree(rng, shape.vertices)
    edges = tuple((i, u, v, m) for i, ((u, v), m) in enumerate(zip(pairs, shape.mults)))
    d = sum(shape.mults)
    if shape.n_w > d:
        raise ValueError("wiretap dimension exceeds the base dimension")
    while True:
        rows = [[rng.randrange(shape.q) for _ in range(shape.n_w)] for _ in range(d)]
        if rank_mod(rows, shape.q) == shape.n_w:
            break
    return Instance(shape.q, shape.vertices, edges, tuple(tuple(r) for r in rows))


def instance_text(inst: Instance) -> str:
    lines = [f"treepin q={inst.q}", f"vertices {inst.vertices}"]
    lines += [f"edge {i} {u} {v} {m}" for i, u, v, m in inst.edges]
    lines.append(f"wiretap cols={inst.n_w}")
    if inst.n_w:
        lines += [" ".join(map(str, row)) for row in inst.wiretap]
    return "\n".join(lines) + "\n"


def parse_instance_text(text: str) -> Instance:
    """Inverse of instance_text, for files the program writes."""
    lines = [l.split() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    q = int(lines[0][1][2:])
    vertices = int(lines[1][1])
    edges = []
    k = 2
    while lines[k][0] == "edge":
        edges.append(tuple(int(x) for x in lines[k][1:]))
        k += 1
    n_w = int(lines[k][1][5:])
    rows = tuple(tuple(int(x) for x in l) for l in lines[k + 1 :]) if n_w else ()
    inst = Instance(q, vertices, tuple(edges), rows)
    if n_w and len(rows) != inst.base_dim:
        raise ValueError("wiretap row count does not match the edges")
    return inst


@dataclass(frozen=True)
class Rates:
    """Expected capacity figures, in q-ary symbols."""

    mcf_dims: tuple[int, ...]   # per edge, in edge order
    cw_dims: int
    rl_dims: int


def expected_rates(inst: Instance) -> Rates:
    """Rates from the identity mcf_dim(e) = n_w - rank(W without e's rows).

    W has full column rank, so W x is supported on edge e's block exactly
    when x lies in the nullspace of the rows outside the block; the common
    part of the edge and the eavesdropper therefore has that nullity as its
    dimension.  This is independent of the Zassenhaus intersection the
    program uses.
    """
    n_w = inst.n_w
    mcf = []
    start = 0
    for _, _, _, m in inst.edges:
        rest = [list(r) for k, r in enumerate(inst.wiretap) if not start <= k < start + m]
        mcf.append(n_w - rank_mod(rest, inst.q) if n_w else 0)
        start += m
    cw = min(e[3] - d for e, d in zip(inst.edges, mcf))
    return Rates(tuple(mcf), cw, inst.base_dim - n_w - cw)


def make_keyed_instance(rng: random.Random, shape: Shape, set_aside: list) -> tuple[Instance, Rates]:
    """make_instance drawn again until the referee gives cw >= 1.

    On a cw = 0 instance some edge is fully absorbed by the eavesdropper,
    and the program's reduction refuses it (ReductionError), so every op
    on it would fail.  The benchmark times only instances with a key; each
    cw = 0 draw is appended to set_aside, and the traced run puts those
    through reduce_full once and reports how many it refuses.  The choice
    uses the referee, not the program, so the parent commit and a change
    time the same instances."""
    while True:
        inst = make_instance(rng, shape)
        rates = expected_rates(inst)
        if rates.cw_dims:
            return inst, rates
        set_aside.append(inst)


def digest(parts) -> str:
    """sha256 over an ordered sequence of strings, 16 hex digits."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
