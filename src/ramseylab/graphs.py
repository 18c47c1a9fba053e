"""Host-graph representation, seeded random sampling, and serialization.

Graphs are immutable: a vertex count ``n`` (vertices are 0..n-1), a
lexicographically sorted edge tuple, and adjacency bit rows (Python ints
used as bitsets).  The sorted edge tuple realizes the fixed global edge
ordering that the focus-set machinery relies on; an edge's id is its
position in that tuple.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from numbers import Integral

import numpy as np


@dataclass(frozen=True, init=False)
class Seed:
    """Key of a counter-based Philox stream: a seed value and an index path.

    ``Seed(v, i, j)`` is ``Seed(v).substream(i).substream(j)``.  The key is
    drawn from ``SeedSequence(value, spawn_key=path)``, so distinct paths
    give distinct streams.  Each index lies below 2**32: SeedSequence splits
    a larger one into 32-bit words, and the path (2**32,) would meet (0, 1).
    The value and each index must be ints (`_is_id`: a float or a bool is
    refused here, not at the first draw).
    """

    value: int
    path: tuple

    def __init__(self, value=0, *path):
        if not _is_id(value, 2**64):
            raise ValueError(f"seed value {value!r} is not an int in [0, 2**64)")
        if not all(_is_id(i, 2**32) for i in path):
            raise ValueError(f"substream indices {path!r} are not all ints in [0, 2**32)")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "path", path)

    def generator(self):
        seq = np.random.SeedSequence(self.value, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, index):
        """Derived stream for trial `index`."""
        return Seed(self.value, *self.path, index)


class Graph:
    """Simple undirected graph with a fixed lexicographic edge order."""

    __slots__ = ("n", "edges", "adj", "_index", "_hash")

    def __init__(self, n, edges):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = [0] * n
        self.n = n
        self.edges = tuple(sorted(_or_pairs(adj, edges)))
        self.adj = tuple(adj)
        self._index = {e: i for i, e in enumerate(self.edges)}
        self._hash = hash((n, self.edges))  # every cache keyed on a graph asks for it

    # -- basic queries ------------------------------------------------

    def num_edges(self):
        return len(self.edges)

    def has_edge(self, u, v):
        return bool(self.adj[u] >> v & 1)

    def edge_id(self, u, v):
        """Position of {u,v} in the sorted edge order."""
        key = (u, v) if u < v else (v, u)
        return self._index[key]

    def degree(self, v):
        return bin(self.adj[v]).count("1")

    def neighbours(self, v):
        return _bits(self.adj[v])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def without_edges(self, removed):
        drop = {(min(u, v), max(u, v)) for u, v in removed}
        return Graph(self.n, [e for e in self.edges if e not in drop])


def _or_pairs(adj, pairs):
    """OR the vertex pairs `pairs` into the adjacency rows `adj` (a list, one
    row per vertex), checking each: the one pair check of every `Graph` and
    of every union searched on Z's rows.  Returns the pairs not already in
    `adj`, normalised, each once."""
    n, new = len(adj), []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if not adj[u] >> v & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            new.append((u, v) if u < v else (v, u))
    return new


def empty_graph(n):
    return Graph(n, [])


def complete_graph(n):
    return Graph(n, combinations(range(n), 2))


def cycle_graph(k):
    if k < 3:
        raise ValueError("cycles need k >= 3")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k):
    if k < 1:
        raise ValueError("paths need k >= 1 vertices")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


_NAME_RE = re.compile(r"^([KCP])(\d+)(-e)?$")


def pattern_by_name(name):
    """Named small graphs: Kk, Ck, Pk, Kk-e (complete minus one edge)."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValueError(f"unknown pattern name {name!r} (expected Kk, Ck, Pk or Kk-e)")
    kind, k, minus = m.group(1), int(m.group(2)), m.group(3)
    if minus and kind != "K":
        raise ValueError(f"'-e' suffix only applies to complete graphs: {name!r}")
    if kind == "K":
        g = complete_graph(k)
        if minus and not g.edges:
            raise ValueError(f"{name!r}: K{k} has no edge to remove")
        return g.without_edges([g.edges[0]]) if minus else g
    if kind == "C":
        return cycle_graph(k)
    return path_graph(k)


# -- sampling ---------------------------------------------------------


def pair_uniforms(n, seed):
    """One uniform in [0, 1) per pair of the n vertices, in lexicographic
    pair order: the arrival times of the random graph process on `seed`.

    `gnp_sample(n, p, seed)` keeps the pairs whose uniform lies below p,
    so for one seed the samples are nested in p (the monotone coupling).
    """
    return seed.generator().random(n * (n - 1) // 2)


@lru_cache(maxsize=8)
def _pair_table(n):
    """The C(n, 2) vertex pairs in lexicographic order, kept for the last 8 n
    sampled: about 64·C(n, 2) bytes each (a 2-tuple and its slot), 28 KB
    at n = 30 and 2.9 MB at n = 300."""
    return tuple(combinations(range(n), 2))


def gnp_sample(n, p, seed):
    """Binomial random graph: each of the C(n,2) pairs kept with probability p.

    Deterministic in (n, p, seed); a single Philox stream is consumed in
    the lexicographic pair order, so results do not depend on threading.
    The kept pairs are read off one array comparison (`_pair_table`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0,1]")
    return Graph(n, compress(_pair_table(n), (pair_uniforms(n, seed) < p).tolist()))


# -- set/edge operations ----------------------------------------------


def union(g1, g2):
    """Edge-set union of two graphs on the same vertex set."""
    if g1.n != g2.n:
        raise ValueError(f"vertex counts differ: {g1.n} vs {g2.n}")
    return Graph(g1.n, g1.edges + g2.edges)


def _bits(mask):
    """The set bits of `mask`, ascending, as a list."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_id(v, n):
    """True iff v is an integer id in 0..n-1, as read from outside input (a
    bool is not an id)."""
    return isinstance(v, Integral) and not isinstance(v, bool) and 0 <= v < n


def _float(x, name):
    """float(x) of a rational derived from parameter `name`; naming it on overflow."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{name} is out of range: a value derived from it overflows a float")


def _vertex_mask(vs, n, what="vertex"):
    """The bitmask of the vertex set `vs` read from outside, once each member
    is checked to be a vertex id below n (`_is_id`) that appears once."""
    mask = 0
    for v in vs:
        if not _is_id(v, n):
            raise ValueError(f"{what} {v!r} is not a vertex id in 0..{n - 1}")
        if mask >> v & 1:
            raise ValueError(f"{what} {v!r} is repeated")
        mask |= 1 << v
    return mask


def edge_count_between(g, U, W=None):
    """e_G(U) for one set, e_G(U,W) across two disjoint sets.  Refuses a
    member of U or W that repeats or is not a vertex id of g (`_vertex_mask`:
    an integer in 0..n-1, not a float or a bool), and sets U and W that meet."""
    Umask = _vertex_mask(U, g.n)
    if W is None:
        return sum(bin(g.adj[v] & Umask).count("1") for v in U) // 2
    Wmask = _vertex_mask(W, g.n)
    if Umask & Wmask:
        raise ValueError("U and W must be disjoint")
    return sum(bin(g.adj[v] & Wmask).count("1") for v in U)


# -- serialization -----------------------------------------------------


def serialize_graph(g, fmt="edgelist"):
    if fmt == "edgelist":
        lines = [str(g.n)]
        lines += [f"{u} {v}" for u, v in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "graph6":
        return _to_graph6(g)
    raise ValueError(f"unknown format {fmt!r}")


def parse_graph(text):
    """Parse edge-list or graph6 text; malformed input reports a byte offset."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty graph description (offset 0)")
    first = stripped.split(None, 1)[0]
    if first.isdigit() or (first.lstrip("-").isdigit()):
        return _parse_edgelist(text)
    return _parse_graph6(stripped, len(text) - len(text.lstrip()))


def _int_token(word, off, what):
    """int(word), or a ValueError naming the token and its offset."""
    try:
        return int(word)
    except ValueError:
        raise ValueError(f"bad {what} {word!r} (offset {off})") from None


def _parse_edgelist(text):
    tokens = [(m.group(), m.start()) for m in re.finditer(r"\S+", text)]
    (word, off), rest = tokens[0], tokens[1:]
    n = _int_token(word, off, "vertex count")
    if n < 1:
        raise ValueError(f"vertex count must be >= 1 (offset {off})")
    if len(rest) % 2:
        word, off = rest[-1]
        raise ValueError(f"dangling endpoint {word!r} (offset {off})")
    edges = []
    for (a, offa), (b, offb) in zip(rest[::2], rest[1::2]):
        u, v = _int_token(a, offa, "endpoint"), _int_token(b, offb, "endpoint")
        if not _is_id(u, n):
            raise ValueError(f"vertex {u} out of range (offset {offa})")
        if not _is_id(v, n):
            raise ValueError(f"vertex {v} out of range (offset {offb})")
        if u == v:
            raise ValueError(f"loop at vertex {u} (offset {offa})")
        edges.append((u, v))
    return Graph(n, edges)


def _to_graph6(g):
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph6 output limited to n <= 258047")
    bits = [int(g.has_edge(i, j)) for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(sum(b << (5 - k) for k, b in enumerate(bits[i : i + 6])) + 63)
        for i in range(0, len(bits), 6)
    )
    return head + body


def _parse_graph6(s, base):
    """Graph of the graph6 text `s`, found at offset `base` of the input."""
    if s.startswith(">>graph6<<"):
        s, base = s[10:], base + 10
        if not s:
            raise ValueError(f"nothing after the >>graph6<< header (offset {base})")
    pos = 0
    if s[pos] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError(f"graph6 n > 258047 unsupported (offset {base})")
        if len(s) < 4:
            raise ValueError(f"truncated graph6 size field (offset {base + len(s)})")
        vals = []
        for k in range(1, 4):
            c = ord(s[k]) - 63
            if not 0 <= c <= 63:
                raise ValueError(f"invalid graph6 byte (offset {base + k})")
            vals.append(c)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        pos = 4
    else:
        n = ord(s[pos]) - 63
        if not 0 <= n <= 62:
            raise ValueError(f"invalid graph6 byte (offset {base + pos})")
        pos = 1
    if n == 0:
        raise ValueError(f"graph6 with zero vertices unsupported (offset {base})")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos < need:
        raise ValueError(f"truncated graph6 body (offset {base + len(s)})")
    if len(s) - pos > need:
        raise ValueError(f"trailing bytes after graph6 body (offset {base + pos + need})")
    bits = []
    for k in range(need):
        c = ord(s[pos + k]) - 63
        if not 0 <= c <= 63:
            raise ValueError(f"invalid graph6 byte (offset {base + pos + k})")
        bits.extend((c >> (5 - t)) & 1 for t in range(6))
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, [e for e, bit in zip(pairs, bits) if bit])
