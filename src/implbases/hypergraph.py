"""Hypergraphs over an attribute universe and minimal-transversal enumeration.

The enumerator is MMCS (Murakami & Uno, 2014): a depth-first search
that adds one vertex of an uncovered edge at a time, keeps the chosen
set minimal through per-member crit sets by never offering a vertex
that would empty one, and holds no intermediate family of
transversals. A set with one uncovered edge left is finished in place:
each unblocked candidate in that edge completes one minimal
transversal, so the search pushes no node for it. Inner loops work on
raw bitmasks and return families in no fixed order; the public
functions sort at the boundary (``sets.sorted_sets``).

Degenerate inputs are distinguished deliberately: a hypergraph with no
edges has the single (vacuous) minimal transversal ``{}``, while a
hypergraph containing an empty edge has none at all.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .sets import IndexSet, sorted_sets

BRUTE_FORCE_VERTEX_LIMIT = 20


class Hypergraph:
    """Finite edge family over vertices ``0..vertex_count-1``."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[IndexSet]) -> None:
        edges = tuple(edges)
        for e in edges:
            if e.universe != vertex_count:
                raise ValueError(
                    f"edge universe {e.universe} != vertex count {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_masks(cls, vertex_count: int, masks: Iterable[int]) -> "Hypergraph":
        return cls(vertex_count,
                   (IndexSet.from_mask(vertex_count, m) for m in masks))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Hypergraph is immutable")

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(e.mask for e in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph({self.vertex_count}, {len(self.edges)} edges)"


def normalize(h: Hypergraph) -> Hypergraph:
    """Deduplicated, inclusion-minimal edge family.

    The transversal hypergraph depends only on the minimal edges, so
    this is transversal-preserving. Output edge order is lexicographic.
    """
    return Hypergraph(h.vertex_count,
                      sorted_sets(h.vertex_count, _minimize_masks(h.edge_masks)))


def is_transversal(h: Hypergraph, s: IndexSet) -> bool:
    """True iff `s` intersects every edge (vacuously true when edgeless)."""
    if s.universe != h.vertex_count:
        raise ValueError(f"vertex universe {s.universe} != {h.vertex_count}")
    mask = s.mask
    return all(mask & e for e in h.edge_masks) if h.edges else True


def minimal_transversals(h: Hypergraph) -> list[IndexSet]:
    """All inclusion-minimal transversals, lexicographic by member indices.

    Returns ``[{}]`` for an edgeless hypergraph and ``[]`` when some edge
    is empty (nothing can intersect it).
    """
    return sorted_sets(h.vertex_count,
                       _transversal_masks(h.vertex_count, h.edge_masks))


def brute_force_transversals(h: Hypergraph) -> list[IndexSet]:
    """Oracle: scan all vertex subsets, keep the minimal transversals.

    Same contract as :func:`minimal_transversals`; guarded to small
    vertex counts.
    """
    n = h.vertex_count
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_VERTEX_LIMIT} vertices, got {n}")
    edges = h.edge_masks
    return sorted_sets(n, _scan_subsets(
        n, lambda s, kept: all(s & e for e in edges)
        and not any(k & s == k for k in kept)))


def _scan_subsets(n: int, keep: Callable[[int, list[int]], bool]) -> list[int]:
    """Oracle walk over all ``2**n`` subsets in ascending cardinality:
    subset ``s`` is kept when ``keep(s, kept)`` holds for the masks kept
    before it. Shared by the brute-force oracles, which must not rely on
    the engine they check.
    """
    kept: list[int] = []
    for s in sorted(range(1 << n), key=int.bit_count):
        if keep(s, kept):
            kept.append(s)
    return kept


# -- mask-level core ---------------------------------------------------------

def _minimize_masks(masks: Sequence[int]) -> list[int]:
    """Deduplicated inclusion-minimal subfamily."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def _transversal_masks(n: int, edge_masks: Sequence[int]) -> list[int]:
    """Minimal-transversal masks by MMCS (Murakami & Uno, Discrete Appl.
    Math. 170, 2014), in no fixed order (callers that need one sort at
    the boundary).

    A depth-first search grows a set S that stays minimal: every member
    keeps a crit set, the edges that it alone hits in S. Adding vertex v
    leaves member u without one exactly when v lies in every edge of
    crit(u), the meet of crit(u); such a vertex is blocked. Crit sets
    only shrink as S grows, so a blocked vertex stays blocked in the
    whole subtree and leaves the candidates for good. A child recomputes
    the meet of each member whose crit set lost an edge, and of the new
    member. A node branches on the uncovered edge with the fewest
    candidates; the child for its i-th candidate adds that vertex and
    drops the later ones from the candidates, so each minimal
    transversal is reached once. Every child is minimal by
    construction: one that covers the last uncovered edge is emitted at
    once, and a node with an uncovered edge that has no candidate left
    is a dead end and makes no child. A child that leaves exactly one
    edge uncovered is not pushed either: its candidates in that edge,
    less the vertices blocked by the new member and by each member
    whose crit set lost an edge, each complete a minimal transversal,
    and they are emitted in place, exactly as popping the child would
    emit them. Edges are indices into the minimized family, so
    ``occ[v]``, the crit sets and the uncovered edges are all bitsets
    over edge indices. The search uses an
    explicit stack: S can hold more vertices than the recursion limit.
    """
    edges = _minimize_masks(edge_masks)
    if not edges:
        return [0]
    if len(edges) == 1:  # an empty edge minimizes the family to [0]
        return [1 << v for v in _bits(edges[0])]
    occ = [0] * n
    for i, e in enumerate(edges):
        for v in _bits(e):
            occ[v] |= 1 << i
    out: list[int] = []
    # (S mask, crit sets of S's members, uncovered edges, candidates);
    # no candidate is blocked
    stack = [(0, [], (1 << len(edges)) - 1, (1 << n) - 1)]
    while stack:
        s, crit, uncov, cand = stack.pop()
        fewest = n + 1
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            e = edges[low.bit_length() - 1] & cand
            c = e.bit_count()
            if c < fewest:
                fewest, branch = c, e
                if c <= 1:
                    break
        # a dead end (an uncovered edge without candidates) branches on
        # nothing
        cand &= ~branch
        while branch:
            vbit = branch & -branch
            branch ^= vbit
            ov = occ[vbit.bit_length() - 1]
            left = uncov & ~ov
            if not left:
                out.append(s | vbit)
            elif not left & (left - 1):
                # one uncovered edge left: its unblocked candidates each
                # complete a minimal transversal, as the child would
                # find when popped
                free = cand & edges[left.bit_length() - 1]
                for c in crit:
                    lost = c & ov
                    if lost:
                        free &= ~_meet(edges, c ^ lost, free)
                free &= ~_meet(edges, ov & uncov, free)
                t = s | vbit
                while free:
                    w = free & -free
                    free ^= w
                    out.append(t | w)
            else:
                child = []
                free = cand
                for c in crit:
                    lost = c & ov
                    if lost:
                        c ^= lost
                        free &= ~_meet(edges, c, free)
                    child.append(c)
                c = ov & uncov
                child.append(c)
                free &= ~_meet(edges, c, free)
                stack.append((s | vbit, child, left, free))
            cand |= vbit
    return out


def _meet(edges: list[int], crit: int, within: int) -> int:
    """The vertices of `within` that lie in every edge indexed by `crit`."""
    while crit and within:
        low = crit & -crit
        crit ^= low
        within &= edges[low.bit_length() - 1]
    return within


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
