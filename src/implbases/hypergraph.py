"""Hypergraphs over an attribute universe and minimal-transversal enumeration.

The enumerator is MMCS (Murakami & Uno, 2014): a depth-first search
that adds one vertex of an uncovered edge at a time, keeps the chosen
set minimal through per-member crit sets by never offering a vertex
that would empty one, and holds no intermediate family of
transversals. Every child is built by one update of its crit sets and
candidates; a child with one uncovered edge left starts from its
candidates in that edge and is finished in place, one minimal
transversal per unblocked candidate, so the search pushes no node for
it. Inner loops work on raw bitmasks and return families in no fixed
order; the public functions sort at the boundary (``sets.sorted_sets``).

A ``Hypergraph`` is a frozen slotted dataclass over ``IndexSet`` edges,
made at the API boundary only.

Degenerate inputs are distinguished deliberately: a hypergraph with no
edges has the single (vacuous) minimal transversal ``{}``, while a
hypergraph containing an empty edge has none at all.

The test suite checks the enumerator against a brute-force scan of all
vertex subsets (``tests/oracles.py``), which shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .sets import IndexSet, sorted_sets


@dataclass(frozen=True, slots=True, repr=False)
class Hypergraph:
    """Finite edge family over vertices ``0..vertex_count-1``: a frozen
    slotted dataclass, equal and hashed by (vertex_count, edges). The
    edges, any iterable of index sets, are kept as a tuple."""

    vertex_count: int
    edges: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        edges, n = tuple(self.edges), self.vertex_count
        for e in edges:
            if e.universe != n:
                raise ValueError(
                    f"edge universe {e.universe} != vertex count {n}")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_masks(cls, vertex_count: int, masks: Iterable[int]) -> "Hypergraph":
        return cls(vertex_count,
                   (IndexSet.from_mask(vertex_count, m) for m in masks))

    @property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(e.mask for e in self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph({self.vertex_count}, {len(self.edges)} edges)"


def normalize(h: Hypergraph) -> Hypergraph:
    """Deduplicated, inclusion-minimal edge family.

    The transversal hypergraph depends only on the minimal edges, so
    this is transversal-preserving. Output edge order is lexicographic.
    """
    return Hypergraph(h.vertex_count,
                      sorted_sets(h.vertex_count, _minimize_masks(h.edge_masks)))


def minimal_transversals(h: Hypergraph) -> list[IndexSet]:
    """All inclusion-minimal transversals, lexicographic by member indices.

    Returns ``[{}]`` for an edgeless hypergraph and ``[]`` when some edge
    is empty (nothing can intersect it).
    """
    return sorted_sets(h.vertex_count,
                       _transversal_masks(h.vertex_count, h.edge_masks))


# -- mask-level core ---------------------------------------------------------

def _minimize_masks(masks: Sequence[int]) -> list[int]:
    """Deduplicated inclusion-minimal subfamily."""
    ordered = sorted(set(masks))
    ordered.sort(key=int.bit_count)  # stable: by size, then by mask
    kept: list[int] = []
    for m in ordered:
        for k in kept:
            if k & m == k:
                break
        else:
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
    whole subtree and leaves the candidates for good. A node branches on
    the uncovered edge with the fewest candidates; the child for its
    i-th candidate adds that vertex and drops the later ones from the
    candidates, so each minimal transversal is reached once. Every child
    is minimal by construction: one that covers the last uncovered edge
    is emitted at once, and a node with an uncovered edge that has no
    candidate left is a dead end. Every other child is built by one
    update: its crit sets, and its candidates less the vertices in the
    meet of the new member's crit set or of a crit set that lost an
    edge. A child that leaves one edge uncovered starts that update from
    its candidates in that edge; it is not pushed but emits one minimal
    transversal per unblocked candidate, exactly as popping it would.
    Edges are indices into the minimized family, so ``occ[v]``, the crit
    sets and the uncovered edges are bitsets over edge indices. The
    search uses an explicit stack: S can hold more vertices than the
    recursion limit.
    """
    edges = _minimize_masks(edge_masks)
    if not edges:
        return [0]
    occ = [0] * n
    for i, e in enumerate(edges):
        while e:
            low = e & -e
            e ^= low
            occ[low.bit_length() - 1] |= 1 << i
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
            else:
                # one edge left: only the child's candidates in it count
                last = not left & (left - 1)
                free = cand & edges[left.bit_length() - 1] if last else cand
                child = []
                for c in crit:
                    lost = c & ov
                    if lost:
                        c ^= lost
                        free &= ~_meet(edges, c, free)
                    child.append(c)
                c = ov & uncov
                child.append(c)
                free &= ~_meet(edges, c, free)
                t = s | vbit
                if last:  # each free candidate completes the child
                    while free:
                        w = free & -free
                        free ^= w
                        out.append(t | w)
                else:
                    stack.append((t, child, left, free))
            cand |= vbit
    return out


def _meet(edges: list[int], crit: int, within: int) -> int:
    """The vertices of `within` that lie in every edge indexed by `crit`."""
    while crit and within:
        low = crit & -crit
        crit ^= low
        within &= edges[low.bit_length() - 1]
    return within
