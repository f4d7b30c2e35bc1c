"""Hypergraphs over an attribute universe and minimal-transversal enumeration.

The enumerator is MMCS (Murakami & Uno, 2014): a depth-first search
that keeps the chosen set minimal through per-member crit sets and
holds no intermediate family of transversals. It takes an edge family
that the caller has minimized (``_minimize_masks``, or
``bases._premise_edges`` for a whole context) and records each
completed transversal in a pair, the set so far and the vertices that
each complete it. So the kernel returns a compressed family: those
pairs, and the one single that no pair can hold, the edgeless
hypergraph's ``{}``. ``_transversal_array`` expands compressed families
into one numpy array, peeling the lowest candidate off every pair at
once, in the dtype of ``sets.mask_dtype`` (``uint64`` up to 64
vertices, Python ints above). ``bases.premise_counts`` expands a whole
context's families at once, ``bases.proper_premise_base`` one
attribute's family at a time and merges the arrays, and the other
callers expand one family and sort its ``tolist()`` at the boundary
(``sets.sorted_sets``). Inner loops work on raw bitmasks and return
families in no fixed order.

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

import numpy as np

from .sets import IndexSet, mask_dtype, sorted_sets

# a compressed transversal family: (singles, prefixes, frees), as
# ``_transversal_masks`` returns it
Family = tuple[list[int], list[int], list[int]]


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
    n = h.vertex_count
    family = _transversal_masks(n, _minimize_masks(h.edge_masks))
    return sorted_sets(n, _transversal_array(n, [family]).tolist())


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


def _transversal_masks(n: int, edges: Sequence[int]) -> Family:
    """Minimal-transversal masks by MMCS (Murakami & Uno, Discrete Appl.
    Math. 170, 2014) of the minimized edges `edges` (``_minimize_masks``:
    no repeat, no edge inside another), as a compressed family
    ``(singles, prefixes, frees)``: the singles, plus ``t | w`` for each
    pair ``(t, f)`` of ``zip(prefixes, frees)`` and each bit ``w`` of
    ``f`` (never 0). The only single is the edgeless hypergraph's ``0``.
    No mask is repeated and none is in a fixed order;
    ``_transversal_array`` expands the family, and callers that need an
    order sort at the boundary.

    A depth-first search grows a set S that stays minimal: every member
    keeps a crit set, the edges that it alone hits in S. Adding vertex v
    leaves member u without one exactly when v lies in every edge of
    crit(u), the meet of crit(u); such a vertex is blocked. Crit sets
    only shrink as S grows, so a blocked vertex stays blocked in the
    whole subtree and leaves the candidates for good. A node branches on
    the uncovered edge with the fewest candidates; the child for its
    i-th candidate adds that vertex and drops the later ones from the
    candidates, so each minimal transversal is reached once. Every child
    is minimal by construction, and a node with an uncovered edge that
    has no candidate left is a dead end. The scan for the branch edge
    also meets the uncovered edges: the branch vertices in all of them
    complete S and are recorded, before any child, as one pair (S, those
    vertices). Each would be blocked in every other child, so they need
    no child and no place in a later child's candidates. Every other
    child is built by one update: its crit sets, and its candidates less
    the meet of the new member's crit set and of each crit set that lost
    an edge. Crit sets recur across the search, so each one's meet is
    computed once per call. A child that leaves one edge uncovered
    starts that update from its candidates in that edge; it is not
    pushed but recorded as the pair (its set, its unblocked candidates
    there), exactly as popping it would record them. Edges are indices
    into `edges`, so ``occ[v]``, the crit sets and the uncovered edges
    are bitsets over edge indices. The search uses an explicit stack: S
    can hold more vertices than the recursion limit.
    """
    if not edges:
        return [0], [], []
    occ = [0] * n
    for i, e in enumerate(edges):
        while e:
            low = e & -e
            e ^= low
            occ[low.bit_length() - 1] |= 1 << i
    prefixes: list[int] = []
    frees: list[int] = []
    meets: dict[int, int] = {}  # crit set -> its meet, see _meet
    # (S mask, crit sets of S's members, uncovered edges, candidates);
    # no candidate is blocked
    stack = [(0, [], (1 << len(edges)) - 1, (1 << n) - 1)]
    while stack:
        s, crit, uncov, cand = stack.pop()
        fewest, cover = n + 1, cand
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            e = edges[low.bit_length() - 1] & cand
            cover &= e
            c = e.bit_count()
            if c < fewest:
                fewest, branch = c, e
                if not c:
                    break
        # a dead end (an uncovered edge without candidates) stops the
        # scan and branches on nothing
        cand &= ~branch
        done = branch & cover
        if done:  # each completes S
            prefixes.append(s)
            frees.append(done)
            branch ^= done
        while branch:
            vbit = branch & -branch
            branch ^= vbit
            ov = occ[vbit.bit_length() - 1]
            left = uncov & ~ov
            # one edge left: only the child's candidates in it count
            last = not left & (left - 1)
            free = cand & edges[left.bit_length() - 1] if last else cand
            child = []
            for c in crit:
                lost = c & ov
                if lost:
                    c ^= lost
                    free &= ~(meets.get(c) or _meet(meets, edges, c))
                child.append(c)
            c = ov & uncov
            child.append(c)
            free &= ~(meets.get(c) or _meet(meets, edges, c))
            if not last:
                stack.append((s | vbit, child, left, free))
            elif free:  # each free candidate completes the child
                prefixes.append(s | vbit)
                frees.append(free)
            cand |= vbit
    return [], prefixes, frees


def _meet(meets: dict[int, int], edges: Sequence[int], crit: int) -> int:
    """The vertices in every edge indexed by `crit`, stored in `meets`
    under `crit`. A crit set is never empty and its meet holds the
    member it belongs to, so a stored meet is never 0."""
    meet, key = -1, crit
    while crit:
        low = crit & -crit
        crit ^= low
        meet &= edges[low.bit_length() - 1]
    meets[key] = meet
    return meet


def _transversal_array(n: int, families: Iterable[Family]) -> np.ndarray:
    """Every mask of the compressed families (``_transversal_masks``) as
    one numpy array, in no fixed order: ``uint64`` up to 64 vertices,
    Python ints in an ``object`` array above. Each family's lists become
    arrays as it arrives, so the ints of all the families are never held
    at once. The pairs are then expanded together, one round per bit of
    the fullest ``f``: each round emits ``t | w`` for the lowest bit
    ``w`` of every ``f`` at once and keeps the pairs with bits left."""
    dtype = mask_dtype(n)
    empty = np.empty(0, dtype)
    parts: tuple[list[np.ndarray], ...] = ([empty], [empty], [empty])
    for singles, prefixes, frees in families:
        if singles:
            parts[0].append(np.fromiter(singles, dtype, len(singles)))
        if frees:
            parts[1].append(np.fromiter(prefixes, dtype, len(frees)))
            parts[2].append(np.fromiter(frees, dtype, len(frees)))
    singles, prefixes, frees = map(np.concatenate, parts)
    out = [singles]
    while frees.size:
        rest = frees & (frees - 1)  # each f less its lowest bit
        out.append(prefixes | (frees ^ rest))
        keep = rest != 0
        prefixes, frees = prefixes[keep], rest[keep]
    return np.concatenate(out)
