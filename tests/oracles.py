"""Reference implementations that the test suite checks the engine against.

The brute-force oracles scan every subset of a small universe and share
no code with the engine they check: minimal transversals, proper
premises and pseudo-intents. Past their reach, ``next_closure_stem``
enumerates the stem base by Next-Closure with a plain scan of the
implications found so far, the reference for the indexed strict closure
of ``stem_base``. The derivation operators of a context (its columns read
off the rows one attribute at a time), its closure and implication
validity are here as functions of a context, and so are the
single-pass and fixpoint closures under an implication base. Every
closure of a context here is ``closure`` below. The renderers of a base
have references that work one mask at a time on member tuples: the
proper-premise base merged through a premise -> conclusion dict, the
text listing sorted on member tuples, and the ``compute`` JSON as
``json.dumps`` of its whole payload. None of this is part of the
``implbases`` package; the program runs none of it.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from implbases import (FormalContext, Hypergraph, ImplicationBase, IndexSet,
                       proper_premises_of)
from implbases.sets import AttributeSet, mask_members, sorted_sets

BRUTE_FORCE_VERTEX_LIMIT = 20
BRUTE_FORCE_PREMISE_LIMIT = 15
BRUTE_FORCE_PSEUDO_INTENT_LIMIT = 12


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


# -- hypergraphs ---------------------------------------------------------------


def is_transversal(h: Hypergraph, s: IndexSet) -> bool:
    """True iff `s` intersects every edge (vacuously true when edgeless)."""
    if s.universe != h.vertex_count:
        raise ValueError(f"vertex universe {s.universe} != {h.vertex_count}")
    mask = s.mask
    return all(mask & e for e in h.edge_masks) if h.edges else True


def brute_force_transversals(h: Hypergraph) -> list[IndexSet]:
    """Oracle: scan all vertex subsets, keep the minimal transversals.

    Same contract as ``minimal_transversals``; guarded to small vertex
    counts.
    """
    n = h.vertex_count
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_VERTEX_LIMIT} vertices, got {n}")
    edges = h.edge_masks
    return sorted_sets(n, _scan_subsets(
        n, lambda s, kept: all(s & e for e in edges)
        and not any(k & s == k for k in kept)))


# -- derivation and closure of a context -----------------------------------------


def derive_objects(ctx: FormalContext, objs: IndexSet) -> AttributeSet:
    """Attributes shared by every object in `objs`.

    The empty object set derives to the full attribute set (empty
    quantification).
    """
    if objs.universe != ctx.n_objects:
        raise ValueError(
            f"object set universe {objs.universe} != {ctx.n_objects}")
    mask = (1 << ctx.n_attributes) - 1
    for o in objs:
        mask &= ctx.row_masks[o]
        if not mask:
            break
    return IndexSet.from_mask(ctx.n_attributes, mask)


def column_mask(ctx: FormalContext, a: int) -> int:
    """The objects having attribute `a`, read off the rows one at a time."""
    mask = 0
    for o, row in enumerate(ctx.row_masks):
        mask |= (row >> a & 1) << o
    return mask


def derive_attributes(ctx: FormalContext, attrs: AttributeSet) -> IndexSet:
    """Objects having every attribute in `attrs`; dual of derive_objects."""
    if attrs.universe != ctx.n_attributes:
        raise ValueError(
            f"attribute set universe {attrs.universe} != {ctx.n_attributes}")
    mask = (1 << ctx.n_objects) - 1
    for a in attrs:
        mask &= column_mask(ctx, a)
        if not mask:
            break
    return IndexSet.from_mask(ctx.n_objects, mask)


def closure(ctx: FormalContext, attrs: AttributeSet) -> AttributeSet:
    """Closure of an attribute set: derive twice.

    Extensive, monotone and idempotent.
    """
    return derive_objects(ctx, derive_attributes(ctx, attrs))


def implication_holds(ctx: FormalContext, premise: AttributeSet,
                      conclusion: AttributeSet) -> bool:
    """True iff premise' is contained in conclusion'."""
    return derive_attributes(ctx, premise).is_subset(
        derive_attributes(ctx, conclusion))


# -- implication bases -------------------------------------------------------------


def brute_force_proper_premises(ctx: FormalContext, a: int) -> list[AttributeSet]:
    """Oracle: scan all attribute subsets for the premise property (every
    row containing the subset contains `a`), keep the inclusion-minimal
    ones, drop {a}.
    """
    n = ctx.n_attributes
    if n > BRUTE_FORCE_PREMISE_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_PREMISE_LIMIT} attributes, got {n}")
    if not 0 <= a < n:
        raise ValueError(f"attribute {a} outside universe {n}")
    rows = ctx.row_masks
    kept = _scan_subsets(n, lambda s, kept: (
        all(row >> a & 1 for row in rows if row & s == s)
        and not any(k & s == k for k in kept)))
    return sorted_sets(n, (m for m in kept if m != 1 << a))


def brute_force_pseudo_intents(ctx: FormalContext) -> list[AttributeSet]:
    """Oracle: apply the recursive pseudo-intent definition to all
    attribute subsets in ascending cardinality.

    P is a pseudo-intent iff P is not closed and Q'' is a proper subset
    of P for every pseudo-intent Q properly inside P.
    """
    n = ctx.n_attributes
    if n > BRUTE_FORCE_PSEUDO_INTENT_LIMIT:
        raise ValueError(
            f"brute force limited to {BRUTE_FORCE_PSEUDO_INTENT_LIMIT} attributes, got {n}")
    closures: dict[int, int] = {}  # pseudo-intents found so far -> closure

    def pseudo(s: int, _found: list[int]) -> bool:
        closed = closure(ctx, IndexSet.from_mask(n, s)).mask
        if closed == s or not all(
                not (q != s and q & ~s == 0) or (qc != s and qc & ~s == 0)
                for q, qc in closures.items()):
            return False
        closures[s] = closed
        return True

    return sorted_sets(n, _scan_subsets(n, pseudo))


def next_closure_stem(ctx: FormalContext) -> list[tuple[int, int]]:
    """Reference: the stem base's (pseudo-intent mask, conclusion mask)
    pairs in lectic order, attribute 0 most significant, by Next-Closure
    over the sets closed under strict application of the implications
    found so far. Each candidate's strict closure scans every implication
    found so far, round after round, and stops at the first added
    attribute more significant than the candidate's position. No size
    guard: its cost grows with the intents, not with ``2**n``.
    """
    n = ctx.n_attributes
    full = (1 << n) - 1
    found: list[tuple[int, int]] = []  # (pseudo-intent, its closure)
    current = 0
    while True:
        closed = closure(ctx, IndexSet.from_mask(n, current)).mask
        if closed != current:
            found.append((current, closed))
        if current == full:
            break
        for i in range(n - 1, -1, -1):
            ibit = 1 << i
            if current & ibit:
                continue
            forbidden = (ibit - 1) & ~current
            mask = (current & (ibit - 1)) | ibit
            grew = True
            while grew and not mask & forbidden:
                grew = False
                for p, c in found:  # P -> P'' where P is a proper subset
                    if p != mask and p & ~mask == 0 and c & ~mask:
                        mask |= c
                        grew = True
                        if mask & forbidden:
                            break
            if not mask & forbidden:
                current = mask
                break
    return [(p, c & ~p) for p, c in found]


def close_once(base: ImplicationBase, x: AttributeSet) -> AttributeSet:
    """Single-pass closure: x plus the conclusions of all implications
    whose premise lies inside x."""
    mask = x.mask
    out = mask
    for p, c in base.mask_pairs():
        if p & ~mask == 0:
            out |= c
    return IndexSet.from_mask(x.universe, out)


def close_fixpoint(base: ImplicationBase, x: AttributeSet) -> AttributeSet:
    """Least fixpoint of close_once above x.

    Each productive round adds at least one attribute, so at most
    |universe| rounds run.
    """
    imps = base.mask_pairs()
    mask = x.mask
    changed = True
    while changed:
        changed = False
        for p, c in imps:
            if p & ~mask == 0 and c & ~mask:
                mask |= c
                changed = True
    return IndexSet.from_mask(x.universe, mask)


# -- rendering a base ----------------------------------------------------------------


def merged_proper_premise_base(ctx: FormalContext) -> ImplicationBase:
    """Reference: each attribute's proper premises (``proper_premises_of``)
    merged into a premise -> conclusion dict, the premises ordered by
    their member tuples."""
    n = ctx.n_attributes
    merged: dict[int, int] = {}
    for a in range(n):
        for premise in proper_premises_of(ctx, a):
            merged[premise.mask] = merged.get(premise.mask, 0) | 1 << a
    return ImplicationBase(
        [(p, merged[p]) for p in sorted(merged, key=mask_members)], "proper", n)


def listed_implications(base: ImplicationBase,
                        attribute_names: Sequence[str]) -> str:
    """Reference for ``format_implications``: one line per implication,
    names joined by spaces, lines sorted on (premise, conclusion) member
    tuples."""
    lines = []
    for premise, conclusion in sorted(
            (mask_members(p), mask_members(c)) for p, c in base.mask_pairs()):
        lhs, rhs = (" ".join(attribute_names[a] for a in side)
                    for side in (premise, conclusion))
        lines.append(f"{lhs} -> {rhs}" if lhs else f"-> {rhs}")
    return "".join(line + "\n" for line in lines)


def bases_json(ctx: FormalContext, results: dict) -> str:
    """Reference for ``compute --format json``: the json module's text
    of the whole payload, each base's implications in base order."""
    def names(mask: int) -> list[str]:
        return [ctx.attribute_names[a] for a in mask_members(mask)]

    payload = {"objects": ctx.n_objects, "attributes": ctx.n_attributes,
               "bases": {kind: {
                   "implications": [{"premise": names(p),
                                     "conclusion": names(c)}
                                    for p, c in base.mask_pairs()],
                   "implication_count": len(base),
                   "premise_count": len({p for p, _ in base.mask_pairs()}),
                   "pair_count": sum(c.bit_count()
                                     for _, c in base.mask_pairs())}
                   for kind, base in results.items()}}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
