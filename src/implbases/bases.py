"""Implication bases of a formal context.

Two bases are built here. The base of proper premises (canonical direct
base) comes from per-attribute hypergraph dualization: the proper
premises of attribute `a` are the minimal transversals of the hypergraph
whose edges are the complements of the rows missing `a`, with the
trivial transversal {a} removed. One per-attribute step dualizes `a`
and drops {a}; ``proper_premises_of`` sorts its result, and the
generator ``premises_by_attribute`` yields it for every attribute in
turn. The base merges the lists into a premise -> conclusion map and
orders the premise masks once, on ``sets.mask_order_key``, a string
that orders masks as their member tuples do without building them.
``premise_counts``, the sweep's count-only consumer, keeps just the
summed lengths and a set of the distinct premises. The Duquenne-Guigues
(stem) base is enumerated in lectic order by one Next-Closure loop over
the sets closed under strict application of the implications found so
far; a candidate's closure stops at the first attribute that fails the
lectic test. Its premises are exactly the pseudo-intents.

An ``ImplicationBase`` holds (premise mask, conclusion mask) pairs.
Both bases are built by ``ImplicationBase.from_mask_pairs``, which
checks the invariants of ``Implication`` and of the base on the masks,
with their texts; ``Implication`` objects are made only when a caller
iterates the base or asks for ``implications``, and the closures and
``format_implications`` read the masks. ``format_implications``
computes each premise's member tuple once and each distinct
conclusion's once, and sorts the text lines on them.

Both constructions have brute-force oracles used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, attrgetter, or_
from typing import Iterable, Iterator, Sequence

from .context import FormalContext
from .hypergraph import Hypergraph, _scan_subsets, _transversal_masks
from .sets import (AttributeSet, IndexSet, mask_members, mask_order_key,
                   sorted_sets)

BRUTE_FORCE_PREMISE_LIMIT = 15
BRUTE_FORCE_PSEUDO_INTENT_LIMIT = 12


@dataclass(frozen=True, slots=True)
class Implication:
    """Premise/conclusion pair over a shared attribute universe.

    Stored in reduced form: the conclusion excludes premise members and
    is nonempty.
    """

    premise: AttributeSet
    conclusion: AttributeSet

    def __post_init__(self) -> None:
        premise, conclusion = self.premise, self.conclusion
        if premise.universe != conclusion.universe:
            raise ValueError("premise and conclusion universes differ")
        if not conclusion.mask:
            raise ValueError("conclusion must be nonempty")
        if premise.mask & conclusion.mask:
            raise ValueError("conclusion must exclude premise members")

    def __repr__(self) -> str:
        p = " ".join(map(str, self.premise))
        c = " ".join(map(str, self.conclusion))
        return f"Implication({p or '∅'} -> {c})"


class ImplicationBase:
    """Ordered implication collection tagged with its construction.

    Held as one tuple of (premise mask, conclusion mask) pairs: the
    ``Implication`` objects of ``implications`` and of iteration are
    made when a caller asks for them. The constructor takes
    ``Implication``s; the bases of this module are built from their
    masks by ``from_mask_pairs``, which checks the same invariants with
    the same texts.
    """

    __slots__ = ("_pairs", "kind", "n_attributes")

    def __init__(self, implications: Iterable[Implication], kind: str,
                 n_attributes: int) -> None:
        implications = tuple(implications)
        _check_kind(kind)
        universes = set(map(attrgetter("premise.universe"), implications))
        if not universes <= {n_attributes}:
            raise ValueError("implication universe differs from base universe")
        self._init(tuple(map(attrgetter("premise.mask", "conclusion.mask"),
                             implications)), kind, n_attributes)

    @classmethod
    def from_mask_pairs(cls, pairs: Iterable[tuple[int, int]], kind: str,
                        n_attributes: int) -> "ImplicationBase":
        """The base of the (premise mask, conclusion mask) pairs, in
        order. Refuses what ``Implication`` and the constructor refuse,
        with their texts: a mask with bits outside the universe, an
        empty conclusion, a conclusion that meets its premise."""
        pairs = tuple(pairs)
        _check_kind(kind)
        premises, conclusions = zip(*pairs) if pairs else ((), ())
        used = reduce(or_, premises, 0) | reduce(or_, conclusions, 0)
        if (used < 0 or used >> n_attributes or 0 in conclusions
                or any(map(and_, premises, conclusions))):
            for p, c in pairs:  # the first fault, as the wrappers find it
                Implication(IndexSet.from_mask(n_attributes, p),
                            IndexSet.from_mask(n_attributes, c))
        base = cls.__new__(cls)
        base._init(pairs, kind, n_attributes)
        return base

    def _init(self, pairs: tuple[tuple[int, int], ...], kind: str,
              n_attributes: int) -> None:
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate implication")
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_attributes", n_attributes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ImplicationBase is immutable")

    @property
    def implications(self) -> tuple[Implication, ...]:
        """The implications, made from the masks on each access."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Implication]:
        n = self.n_attributes
        wrap = IndexSet.from_mask
        for p, c in self._pairs:
            yield Implication(wrap(n, p), wrap(n, c))

    def mask_pairs(self) -> list[tuple[int, int]]:
        """Each implication's (premise mask, conclusion mask), in order."""
        return list(self._pairs)

    @property
    def premise_count(self) -> int:
        """Distinct premises: the implication count in the bases this
        package builds, which the class itself does not enforce."""
        return len({p for p, _ in self._pairs})

    @property
    def pair_count(self) -> int:
        """Premise -> single-attribute pairs, i.e. summed conclusion sizes."""
        return sum(c.bit_count() for _, c in self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImplicationBase):
            return NotImplemented
        return ((self._pairs, self.kind, self.n_attributes)
                == (other._pairs, other.kind, other.n_attributes))

    def __hash__(self) -> int:
        return hash((self._pairs, self.kind, self.n_attributes))

    def __reduce__(self):  # copy and pickle through the checked classmethod
        return (ImplicationBase.from_mask_pairs,
                (self._pairs, self.kind, self.n_attributes))

    def __repr__(self) -> str:
        return (f"ImplicationBase(implications={self.implications!r}, "
                f"kind={self.kind!r}, n_attributes={self.n_attributes!r})")


def _check_kind(kind: str) -> None:
    if kind not in ("proper", "stem"):
        raise ValueError(f"unknown base kind {kind!r}")


# -- proper premises ----------------------------------------------------------


def _attribute_edges(rows: Sequence[int], n: int, a: int) -> list[int]:
    """Edge masks of attribute `a`'s hypergraph: the complement of every
    row that misses `a`, in row order."""
    if not 0 <= a < n:
        raise ValueError(f"attribute {a} outside universe {n}")
    full = (1 << n) - 1
    return [full & ~row for row in rows if not (row >> a & 1)]


def attribute_hypergraph(ctx: FormalContext, a: int) -> Hypergraph:
    """One edge (attribute complement of the object's row) per object
    missing `a`; edgeless when column `a` is full. Every edge contains
    `a`. Duplicate edges are preserved; dualization normalizes anyway.
    """
    n = ctx.n_attributes
    return Hypergraph.from_masks(n, _attribute_edges(ctx.row_masks, n, a))


def dualize_attribute(rows: Sequence[int], n: int, a: int) -> list[int]:
    """Minimal-transversal masks of attribute `a`'s hypergraph over the
    row masks `rows` of an `n`-attribute context, in no fixed order.

    This is the one place a context's attribute is dualized. The result
    holds the trivial transversal {a} whenever the column is not full;
    every other member is a proper premise of `a`.
    """
    return _transversal_masks(n, _attribute_edges(rows, n, a))


def _attribute_premises(rows: Sequence[int], n: int,
                        a: int) -> tuple[list[int], int]:
    """Attribute `a`'s proper-premise masks, in no fixed order, and its
    minimal-transversal count; the one place {a} is dropped. A full
    column keeps its one transversal {}: `a` follows from nothing.
    Otherwise {a} is a minimal transversal (it lies in every edge) and
    no other one contains `a`."""
    masks = dualize_attribute(rows, n, a)
    count = len(masks)
    if masks != [0]:
        masks.remove(1 << a)
    return masks, count


def proper_premises_of(ctx: FormalContext, a: int) -> list[AttributeSet]:
    """Proper premises of `a`, sorted; [{}] when column `a` is full."""
    n = ctx.n_attributes
    return sorted_sets(n, _attribute_premises(ctx.row_masks, n, a)[0])


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


def premises_by_attribute(ctx: FormalContext) -> Iterator[tuple[list[int], int]]:
    """Each attribute's proper-premise masks, in no fixed order, with its
    minimal-transversal count (the trivial {a} included), yielded one
    attribute at a time in attribute order.

    This is the one loop that dualizes every attribute of a context.
    It keeps only the list of the attribute at hand, so its consumers
    hold no more than what they build from the lists.
    """
    n = ctx.n_attributes
    for a in range(n):
        yield _attribute_premises(ctx.row_masks, n, a)


def premise_counts(ctx: FormalContext) -> tuple[list[int], int, int]:
    """Each attribute's minimal-transversal count, the number of
    premise -> attribute pairs and the number of distinct premises of
    the proper-premise base, without building the base: the pairs are
    the summed list lengths and the distinct premises fill one set, one
    C-level ``set.update`` per attribute.
    """
    counts = []
    pairs = 0
    premises: set[int] = set()
    for masks, count in premises_by_attribute(ctx):
        counts.append(count)
        pairs += len(masks)
        premises.update(masks)
    return counts, pairs, len(premises)


def proper_premise_base(ctx: FormalContext) -> ImplicationBase:
    """Union over attributes of their proper premises, merged at mask
    level so that implications sharing a premise aggregate conclusions.
    """
    n = ctx.n_attributes
    merged: dict[int, int] = {}  # premise mask -> conclusion mask
    for a, (masks, _) in enumerate(premises_by_attribute(ctx)):
        abit = 1 << a
        for p in masks:
            merged[p] = merged.get(p, 0) | abit
    premises = sorted(merged, key=mask_order_key)
    return ImplicationBase.from_mask_pairs(
        zip(premises, map(merged.__getitem__, premises)), "proper", n)


# -- implication-set closure ---------------------------------------------------


def _mask_pairs(base: ImplicationBase | Iterable[Implication]
                ) -> list[tuple[int, int]]:
    if isinstance(base, ImplicationBase):
        return base.mask_pairs()
    return [(imp.premise.mask, imp.conclusion.mask) for imp in base]


def close_once(base: ImplicationBase | Iterable[Implication],
               x: AttributeSet) -> AttributeSet:
    """Single-pass closure: x plus the conclusions of all implications
    whose premise lies inside x."""
    mask = x.mask
    out = mask
    for p, c in _mask_pairs(base):
        if p & ~mask == 0:
            out |= c
    return IndexSet.from_mask(x.universe, out)


def close_fixpoint(base: ImplicationBase | Iterable[Implication],
                   x: AttributeSet) -> AttributeSet:
    """Least fixpoint of close_once above x.

    Each productive round adds at least one attribute, so at most
    |universe| rounds run.
    """
    imps = _mask_pairs(base)
    mask = x.mask
    changed = True
    while changed:
        changed = False
        for p, c in imps:
            if p & ~mask == 0 and c & ~mask:
                mask |= c
                changed = True
    return IndexSet.from_mask(x.universe, mask)


# -- stem base ------------------------------------------------------------------


def stem_base(ctx: FormalContext) -> ImplicationBase:
    """Duquenne-Guigues base: implications P -> P''\\P over the
    pseudo-intents P, discovered in lectic order.

    Sets closed under strict application of the pseudo-intent
    implications found so far are exactly the intents plus the
    pseudo-intents; the enumeration walks them with Next-Closure and
    keeps the non-closed ones. Attribute 0 is the most significant
    position. The candidate at position i, the strict closure of
    (current below i) + {i}, is dropped at the first added attribute
    more significant than i: the lectic test is the closure's stop rule.
    """
    n = ctx.n_attributes
    full = (1 << n) - 1
    found: list[tuple[int, int]] = []  # (pseudo-intent, its closure)
    current = 0  # the strict closure of the empty set under no implications
    while True:
        closed = _closure_mask(ctx, current)
        if closed != current:
            found.append((current, closed))
        if current == full:
            break
        # at the least significant absent i nothing is forbidden, so
        # some position is accepted
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
    return ImplicationBase.from_mask_pairs(
        [(p, c & ~p) for p, c in found], "stem", n)


def _closure_mask(ctx: FormalContext, attrs_mask: int) -> int:
    obj_mask = (1 << ctx.n_objects) - 1
    cols = ctx.column_masks
    m = attrs_mask
    while m:
        low = m & -m
        obj_mask &= cols[low.bit_length() - 1]
        m ^= low
    out = (1 << ctx.n_attributes) - 1
    rows = ctx.row_masks
    while obj_mask:
        low = obj_mask & -obj_mask
        out &= rows[low.bit_length() - 1]
        obj_mask ^= low
    return out


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
    closure: dict[int, int] = {}  # pseudo-intents found so far -> closure

    def pseudo(s: int, _found: list[int]) -> bool:
        closed = _closure_mask(ctx, s)
        if closed == s or not all(
                not (q != s and q & ~s == 0) or (qc != s and qc & ~s == 0)
                for q, qc in closure.items()):
            return False
        closure[s] = closed
        return True

    return sorted_sets(n, _scan_subsets(n, pseudo))


# -- text serialization ----------------------------------------------------------


def format_implications(base: ImplicationBase,
                        attribute_names: Sequence[str]) -> str:
    """Stable text form: one implication per line, members sorted by
    attribute index, lines sorted by (premise, conclusion) index tuples.
    An empty premise renders as a line starting with '->'.

    Each premise's member tuple is computed once, and each distinct
    conclusion's member tuple and text once: conclusions repeat, premises
    seldom do.
    """
    pairs = base.mask_pairs()
    if not pairs:
        return ""
    name = attribute_names.__getitem__
    premises, conclusions = zip(*pairs)
    members = {c: mask_members(c) for c in set(conclusions)}
    texts = {c: " ".join(map(name, m)) for c, m in members.items()}
    lines = []
    for premise, _, c in sorted(zip(map(mask_members, premises),
                                    map(members.__getitem__, conclusions),
                                    conclusions)):
        lhs = " ".join(map(name, premise))
        lines.append(f"{lhs} -> {texts[c]}" if lhs else f"-> {texts[c]}")
    return "\n".join(lines) + "\n"
