"""Implication bases of a formal context.

Two bases are built here. The base of proper premises (canonical direct
base) comes from per-attribute hypergraph dualization: the proper
premises of attribute `a` are the minimal transversals of the hypergraph
whose edges are the complements of the rows missing `a`, with the
trivial transversal {a} removed. One per-attribute step,
``_attribute_premises``, dualizes `a` and drops {a}; ``proper_premises_of``
sorts its result, and the base and ``premise_counts`` each call it for
every attribute in turn. The base merges the lists into a premise ->
conclusion map and orders the premise masks once, on
``sets.mask_order_key``, a string that orders masks as their member
tuples do without building them. ``premise_counts``, the sweep's
count-only consumer, keeps each list as a numpy array and counts the
distinct premises in one sort of the arrays joined: the pairs are its
length. The Duquenne-Guigues (stem) base is enumerated in lectic order
by one Next-Closure loop over the sets closed under strict application
of the implications found so far. The strict closure reads the
implications through a per-attribute index of bitsets (one Python int
per attribute, one bit per implication), so a candidate's first round
is a few big-int operations whatever the number of implications; each
round fires every applicable implication, and the candidate stops after
the first round that fails the lectic test. Its premises are exactly the
pseudo-intents.

An ``ImplicationBase``, a frozen slotted dataclass like ``Implication``,
holds (premise mask, conclusion mask) pairs. Its one constructor takes
those pairs and checks the invariants of ``Implication`` and of the base
on the masks, with their texts; copies and unpickled bases go through it
too; ``Implication`` objects are made only when a caller iterates the
base or asks for ``implications``, and ``format_implications`` reads the
masks. ``format_implications`` computes each premise's member tuple once
and each distinct conclusion's once, and sorts the text lines on them.

The test suite checks both constructions against brute-force oracles
(``tests/oracles.py``): a scan of all attribute subsets for the proper
premises, and the recursive definition of a pseudo-intent for the stem
base. Past the oracles' reach, the stem base must equal, order included,
a reference Next-Closure there that scans every implication found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .context import FormalContext
from .hypergraph import Hypergraph, _transversal_masks
from .sets import (AttributeSet, IndexSet, mask_members, mask_order_key,
                   sorted_sets)


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


@dataclass(frozen=True, slots=True, repr=False, init=False)
class ImplicationBase:
    """Ordered implication collection tagged with its construction.

    Held as one tuple of (premise mask, conclusion mask) pairs: the
    ``Implication`` objects of ``implications`` and of iteration are
    made when a caller asks for them. A frozen slotted dataclass, equal
    and hashed by (pairs, kind, n_attributes); copied and unpickled
    through its checked constructor.
    """

    _pairs: tuple[tuple[int, int], ...]
    kind: str
    n_attributes: int

    def __init__(self, pairs: Iterable[tuple[int, int]], kind: str,
                 n_attributes: int) -> None:
        """The base of the (premise mask, conclusion mask) pairs, in
        order. Refuses an unknown kind; then what ``Implication``
        refuses, with its texts: a mask with bits outside the universe,
        an empty conclusion, a conclusion that meets its premise; then a
        duplicate implication."""
        pairs = tuple(pairs)
        if kind not in ("proper", "stem"):
            raise ValueError(f"unknown base kind {kind!r}")
        premises, conclusions = zip(*pairs) if pairs else ((), ())
        used = reduce(or_, premises, 0) | reduce(or_, conclusions, 0)
        if (used < 0 or used >> n_attributes or 0 in conclusions
                or any(map(and_, premises, conclusions))):
            for p, c in pairs:  # the first fault, as the wrappers find it
                Implication(IndexSet.from_mask(n_attributes, p),
                            IndexSet.from_mask(n_attributes, c))
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate implication")
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_attributes", n_attributes)

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

    def __reduce__(self):  # copy and pickle through the checked constructor
        return (ImplicationBase, (self._pairs, self.kind, self.n_attributes))

    def __repr__(self) -> str:
        return (f"ImplicationBase(implications={self.implications!r}, "
                f"kind={self.kind!r}, n_attributes={self.n_attributes!r})")


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


def _attribute_premises(rows: Sequence[int], n: int,
                        a: int) -> tuple[list[int], int]:
    """Attribute `a`'s proper-premise masks, in no fixed order, and its
    minimal-transversal count, over the row masks `rows` of an
    `n`-attribute context: the one place a context's attribute is
    dualized and {a} is dropped. A full column keeps its one transversal
    {}: `a` follows from nothing. Otherwise {a} is a minimal transversal
    (it lies in every edge) and no other one contains `a`."""
    masks = _transversal_masks(n, _attribute_edges(rows, n, a))
    count = len(masks)
    if masks != [0]:
        masks.remove(1 << a)
    return masks, count


def proper_premises_of(ctx: FormalContext, a: int) -> list[AttributeSet]:
    """Proper premises of `a`, sorted; [{}] when column `a` is full."""
    n = ctx.n_attributes
    return sorted_sets(n, _attribute_premises(ctx.row_masks, n, a)[0])


def premise_counts(ctx: FormalContext) -> tuple[list[int], int, int]:
    """Each attribute's minimal-transversal count, the number of
    premise -> attribute pairs and the number of distinct premises of
    the proper-premise base, without building the base.

    Each attribute's premise list becomes a numpy array as it is
    made, so its Python ints are freed at once: ``uint64`` up to 64
    attributes, Python ints in an ``object`` array above. The pairs are
    the length of the arrays joined. Sorted in place, that array holds
    one distinct premise more than it has places where a value differs
    from the one before it, or none when it is empty.
    """
    n = ctx.n_attributes
    dtype = np.uint64 if n <= 64 else object
    counts, arrays = [], [np.empty(0, dtype)]
    for a in range(n):
        masks, count = _attribute_premises(ctx.row_masks, n, a)
        counts.append(count)
        arrays.append(np.fromiter(masks, dtype, len(masks)))
    premises = np.concatenate(arrays)
    premises.sort()
    distinct = (1 + int(np.count_nonzero(premises[1:] != premises[:-1]))
                if premises.size else 0)
    return counts, premises.size, distinct


def proper_premise_base(ctx: FormalContext) -> ImplicationBase:
    """Union over attributes of their proper premises, merged at mask
    level so that implications sharing a premise aggregate conclusions.
    """
    n = ctx.n_attributes
    merged: dict[int, int] = {}  # premise mask -> conclusion mask
    for a in range(n):
        abit = 1 << a
        for p in _attribute_premises(ctx.row_masks, n, a)[0]:
            merged[p] = merged.get(p, 0) | abit
    premises = sorted(merged, key=mask_order_key)
    return ImplicationBase(
        zip(premises, map(merged.__getitem__, premises)), "proper", n)


# -- stem base ------------------------------------------------------------------


def stem_base(ctx: FormalContext) -> ImplicationBase:
    """Duquenne-Guigues base: implications P -> P''\\P over the
    pseudo-intents P, discovered in lectic order.

    Sets closed under strict application of the pseudo-intent
    implications found so far are exactly the intents plus the
    pseudo-intents; the enumeration walks them with Next-Closure and
    keeps the non-closed ones. Attribute 0 is the most significant
    position. The candidate at position i is the strict closure of
    (current below i) + {i}.

    The implications found so far are indexed by attribute as bitsets
    over their positions in ``found``: ``outside[j]`` holds those whose
    premise contains j, ``adds[j]`` those whose closure adds j to the
    premise. P -> P'' can fire on a set X iff no absent attribute of X
    is in P and some absent attribute is in P''. Strictness (P -> P''
    never fires on X = P) needs no check: the closure only runs on sets
    that pass the lectic test, which come after ``current`` in lectic
    order and so after every pseudo-intent found. A candidate lacks the
    absent attributes of ``current`` below i and every attribute above
    i, so its first round ORs one prefix, made once per closed set, and
    one suffix, updated when an implication is appended. Each round
    fires every applicable implication at once; strict closure is
    monotone, so the fixpoint does not depend on the firing order. The
    candidate is dropped after the first round that adds an attribute
    more significant than i: the lectic test is the closure's stop rule.
    """
    n = ctx.n_attributes
    full = (1 << n) - 1
    found: list[tuple[int, int]] = []  # (pseudo-intent, its closure)
    outside = [0] * n  # implications whose premise contains j
    adds = [0] * n  # implications whose closure minus premise contains j
    suf_out = [0] * n  # OR of outside[j] over j > i
    suf_adds = [0] * n  # OR of adds[j] over j > i
    pre_out = [0] * n  # OR of outside[j] over j < i absent from current
    pre_adds = [0] * n  # OR of adds[j] over j < i absent from current
    current = 0  # the strict closure of the empty set under no implications
    while True:
        closed = _closure_mask(ctx, current)
        if closed != current:
            bit = 1 << len(found)
            found.append((current, closed))
            for members, at, above in ((current, outside, suf_out),
                                       (closed & ~current, adds, suf_adds)):
                for i in range(members.bit_length() - 1):
                    above[i] |= bit
                while members:
                    low = members & -members
                    at[low.bit_length() - 1] |= bit
                    members ^= low
        if current == full:
            break
        acc_out = acc_adds = 0
        absent = full & ~current
        while absent:
            low = absent & -absent
            j = low.bit_length() - 1
            pre_out[j] = acc_out
            pre_adds[j] = acc_adds
            acc_out |= outside[j]
            acc_adds |= adds[j]
            absent ^= low
        # from the least significant absent position up; at the most
        # significant one nothing is forbidden, so some i is accepted
        absent = full & ~current
        while True:
            i = absent.bit_length() - 1
            ibit = 1 << i
            absent ^= ibit
            forbidden = (ibit - 1) & ~current
            mask = (current & (ibit - 1)) | ibit
            fire = (pre_adds[i] | suf_adds[i]) & ~(pre_out[i] | suf_out[i])
            while fire:
                while fire:
                    low = fire & -fire
                    mask |= found[low.bit_length() - 1][1]
                    fire ^= low
                if mask & forbidden:
                    break
                acc_out = acc_adds = 0
                lacks = full & ~mask
                while lacks:
                    low = lacks & -lacks
                    j = low.bit_length() - 1
                    acc_out |= outside[j]
                    acc_adds |= adds[j]
                    lacks ^= low
                fire = acc_adds & ~acc_out
            if not mask & forbidden:
                current = mask
                break
    return ImplicationBase([(p, c & ~p) for p, c in found], "stem", n)


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
