"""Implication bases of a formal context.

Two bases are built here. The base of proper premises (canonical direct
base) comes from per-attribute hypergraph dualization: the proper
premises of attribute `a` are the minimal transversals other than {a}
of the hypergraph whose edges are the complements of the rows missing
`a`; ``proper_premises_of`` takes them so, through the public
``attribute_hypergraph`` and ``minimal_transversals``. Every such edge
holds `a`, so they are exactly the minimal transversals of the same
edges less `a`. ``_premise_edges`` builds those edges for every
attribute in one pass over the distinct row complements, and the
kernel (``hypergraph``) dualizes each list into a compressed family. The
base works on numpy arrays of masks (``sets.mask_dtype``): it expands
each attribute's family, puts the attribute's bit beside each premise,
sorts all of them by mask, ORs each run of equal premises' bits into
its conclusion (``np.bitwise_or.reduceat``) and orders the distinct
premises by ``sets.member_ranks``, the one key that orders masks as
their member tuples do without building them. ``premise_counts``, the
sweep's count-only consumer, reads each attribute's count off its
compressed family, expands the whole context's families into one numpy
array and counts the distinct premises in one sort of it: the pairs are
its length. The Duquenne-Guigues (stem) base is enumerated in lectic order
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
base or asks for ``implications``, and the renderers read the masks as
two numpy arrays (``ImplicationBase.mask_arrays``).
``format_implications`` orders the lines by the premises' and the
conclusions' ranks in one ``np.lexsort`` and reads the names off
per-byte tables (``sets.member_texts``), so that no member tuple is
built and no tuple is sorted; ``cli`` renders the JSON from the same
kind of tables.

The test suite checks both constructions against brute-force oracles
(``tests/oracles.py``): a scan of all attribute subsets for the proper
premises, and the recursive definition of a pseudo-intent for the stem
base. Past the oracles' reach, the stem base must equal, order included,
a reference Next-Closure there that scans every implication found so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, Sequence

import numpy as np

from .context import FormalContext
from .hypergraph import (Family, Hypergraph, _transversal_array,
                         _transversal_masks, minimal_transversals)
from .sets import (AttributeSet, IndexSet, mask_dtype, member_ranks,
                   member_tables, member_texts)


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

    def mask_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The premise masks and the conclusion masks, in order, as two
        numpy arrays of ``sets.mask_dtype``."""
        dtype, count = mask_dtype(self.n_attributes), len(self._pairs)
        return tuple(np.fromiter(map(itemgetter(side), self._pairs), dtype,
                                 count) for side in (0, 1))

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


def _premise_edges(rows: Sequence[int], n: int) -> list[list[int]]:
    """Every attribute's minimized edges less the attribute, built in one
    pass over the row masks `rows` of an `n`-attribute context: list `a`
    is ``_minimize_masks`` of ``attribute_hypergraph``'s edges for `a`
    with bit `a` cleared, order included. The distinct row complements
    are taken in that order (by size, then by mask); each is a minimal
    edge of the attributes it holds that no smaller kept complement in
    it holds, kept if that leaves any. Only kept ones need comparing: a
    smaller complement that holds `a` contains a minimal edge of `a`."""
    full = (1 << n) - 1
    ordered = sorted({full & ~row for row in rows})
    ordered.sort(key=int.bit_count)
    edges: list[list[int]] = [[] for _ in range(n)]
    kept: list[int] = []
    for c in ordered:
        attrs = c
        for k in kept:
            if k & c == k:
                attrs &= ~k
                if not attrs:
                    break
        if attrs:
            kept.append(c)
            while attrs:
                low = attrs & -attrs
                attrs ^= low
                edges[low.bit_length() - 1].append(c ^ low)
    return edges


def attribute_hypergraph(ctx: FormalContext, a: int) -> Hypergraph:
    """One edge (attribute complement of the object's row) per object
    missing `a`; edgeless when column `a` is full. Every edge contains
    `a`. Duplicate edges are preserved; dualization normalizes anyway.
    """
    n = ctx.n_attributes
    if not 0 <= a < n:
        raise ValueError(f"attribute {a} outside universe {n}")
    full = (1 << n) - 1
    return Hypergraph.from_masks(
        n, (full & ~row for row in ctx.row_masks if not (row >> a & 1)))


def proper_premises_of(ctx: FormalContext, a: int) -> list[AttributeSet]:
    """Proper premises of `a`: the minimal transversals of its hypergraph
    other than {a}, sorted; [{}] when column `a` is full."""
    return [s for s in minimal_transversals(attribute_hypergraph(ctx, a))
            if s.mask != 1 << a]


def premise_counts(ctx: FormalContext) -> tuple[list[int], int, int]:
    """Each attribute's minimal-transversal count, the number of
    premise -> attribute pairs and the number of distinct premises of
    the proper-premise base, without building the base. It refuses no
    size: ``--max-proper-attrs`` of ``compute`` and the sweep is the
    only guard.

    An attribute's count is its family's free bits plus one, for {a} or
    for a full column's {}. The families are expanded once for the whole
    context, by ``_transversal_array``, which turns each one into arrays
    as it is made. The pairs are the length of that array. Sorted in
    place, it holds one distinct premise more than it has places where a
    value differs from the one before it, or none when it is empty.
    """
    n = ctx.n_attributes
    counts: list[int] = []

    def families() -> Iterator[Family]:
        for edges in _premise_edges(ctx.row_masks, n):
            prefixes, frees = _transversal_masks(n, edges)
            counts.append(sum(map(int.bit_count, frees)) + 1)
            yield prefixes, frees

    premises = _transversal_array(n, families())
    premises.sort()
    distinct = (1 + int(np.count_nonzero(premises[1:] != premises[:-1]))
                if premises.size else 0)
    return counts, premises.size, distinct


def proper_premise_base(ctx: FormalContext) -> ImplicationBase:
    """Union over attributes of their proper premises, merged so that
    implications sharing a premise aggregate conclusions: each
    attribute's expanded premises, with its bit beside each, are sorted
    together by mask, each run of equal premises ORs its bits into one
    conclusion, and the distinct premises are put in member-tuple order.
    It refuses no size: ``--max-proper-attrs`` of ``compute`` and the
    sweep is the only guard.
    """
    n = ctx.n_attributes
    dtype = mask_dtype(n)
    parts = [_transversal_array(n, [_transversal_masks(n, edges)])
             for edges in _premise_edges(ctx.row_masks, n)]
    bits = np.repeat(np.array([1 << a for a in range(n)], dtype),
                     [part.size for part in parts])
    premises = np.concatenate([np.empty(0, dtype), *parts])
    del parts  # each array is dropped once used: a base's peak memory
    order = premises.argsort()
    premises, bits = premises[order], bits[order]
    del order
    starts = np.ones(premises.size, bool)
    starts[1:] = premises[1:] != premises[:-1]
    starts = np.flatnonzero(starts)
    premises = premises[starts]
    conclusions = np.bitwise_or.reduceat(bits, starts)
    order = member_ranks(premises, n).argsort()
    return ImplicationBase(zip(premises[order].tolist(),
                               conclusions[order].tolist()), "proper", n)


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
    """X'': the attributes common to every row that contains X (all
    attributes when no row does)."""
    out = (1 << ctx.n_attributes) - 1
    for row in ctx.row_masks:
        if row & attrs_mask == attrs_mask:
            out &= row
    return out


# -- text serialization ----------------------------------------------------------


def format_implications(base: ImplicationBase,
                        attribute_names: Sequence[str]) -> str:
    """Stable text form: one implication per line, members sorted by
    attribute index, lines sorted by (premise, conclusion) index tuples.
    An empty premise renders as a line starting with '->'.

    The lines are ordered by the premises' and then the conclusions'
    ``member_ranks``, and their names read off per-byte tables
    (``member_texts``) that join them with spaces, a conclusion's led
    by ' -> '. The text is built in place, to hold as few strings as
    the listing needs at once.
    """
    if not len(base):
        return ""
    n = base.n_attributes
    premises, conclusions = base.mask_arrays()
    order = np.lexsort((member_ranks(conclusions, n),
                        member_ranks(premises, n)))
    names = attribute_names[:n]
    spaced = [f" {a}" for a in names]
    lines = member_texts(premises[order], member_tables(spaced, names))
    rhs = member_texts(conclusions[order],
                       member_tables(spaced, [f" -> {a}" for a in names]))
    bare = lines == ""  # the empty premise, or one empty name
    lines += rhs
    lines[bare] = [text[1:] for text in rhs[bare]]
    return "\n".join([*lines.tolist(), ""])
