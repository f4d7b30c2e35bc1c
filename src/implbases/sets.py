"""Fixed-universe index sets backed by integer bitmasks.

The package's public sets (attribute sets, hypergraph edges,
implication premises and conclusions) are these; inner loops run on the
raw masks and wrap results only at the API boundary. Elements are dense
integer indices ``0..universe-1``. An ``IndexSet`` is a frozen slotted
dataclass, like the package's other value types: equal, hashed,
pickled and copied by its fields.

Families of masks in bulk are numpy arrays of ``mask_dtype``: ``uint64``
up to 64 members, Python ints in an ``object`` array above. Their
canonical order, member-tuple order, has one key, ``member_ranks``,
which ``sorted_sets`` and the base's merge and listing all sort by; and
their names are rendered from per-byte lookup tables
(``member_tables``, ``member_texts``). Each works on both dtypes by one
code path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True, repr=False, init=False)
class IndexSet:
    """Subset of ``{0, ..., universe-1}``, held as the bitmask ``mask``;
    equal and hashed by (universe, mask).

    A subset test requires both operands to share the same universe
    size; mixing universes raises ``ValueError``.
    """

    universe: int
    mask: int

    def __init__(self, universe: int, members: Iterable[int] = ()) -> None:
        if universe < 0:
            raise ValueError(f"universe size must be >= 0, got {universe}")
        mask = 0
        for i in members:
            if not 0 <= i < universe:
                raise ValueError(f"member {i} outside universe of size {universe}")
            mask |= 1 << i
        _set_universe(self, universe)
        _set_mask(self, mask)

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "IndexSet":
        """Wrap a raw bitmask. Bits at or above `universe` are invalid."""
        if mask < 0 or mask >> universe:
            raise ValueError(f"mask {mask:#x} has bits outside universe {universe}")
        s = cls.__new__(cls)
        _set_universe(s, universe)
        _set_mask(s, mask)
        return s

    # -- queries ---------------------------------------------------------

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe and bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(mask_members(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    @property
    def members(self) -> tuple[int, ...]:
        """Ascending member indices; also the canonical sort key."""
        return mask_members(self.mask)

    def is_subset(self, other: "IndexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __repr__(self) -> str:
        return f"IndexSet({self.universe}, {{{', '.join(map(str, self))}}})"

    def _check(self, other: "IndexSet") -> None:
        if self.universe != other.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )


# the slots' own setters: they bypass the frozen ``__setattr__`` and
# cost less than ``object.__setattr__``, which looks the name up
_set_universe = IndexSet.universe.__set__
_set_mask = IndexSet.mask.__set__

# an attribute set is an index set over the attribute universe
AttributeSet = IndexSet


def mask_members(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of `mask`: the members of the
    set it codes, and so its canonical sort key. The one mask -> members
    loop."""
    if mask < 0:
        raise ValueError(f"mask {mask:#x} is negative")
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def mask_dtype(universe: int) -> type:
    """The numpy dtype of an array of masks over `universe`: ``uint64``
    up to 64 members, Python ints in an ``object`` array above. The one
    place the dtype is picked."""
    return np.uint64 if universe <= 64 else object


def member_ranks(masks: np.ndarray, universe: int) -> np.ndarray:
    """Each mask's place among all subsets of `universe` in member-tuple
    order (`mask_members`), in the masks' own dtype: the sum, over the
    non-members x below the largest member, of ``2**(universe-1-x)``,
    plus the member count. The empty set ranks 0 and the subsets fill
    ``0..2**universe - 1``, so masks sort by rank as their member tuples
    do, without a tuple built: the one sort key of a set family.

    Read off per-byte tables (``_rank_table``), from the top byte down,
    by shifts and sums only, so one code path serves both dtypes;
    ``above`` is 256 where some member lies in a higher byte. Four
    operations per byte, not per bit, run on the masks' dtype, which
    above 64 attributes are Python ints."""
    ranks = np.zeros(masks.shape, masks.dtype)
    count = np.zeros(masks.shape, np.intp)
    above = np.zeros(masks.shape, np.intp)
    for low in reversed(range(0, universe, 8)):
        width = min(8, universe - low)
        below, size = _rank_table(width, masks.dtype)
        byte = (masks >> low & 255).astype(np.intp)
        ranks += below[byte | above] << universe - low - width
        count += size[byte]
        above[byte != 0] = 256
    return ranks + count.astype(masks.dtype)


@functools.cache
def _rank_table(width: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-byte parts of ``member_ranks`` for a chunk of `width` bits,
    bit i weighing ``2**(width-1-i)``: entry b of the first array (of
    `dtype`) sums the weights of the non-members of byte b below its
    largest member, and entry 256 + b those of all its non-members (a
    member lies above the chunk); entry b of the second is b's member
    count."""
    below = [0] * 512
    for b in range(1 << width):
        for i in range(width):
            if not b >> i & 1:
                weight = 1 << width - 1 - i
                below[256 + b] += weight
                if b >> i + 1:  # a member of b lies above bit i
                    below[b] += weight
    return (np.array(below, dtype),
            np.array([b.bit_count() for b in range(256)], np.intp))


def sorted_sets(universe: int, masks: Iterable[int]) -> list[IndexSet]:
    """The canonical form of a set family: `masks` wrapped as index sets
    over `universe`, then put in member-tuple order (`member_ranks`).
    Mask-level kernels return families in no fixed order; their callers
    sort here, at the API boundary."""
    sets = [IndexSet.from_mask(universe, m) for m in masks]
    masks = np.array([s.mask for s in sets], mask_dtype(universe))
    ranks = member_ranks(masks, universe)
    return [sets[i] for i in ranks.argsort().tolist()]


def member_tables(pieces: Sequence[str],
                  firsts: Sequence[str]) -> list[np.ndarray]:
    """Lookup tables for ``member_texts``, one per 8 members: entry b of
    a table joins the pieces of the members of byte b of that chunk, in
    ascending order, and entry 256 + b the same with its lowest member's
    piece taken from `firsts`, for a mask that has no member below the
    chunk. Entries of bytes with no member are ''."""
    tables = []
    for low in range(0, len(pieces), 8):
        chunk, first = pieces[low:low + 8], firsts[low:low + 8]
        table = [""] * 512
        for b in range(1, 1 << len(chunk)):
            high = b.bit_length() - 1
            rest = b ^ 1 << high
            table[b] = table[rest] + chunk[high]
            table[256 + b] = (table[256 + rest] + chunk[high] if rest
                              else first[high])
        tables.append(np.array(table, object))
    return tables


def member_texts(masks: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """Each mask's text, as an ``object`` array of str: the pieces of
    its members joined in ascending order, its lowest member's from
    `firsts` (``member_tables``). Read off one table per 8 members and
    added together, in either dtype of ``mask_dtype``: no member tuple
    is built."""
    texts = np.full(masks.shape, "", object)
    first = np.full(masks.shape, 256, np.intp)  # no member below the byte
    for j, table in enumerate(tables):
        byte = (masks >> 8 * j & 255).astype(np.intp)
        texts += table[byte | first]
        first[byte != 0] = 0
    return texts
