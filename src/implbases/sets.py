"""Fixed-universe index sets backed by integer bitmasks.

The package's public sets (attribute sets, object sets, hypergraph
edges, implication premises) are these; inner loops run on the raw
masks and wrap results only at the API boundary. Elements are dense
integer indices ``0..universe-1``; the mask representation makes union,
intersection and subset tests single big-int operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class IndexSet:
    """Immutable subset of ``{0, ..., universe-1}``.

    Binary operations require both operands to share the same universe
    size; mixing universes raises ``ValueError``.
    """

    __slots__ = ("universe", "mask")

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

    @classmethod
    def full(cls, universe: int) -> "IndexSet":
        return cls.from_mask(universe, (1 << universe) - 1)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IndexSet is immutable")

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

    def is_proper_subset(self, other: "IndexSet") -> bool:
        return self.mask != other.mask and self.is_subset(other)

    def intersects(self, other: "IndexSet") -> bool:
        self._check(other)
        return bool(self.mask & other.mask)

    # -- algebra ---------------------------------------------------------

    def __or__(self, other: "IndexSet") -> "IndexSet":
        self._check(other)
        return IndexSet.from_mask(self.universe, self.mask | other.mask)

    def __and__(self, other: "IndexSet") -> "IndexSet":
        self._check(other)
        return IndexSet.from_mask(self.universe, self.mask & other.mask)

    def __sub__(self, other: "IndexSet") -> "IndexSet":
        self._check(other)
        return IndexSet.from_mask(self.universe, self.mask & ~other.mask)

    def complement(self) -> "IndexSet":
        return IndexSet.from_mask(self.universe, ~self.mask & ((1 << self.universe) - 1))

    def add(self, i: int) -> "IndexSet":
        """New set with `i` added (the receiver is unchanged)."""
        if not 0 <= i < self.universe:
            raise ValueError(f"member {i} outside universe of size {self.universe}")
        return IndexSet.from_mask(self.universe, self.mask | 1 << i)

    def remove(self, i: int) -> "IndexSet":
        """New set with `i` removed (no error if absent)."""
        if not 0 <= i < self.universe:
            raise ValueError(f"member {i} outside universe of size {self.universe}")
        return IndexSet.from_mask(self.universe, self.mask & ~(1 << i))

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSet):
            return NotImplemented
        return self.universe == other.universe and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        return f"IndexSet({self.universe}, {{{', '.join(map(str, self))}}})"

    def _check(self, other: "IndexSet") -> None:
        if self.universe != other.universe:
            raise ValueError(
                f"universe mismatch: {self.universe} vs {other.universe}"
            )


# the slots' own setters: they bypass the refusing ``__setattr__`` and
# cost less than ``object.__setattr__``, which looks the name up
_set_universe = IndexSet.universe.__set__
_set_mask = IndexSet.mask.__set__

# Attribute and object sets share the representation; the distinction is
# which universe (attribute count vs object count) they are built over.
AttributeSet = IndexSet
ObjectSet = IndexSet


def mask_members(mask: int) -> tuple[int, ...]:
    """Ascending indices of the set bits of `mask`: the members of the
    set it codes, and so its `sort_key`. The one mask -> members loop."""
    if mask < 0:
        raise ValueError(f"mask {mask:#x} is negative")
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def sort_key(s: IndexSet) -> tuple[int, ...]:
    """Lexicographic-by-members order used for all deterministic output."""
    return mask_members(s.mask)


def sorted_sets(universe: int, masks: Iterable[int]) -> list[IndexSet]:
    """The canonical form of a set family: `masks` in `sort_key` order,
    then wrapped as index sets over `universe`. Mask-level kernels
    return families in no fixed order; their callers sort here, at the
    API boundary."""
    return [IndexSet.from_mask(universe, m)
            for m in sorted(masks, key=mask_members)]
