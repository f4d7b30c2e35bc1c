"""Fixed-universe index sets backed by integer bitmasks.

The package's public sets (attribute sets, hypergraph edges,
implication premises and conclusions) are these; inner loops run on the
raw masks and wrap results only at the API boundary. Elements are dense
integer indices ``0..universe-1``. An ``IndexSet`` is a frozen slotted
dataclass, like the package's other value types: equal, hashed,
pickled and copied by its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


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


_SWAP_DIGITS = str.maketrans("10", "01")


def mask_order_key(mask: int) -> str:
    """A key that orders masks as their member tuples (`mask_members`)
    do, without building a tuple: the binary digits of `mask` from bit 0
    up, each one swapped, so that a member at the first index where two
    sets differ sorts first, and a set that stops there sorts before any
    set that goes on; the empty set is ''."""
    return bin(mask)[:1:-1].translate(_SWAP_DIGITS) if mask else ""


def sorted_sets(universe: int, masks: Iterable[int]) -> list[IndexSet]:
    """The canonical form of a set family: `masks` in member-tuple order,
    then wrapped as index sets over `universe`. Mask-level kernels
    return families in no fixed order; their callers sort here, at the
    API boundary."""
    return [IndexSet.from_mask(universe, m)
            for m in sorted(masks, key=mask_order_key)]
