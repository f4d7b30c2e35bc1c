"""Formal contexts: a binary relation between objects and attributes.

A context is held as its rows: the attribute mask of every object.
The bases and the random model read and build these masks directly;
a column, where one is needed, is read off the rows. ``FormalContext``
is a frozen slotted dataclass, equal and hashed by its dimensions and
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def _default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


@dataclass(frozen=True, slots=True, repr=False, init=False)
class FormalContext:
    """Object/attribute incidence relation.

    Each object's row is stored as a bitmask of its attributes; nothing
    else about the relation is stored.
    Duplicate rows are allowed (random models can produce them).
    Objects and attributes are identified by dense indices; `object_names`
    and `attribute_names` are presentation-layer labels only. Equality
    and hash read (n_objects, n_attributes, row_masks): the names are
    not part of the relation.
    """

    n_objects: int
    n_attributes: int
    row_masks: tuple[int, ...]
    object_names: tuple[str, ...] = field(compare=False)
    attribute_names: tuple[str, ...] = field(compare=False)

    def __init__(
        self,
        incidence: Sequence[Sequence[object]],
        object_names: Sequence[str] | None = None,
        attribute_names: Sequence[str] | None = None,
        n_attributes: int | None = None,
    ) -> None:
        n_objects = len(incidence)
        if n_attributes is None:
            if n_objects == 0:
                raise ValueError("n_attributes required for a context with 0 objects")
            n_attributes = len(incidence[0])
        rows = []
        for o, row in enumerate(incidence):
            if len(row) != n_attributes:
                raise ValueError(
                    f"row {o} has {len(row)} cells, expected {n_attributes}"
                )
            mask = 0
            for a, cell in enumerate(row):
                if cell:
                    mask |= 1 << a
            rows.append(mask)
        self._init_from_masks(n_objects, n_attributes, rows,
                              object_names, attribute_names)

    @classmethod
    def from_row_masks(
        cls,
        n_objects: int,
        n_attributes: int,
        row_masks: Iterable[int],
        object_names: Sequence[str] | None = None,
        attribute_names: Sequence[str] | None = None,
    ) -> "FormalContext":
        """Fast constructor from per-object attribute bitmasks."""
        ctx = cls.__new__(cls)
        rows = list(row_masks)
        if len(rows) != n_objects:
            raise ValueError(f"expected {n_objects} row masks, got {len(rows)}")
        for o, mask in enumerate(rows):
            if mask < 0 or mask >> n_attributes:
                raise ValueError(f"row {o} mask has bits outside {n_attributes} attributes")
        ctx._init_from_masks(n_objects, n_attributes, rows,
                             object_names, attribute_names)
        return ctx

    def _init_from_masks(self, n_objects, n_attributes, rows,
                         object_names, attribute_names) -> None:
        if object_names is None:
            object_names = _default_names("o", n_objects)
        if attribute_names is None:
            attribute_names = _default_names("a", n_attributes)
        if len(object_names) != n_objects or len(attribute_names) != n_attributes:
            raise ValueError("name sequences must match context dimensions")
        object.__setattr__(self, "n_objects", n_objects)
        object.__setattr__(self, "n_attributes", n_attributes)
        object.__setattr__(self, "row_masks", tuple(rows))
        object.__setattr__(self, "object_names", tuple(object_names))
        object.__setattr__(self, "attribute_names", tuple(attribute_names))

    def __repr__(self) -> str:
        return f"FormalContext({self.n_objects} objects, {self.n_attributes} attributes)"
