"""Seeded random formal-context generators.

Two models. The single-parameter model fills every cell independently
with probability p. The multi-parametric model partitions attributes
into three classes with different column probabilities: ubiquitous
attributes (U, indices ``[0, u_size)``) with ``p = 1 - min(x/m, 1)``,
rare attributes (R, indices ``[u_size, u_size + r_size)``) with
``p = 1/ln(n)``, and free attributes (F, the rest) with ``p = f_prob``.

Randomness: PCG64, one substream per column derived as
``SeedSequence(seed, spawn_key=(column,))``. Per-column substreams make
output independent of evaluation order and let both models share one
stream-derivation rule, so a multi spec with no U and no R produces the
same context, bit for bit, as the single model at ``p = f_prob``.
The draws of all columns fill one attribute x object matrix, compared
once against the column probabilities; the context's row and column
masks are both packed from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .context import FormalContext


def object_count_as_float(n_objects: int) -> float:
    """`n_objects` as a float, which the column probabilities and the
    bounds compute with; refuses a count that no float holds. The one
    check and text of that refusal."""
    try:
        return float(n_objects)
    except OverflowError:
        raise ValueError("n_objects is too large for a float") from None


@dataclass(frozen=True)
class SingleParamSpec:
    """Every cell is a cross independently with probability p."""

    n_objects: int
    n_attributes: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects < 0 or self.n_attributes < 0:
            raise ValueError("counts must be >= 0")
        object_count_as_float(self.n_objects)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def q(self) -> float:
        """Probability that a cell is blank."""
        return 1.0 - self.p


@dataclass(frozen=True)
class MultiParamSpec:
    """Per-attribute probabilities by class partition U | R | F."""

    n_objects: int
    n_attributes: int
    u_size: int
    r_size: int
    x: float = 2.0
    f_prob: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_objects < 0 or self.n_attributes < 0:
            raise ValueError("counts must be >= 0")
        object_count_as_float(self.n_objects)
        if self.u_size < 0 or self.r_size < 0:
            raise ValueError("class sizes must be >= 0")
        if self.u_size + self.r_size > self.n_attributes:
            raise ValueError("u_size + r_size exceeds attribute count")
        if self.r_size > 0 and self.n_attributes < 3:
            raise ValueError(
                "rare attributes require n_attributes >= 3 (1/ln n must be < 1)")
        if not self.x >= 0:  # also refuses nan
            raise ValueError("x must be >= 0")
        if not 0.0 <= self.f_prob <= 1.0:
            raise ValueError(f"f_prob must be in [0, 1], got {self.f_prob}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def f_size(self) -> int:
        return self.n_attributes - self.u_size - self.r_size


def effective_probabilities(spec: MultiParamSpec) -> list[float]:
    """Resolved per-attribute cross probabilities, in attribute order."""
    m = spec.n_objects
    p_u = 1.0 if m == 0 else 1.0 - min(spec.x / m, 1.0)
    p_r = 1.0 / math.log(spec.n_attributes) if spec.r_size > 0 else 0.0
    probs = [p_u] * spec.u_size
    probs += [p_r] * spec.r_size
    probs += [spec.f_prob] * spec.f_size
    return probs


def check_sample_size(n_objects: int, n_attributes: int) -> None:
    """Refuses an object count that no sample can index, which a spec
    accepts for the bounds: one whose attribute x object matrix of
    8-byte draws, or list of row masks, has more bytes than an index
    reaches. The one check and text of that refusal; the sampler asks
    it, and so does a sweep for each cell before any trial runs. A count
    that can be indexed but not held in memory is not refused here."""
    if n_objects * max(n_attributes, 1) > sys.maxsize // 8:
        raise ValueError("n_objects is too large to sample")


def _packed_masks(crosses: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int mask, column j at bit j."""
    packed = np.packbits(crosses, axis=1, bitorder="little")
    width = packed.shape[1]
    if not width:
        return [0] * len(packed)
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def _sample_columns(n_objects: int, n_attributes: int,
                    probs: list[float], seed: int) -> FormalContext:
    """Column `a` is drawn from its own stream, seeded by
    ``SeedSequence(seed, spawn_key=(a,))``: object `o` has `a` when
    draw `o` is below ``probs[a]``. The draws fill one attribute x
    object matrix, compared once against the probabilities; the column
    and row masks are its rows and its columns, packed."""
    check_sample_size(n_objects, n_attributes)
    draws = np.empty((n_attributes, n_objects))
    for a in range(n_attributes):
        np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(a,)))).random(
                n_objects, out=draws[a])
    crosses = draws < np.array(probs, dtype=float).reshape(-1, 1)
    return FormalContext._from_checked_masks(
        n_objects, n_attributes, _packed_masks(crosses.T),
        _packed_masks(crosses))


def spec_from_cell(cell: dict,
                   seed: int = 0) -> SingleParamSpec | MultiParamSpec:
    """The generator spec of a flat model cell: a dict with ``model``,
    ``objects`` and ``attributes``, then ``p`` (single model) or
    ``u_size``, ``r_size``, ``x`` and ``f_prob`` (multi model). Other
    keys are ignored, so a sweep cell and the parsed flags of ``gen``
    are both cells. The one place where a spec is built from a cell."""
    if cell["model"] == "single":
        return SingleParamSpec(n_objects=cell["objects"],
                               n_attributes=cell["attributes"],
                               p=cell["p"], seed=seed)
    return MultiParamSpec(n_objects=cell["objects"],
                          n_attributes=cell["attributes"],
                          u_size=cell["u_size"], r_size=cell["r_size"],
                          x=cell["x"], f_prob=cell["f_prob"], seed=seed)


def gen_single(spec: SingleParamSpec) -> FormalContext:
    """Sample the single-parameter model; pure function of the spec."""
    return _sample_columns(spec.n_objects, spec.n_attributes,
                           [spec.p] * spec.n_attributes, spec.seed)


def gen_multi(spec: MultiParamSpec) -> FormalContext:
    """Sample the multi-parametric model; pure function of the spec."""
    return _sample_columns(spec.n_objects, spec.n_attributes,
                           effective_probabilities(spec), spec.seed)


# -- flat key-value serialization ------------------------------------------------


def spec_to_keyvalues(spec: SingleParamSpec | MultiParamSpec) -> list[str]:
    """`key=value` lines; embedded as header comments in generated files."""
    if isinstance(spec, SingleParamSpec):
        return [
            "model=single",
            f"objects={spec.n_objects}",
            f"attributes={spec.n_attributes}",
            f"p={spec.p!r}",
            f"seed={spec.seed}",
        ]
    lines = [
        "model=multi",
        f"objects={spec.n_objects}",
        f"attributes={spec.n_attributes}",
        f"u_size={spec.u_size}",
        f"r_size={spec.r_size}",
        f"x={spec.x!r}",
        f"f_prob={spec.f_prob!r}",
        f"seed={spec.seed}",
    ]
    probs = effective_probabilities(spec)
    lines.append("column_probs=" + ",".join(repr(p) for p in probs))
    return lines


def spec_from_keyvalues(text: str) -> SingleParamSpec | MultiParamSpec:
    """Parse the key-value form (one pair per line, '#' prefixes and
    blank lines ignored)."""
    pairs: dict[str, str] = {}
    for raw in text.split("\n"):
        line = raw.strip()
        if line.startswith("#"):
            line = line[1:].strip()
        if not line or "=" not in line:
            continue
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    model = pairs.get("model")
    if model not in ("single", "multi"):
        raise ValueError(
            f"unknown or missing model in key-value spec: {model!r}")
    model_keys = ({"p": float} if model == "single" else
                  {"u_size": int, "r_size": int, "x": float, "f_prob": float})
    cell = {"model": model}
    for key, kind in {"objects": int, "attributes": int, **model_keys,
                      "seed": int}.items():
        if key not in pairs:
            raise ValueError(f"missing key in key-value spec: {key!r}")
        cell[key] = kind(pairs[key])
    return spec_from_cell(cell, cell["seed"])
