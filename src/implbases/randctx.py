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
The sampler does not build those numpy objects per column. It builds
one ``SeedSequence(seed)`` per context, whose pool every column's spawn
key is mixed into and which seeds the one reused PCG64; it computes
every column's starting state from that pool in one pass, with
SeedSequence's and PCG64's own seeding arithmetic, and draws each column
from the generator set to that state. Tests pin the states and the
sampled contexts to those of numpy's own per-column objects.
The draws of all columns fill one attribute x object matrix, compared
once against the column probabilities; the context's row masks are
packed from its transpose.
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


class SampleTooLarge(ValueError):
    """The random model's refusal of a sample that no index reaches or
    that cannot be allocated. A sweep catches this type alone from its
    trials, so that any other exception inside a trial propagates."""


_TOO_LARGE = "n_objects is too large to sample"


def check_sample_size(n_objects: int, n_attributes: int) -> None:
    """Refuses an object count that no sample can index, which a spec
    accepts for the bounds: one whose attribute x object matrix of
    8-byte draws, or list of row masks, has more bytes than an index
    reaches. The sampler asks it, and so does a sweep for each cell
    before any trial runs. A count that can be indexed but not
    allocated is refused, with the same text, by the sampler alone."""
    if n_objects * max(n_attributes, 1) > sys.maxsize // 8:
        raise SampleTooLarge(_TOO_LARGE)


def _packed_masks(crosses: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int mask, column j at bit j."""
    packed = np.packbits(crosses, axis=1, bitorder="little")
    width = packed.shape[1]
    if not width:
        return [0] * len(packed)
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


# The seeding constants of numpy's SeedSequence (INIT_A, MULT_A, INIT_B,
# MULT_B, MIX_MULT_L, MIX_MULT_R and XSHIFT = 16 in
# numpy/random/bit_generator.pyx) and PCG64's 128-bit LCG multiplier
# (PCG_DEFAULT_MULTIPLIER_128 in numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_consts(h: int, mult: int, count: int) -> np.ndarray:
    """`count` successive hash constants from `h`, each the last times
    `mult` mod 2**32, as a uint32 row."""
    out = []
    for _ in range(count):
        out.append(h)
        h = h * mult & _MASK32
    return np.array(out, dtype=np.uint32)


# generate_state's hash constant before and after each of its 8 words
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 9)


def _column_states(seq: np.random.SeedSequence,
                   n_attributes: int) -> list[tuple[int, int]]:
    """The ``(state, inc)`` pair of ``PCG64(SeedSequence(seed,
    spawn_key=(a,))).state`` for each column ``a < n_attributes``, where
    `seq` is ``SeedSequence(seed)``.

    A column's pool is ``seq.pool`` with its spawn key mixed in: a seed
    shorter than the 4-word pool hashes as zero words with or without a
    key, and words past the fourth are mixed in before the key. The
    key's mixing starts from the hash constant that the seed's left,
    ``INIT_A`` after 16 steps and 4 more per word past the fourth. The
    rest runs on uint32 arrays over the columns, whose products wrap
    without a warning: each spawn key, one word (a column index is below
    2**32; more columns would not fit in memory), is hashed into every
    pool word, and the pool into the 8 words of
    ``generate_state(4, uint64)``. PCG64 seeds from those, in 128-bit
    ints, with ``inc = 2 * seq + 1`` and
    ``state = ((inc + init) * M + inc) mod 2**128``."""
    extra_words = max(0, -(-int(seq.entropy).bit_length() // 32) - 4)
    h = pow(_MULT_A, 16 + 4 * extra_words, 1 << 32) * _INIT_A & _MASK32
    spawn = _hash_consts(h, _MULT_A, 5)
    a = np.arange(n_attributes, dtype=np.uint32).reshape(-1, 1)
    hashed = (a ^ spawn[:4]) * spawn[1:]  # hashmix(a), once per pool word
    hashed ^= hashed >> 16
    hashed *= np.uint32(_MIX_MULT_R)  # mix(pool word, hashmix(a))
    mixed = seq.pool * np.uint32(_MIX_MULT_L) - hashed
    mixed ^= mixed >> 16
    words = np.concatenate((mixed, mixed), axis=1)  # cycles the pool
    words ^= _STATE_CONSTS[:8]
    words *= _STATE_CONSTS[1:]
    words ^= words >> 16
    states = []
    # generate_state joins its words in little-endian pairs into uint64s
    for init_hi, init_lo, seq_hi, seq_lo in (
            words.astype("<u4", copy=False).view("<u8").tolist()):
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        states.append((((inc + (init_hi << 64 | init_lo)) * _PCG_MULT + inc)
                       & _MASK128, inc))
    return states


def _sample_columns(n_objects: int, n_attributes: int,
                    probs: list[float], seed: int) -> FormalContext:
    """Column `a` is drawn from its own stream, seeded by
    ``SeedSequence(seed, spawn_key=(a,))``: object `o` has `a` when
    draw `o` is below ``probs[a]``. One ``SeedSequence(seed)`` gives
    every column's pool and seeds the one generator that draws every
    column, set to that column's starting state first. The draws fill
    one attribute x object matrix, compared once against the
    probabilities; the context's row masks are its columns, packed."""
    check_sample_size(n_objects, n_attributes)
    try:
        draws = np.empty((n_attributes, n_objects))
    except MemoryError:
        raise SampleTooLarge(_TOO_LARGE) from None
    seq = np.random.SeedSequence(seed)
    bit_generator = np.random.PCG64(seq)  # every column sets its state
    generator = np.random.Generator(bit_generator)
    for a, (state, inc) in enumerate(_column_states(seq, n_attributes)):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.random(n_objects, out=draws[a])
    crosses = draws < np.array(probs, dtype=float).reshape(-1, 1)
    return FormalContext.from_row_masks(
        n_objects, n_attributes, _packed_masks(crosses.T))


def spec_from_cell(cell: dict,
                   seed: int = 0) -> SingleParamSpec | MultiParamSpec:
    """The generator spec of a flat model cell: a dict with ``model``,
    ``objects`` and ``attributes``, then ``p`` (single model) or
    ``u_size``, ``r_size``, ``x`` and ``f_prob`` (multi model). Other
    keys are ignored, so a sweep cell and the parsed flags of ``gen``
    are both cells. The one place where a spec is built from a cell; a
    signed zero in ``p``, ``x`` or ``f_prob`` is read as +0.0, so a
    spec's header lines do not depend on the sign of a zero."""
    if cell["model"] == "single":
        return SingleParamSpec(n_objects=cell["objects"],
                               n_attributes=cell["attributes"],
                               p=_unsigned_zero(cell["p"]), seed=seed)
    return MultiParamSpec(n_objects=cell["objects"],
                          n_attributes=cell["attributes"],
                          u_size=cell["u_size"], r_size=cell["r_size"],
                          x=_unsigned_zero(cell["x"]),
                          f_prob=_unsigned_zero(cell["f_prob"]), seed=seed)


def _unsigned_zero(value: float) -> float:
    """`value`, with a zero made unsigned (an int stays an int): its
    ``repr`` tells -0.0 from 0.0, and that text keys a sweep cell's
    trial seeds and heads a generated file."""
    return abs(value) if value == 0 else value


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
