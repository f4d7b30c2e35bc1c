import math

import numpy as np
import pytest

from implbases import (MultiParamSpec, SingleParamSpec, effective_probabilities,
                       gen_multi, gen_single, write_burmeister)
from implbases.randctx import _column_states

from oracles import column_mask


def test_spec_validation():
    with pytest.raises(ValueError):
        SingleParamSpec(3, 3, 1.5)
    with pytest.raises(ValueError):
        SingleParamSpec(-1, 3, 0.5)
    with pytest.raises(ValueError):
        SingleParamSpec(3, 3, 0.5, seed=-1)
    with pytest.raises(ValueError):
        MultiParamSpec(3, 4, u_size=3, r_size=2)  # u + r > n
    with pytest.raises(ValueError):
        MultiParamSpec(3, 2, u_size=0, r_size=1)  # rare needs n >= 3
    with pytest.raises(ValueError):
        MultiParamSpec(3, 4, u_size=0, r_size=0, f_prob=2.0)
    with pytest.raises(ValueError):
        MultiParamSpec(3, 4, u_size=0, r_size=0, x=-1.0)


def test_q_accessor():
    assert SingleParamSpec(1, 1, 0.3).q == pytest.approx(0.7)


def test_extreme_probabilities():
    full = gen_single(SingleParamSpec(4, 3, 1.0, seed=11))
    assert all(mask == 0b111 for mask in full.row_masks)
    empty = gen_single(SingleParamSpec(4, 3, 0.0, seed=11))
    assert all(mask == 0 for mask in empty.row_masks)


def test_determinism_bit_identical():
    spec = SingleParamSpec(30, 20, 0.4, seed=123)
    a, b = gen_single(spec), gen_single(spec)
    assert a == b
    assert write_burmeister(a) == write_burmeister(b)
    # a different seed changes the sample
    assert a != gen_single(SingleParamSpec(30, 20, 0.4, seed=124))


def test_multi_reduction_to_single_is_bit_identical():
    """With no U and no R the two models share the column-stream rule."""
    single = gen_single(SingleParamSpec(25, 10, 0.37, seed=5))
    multi = gen_multi(MultiParamSpec(25, 10, u_size=0, r_size=0,
                                     x=9.0, f_prob=0.37, seed=5))
    assert single == multi


def test_effective_probabilities_classes():
    spec = MultiParamSpec(100, 10, u_size=2, r_size=3, x=5.0, f_prob=0.3, seed=0)
    probs = effective_probabilities(spec)
    assert len(probs) == 10
    assert probs[0] == probs[1] == pytest.approx(1 - 5.0 / 100)   # U: 1 - x/m
    assert probs[2] == pytest.approx(1 / math.log(10))            # R: 1/ln n
    assert probs[5:] == [0.3] * 5                                 # F: f_prob


def test_effective_probabilities_all_free_constant_vector():
    spec = MultiParamSpec(10, 4, u_size=0, r_size=0, f_prob=0.3, seed=0)
    assert effective_probabilities(spec) == [0.3] * 4


def test_ubiquitous_clamp_full_relation():
    # x = 0 forces p_u = 1: every ubiquitous cell is a cross
    spec = MultiParamSpec(6, 4, u_size=4, r_size=0, x=0.0, seed=3)
    ctx = gen_multi(spec)
    assert all(mask == 0b1111 for mask in ctx.row_masks)
    # huge x clamps the other way
    spec = MultiParamSpec(6, 4, u_size=4, r_size=0, x=1000.0, seed=3)
    assert all(mask == 0 for mask in gen_multi(spec).row_masks)


def test_rare_density_tracks_inverse_log():
    n, m = 100, 1000
    spec = MultiParamSpec(m, n, u_size=0, r_size=n, seed=0)
    ctx = gen_multi(spec)
    p_r = 1 / math.log(n)
    sigma = math.sqrt(p_r * (1 - p_r) / m)
    for a in range(n):
        density = column_mask(ctx, a).bit_count() / m
        assert abs(density - p_r) <= 3 * sigma


def test_single_density_within_binomial_bound():
    spec = SingleParamSpec(100, 100, 0.5, seed=0)
    ctx = gen_single(spec)
    density = sum(m.bit_count() for m in ctx.row_masks) / 10_000
    assert abs(density - 0.5) <= 3 * math.sqrt(0.25 / 10_000)


def test_column_cross_counts_pass_chi_square():
    """Counts of crosses per column over repeated seeds follow the
    binomial law; goodness of fit must not reject at the 1% level."""
    from scipy import stats

    m, p, trials = 40, 0.5, 150
    counts = []
    for seed in range(trials):
        ctx = gen_single(SingleParamSpec(m, 1, p, seed=seed))
        counts.append(column_mask(ctx, 0).bit_count())
    bins = [(0, 16), (17, 18), (19, 19), (20, 20), (21, 22), (23, m)]
    observed = [sum(1 for c in counts if lo <= c <= hi) for lo, hi in bins]
    expected = [trials * sum(stats.binom.pmf(k, m, p) for k in range(lo, hi + 1))
                for lo, hi in bins]
    assert min(expected) > 5  # binning sanity
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    threshold = stats.chi2.ppf(0.99, df=len(bins) - 1)
    assert chi2 < threshold, (chi2, threshold, observed, expected)


def test_multi_spec_refuses_nan_x():
    with pytest.raises(ValueError, match="^x must be >= 0$"):
        MultiParamSpec(6, 4, u_size=2, r_size=0, x=float("nan"))


def _per_column_masks(n_objects, n_attributes, probs, seed):
    """The sampler's rule, one column at a time: object o has attribute
    a when draw o of a's own stream is below probs[a]."""
    rows = [0] * n_objects
    cols = [0] * n_attributes
    for a in range(n_attributes):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(a,))))
        for o in np.flatnonzero(rng.random(n_objects) < probs[a]):
            rows[o] |= 1 << a
            cols[a] |= 1 << int(o)
    return tuple(rows), tuple(cols)


def _rows_and_columns(ctx):
    return ctx.row_masks, tuple(column_mask(ctx, a)
                                for a in range(ctx.n_attributes))


# seeds of 1, 2, 3, 4 and more than 4 uint32 words: SeedSequence pads a
# seed shorter than its 4-word pool and mixes any later word in afterwards
SEEDS = [2 ** 90 + 12345, 0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
         2 ** 128 - 1, 2 ** 128, 2 ** 200 + 3]
SHAPES = [(0, 0, 0.5), (0, 7, 0.5), (9, 0, 0.5),
          (17, 63, 0.5), (17, 64, 0.3), (17, 65, 0.7), (70, 65, 0.5),
          (12, 9, 0.0), (12, 9, 1.0)]


# a test id names the shape, and the seed unless it is the first one
@pytest.mark.parametrize("objects, attributes, p, seed", [
    pytest.param(*shape, seed, id="-".join(map(str, shape))
                 + (f"-{seed}" if seed != SEEDS[0] else ""))
    for seed in SEEDS for shape in SHAPES])
def test_sampler_matches_per_column_streams(objects, attributes, p, seed):
    ctx = gen_single(SingleParamSpec(objects, attributes, p, seed=seed))
    assert _rows_and_columns(ctx) == _per_column_masks(
        objects, attributes, [p] * attributes, seed)


# 0 and 1, then both sides of each 32-bit boundary: 1 to 10 uint32 words
@pytest.mark.parametrize("seed", [0, 1] + [
    seed for k in range(1, 10) for seed in (2 ** (32 * k) - 1, 2 ** (32 * k))])
def test_column_states_match_numpy_for_every_seed_width(seed):
    expected = []
    for a in range(4):
        state = np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(a,))).state["state"]
        expected.append((state["state"], state["inc"]))
    assert _column_states(np.random.SeedSequence(seed), 4) == expected


@pytest.mark.parametrize("spec", [
    MultiParamSpec(30, 30, u_size=26, r_size=4, x=2.0, f_prob=0.5,
                   seed=20250801),
    MultiParamSpec(13, 11, u_size=3, r_size=4, x=1.5, f_prob=0.2, seed=3),
])
def test_multi_sampler_matches_per_column_streams(spec):
    ctx = gen_multi(spec)
    assert _rows_and_columns(ctx) == _per_column_masks(
        spec.n_objects, spec.n_attributes, effective_probabilities(spec),
        spec.seed)
