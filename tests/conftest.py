import os

import pytest
from hypothesis import strategies as st

from implbases import (FormalContext, ImplicationBase, SingleParamSpec,
                       gen_single)

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")

# 5x5 running example used across the suite:
#      a1 a2 a3 a4 a5
#  o1   X  X  .  .  .
#  o2   .  X  .  X  X
#  o3   .  X  X  X  .
#  o4   .  .  X  .  X
#  o5   .  .  .  X  X
TOY_ROWS = [
    [1, 1, 0, 0, 0],
    [0, 1, 0, 1, 1],
    [0, 1, 1, 1, 0],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
]


@pytest.fixture
def toy_context() -> FormalContext:
    return FormalContext(TOY_ROWS)


@pytest.fixture
def toy_context_path() -> str:
    return os.path.join(DATA_DIR, "toy_context.cxt")


def random_contexts(count: int, max_objects: int = 10, max_attributes: int = 8,
                    p_choices=(0.3, 0.5, 0.7), base_seed: int = 0):
    """Deterministic corpus of small random contexts."""
    import random

    rng = random.Random(base_seed)
    out = []
    for _ in range(count):
        n_obj = rng.randint(1, max_objects)
        n_attr = rng.randint(1, max_attributes)
        p = rng.choice(p_choices)
        spec = SingleParamSpec(n_obj, n_attr, p, seed=rng.randrange(2 ** 32))
        out.append(gen_single(spec))
    return out


# Attribute names that a renderer must carry through unchanged: inner
# and outer spaces, an arrow, a quote, a backslash, a tab, letters
# outside ASCII (one outside the BMP) and the empty name.
ODD_NAMES = ("x y", "a->b", 'say "hi"', "back\\slash", "tab\there",
             "Größe", "日本 語", "emoji \U0001F600", " two  words ", "")

# universe sizes on both sides of every 8-attribute chunk and of the
# uint64 / Python-int switch at 64 attributes
BASE_UNIVERSES = (0, 1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65, 70)


@st.composite
def implication_bases(draw, n=None):
    """An ``ImplicationBase`` of either kind over `n` attributes (drawn
    from ``BASE_UNIVERSES`` when None), in no particular order, whose
    premises repeat (so that conclusions break ties) and may be empty."""
    if n is None:
        n = draw(st.sampled_from(BASE_UNIVERSES))
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    premises = draw(st.lists(masks, min_size=1, max_size=4)) + [0]
    pairs = []
    for premise, conclusion in draw(st.lists(
            st.tuples(st.sampled_from(premises), masks), max_size=24)):
        conclusion &= ~premise
        if conclusion and (premise, conclusion) not in pairs:
            pairs.append((premise, conclusion))
    return ImplicationBase(pairs, draw(st.sampled_from(("proper", "stem"))), n)


def attribute_names(n: int):
    """`n` attribute names, odd ones among them."""
    return st.lists(st.sampled_from(ODD_NAMES) | st.text(max_size=4),
                    min_size=n, max_size=n)
