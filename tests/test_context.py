import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implbases import FormalContext, IndexSet

from conftest import TOY_ROWS
from oracles import closure, derive_attributes, derive_objects, implication_holds


def objects(ctx, members=()):
    return IndexSet(ctx.n_objects, members)


def attributes(ctx, members=()):
    return IndexSet(ctx.n_attributes, members)


@st.composite
def small_contexts(draw):
    n_obj = draw(st.integers(min_value=0, max_value=6))
    n_attr = draw(st.integers(min_value=0, max_value=6))
    rows = [draw(st.integers(min_value=0, max_value=(1 << n_attr) - 1))
            for _ in range(n_obj)]
    return FormalContext.from_row_masks(n_obj, n_attr, rows)


def test_rows_match_incidence(toy_context):
    ctx = toy_context
    for o in range(ctx.n_objects):
        for a in range(ctx.n_attributes):
            assert (ctx.row_masks[o] >> a & 1) == TOY_ROWS[o][a]


def test_derive_objects_examples(toy_context):
    ctx = toy_context
    # o2 carries a2, a4, a5
    assert derive_objects(ctx, objects(ctx, [1])).members == (1, 3, 4)
    # empty object set derives to every attribute
    assert derive_objects(ctx, objects(ctx)) == IndexSet.from_mask(5, 0b11111)
    # o2 and o3 share a2, a4
    assert derive_objects(ctx, objects(ctx, [1, 2])).members == (1, 3)


def test_derive_attributes_examples(toy_context):
    ctx = toy_context
    # column a4 holds o2, o3, o5
    assert derive_attributes(ctx, attributes(ctx, [3])).members == (1, 2, 4)
    assert derive_attributes(ctx, attributes(ctx)) == IndexSet.from_mask(5, 0b11111)
    # a3 and a4 together only in o3
    assert derive_attributes(ctx, attributes(ctx, [2, 3])).members == (2,)


def test_closure_examples(toy_context):
    ctx = toy_context
    assert closure(ctx, attributes(ctx, [3])).members == (3,)
    # {a3,a4}' = {o3}, {o3}' = {a2,a3,a4}
    assert closure(ctx, attributes(ctx, [2, 3])).members == (1, 2, 3)
    closed = closure(ctx, attributes(ctx, [0]))
    assert closure(ctx, closed) == closed


def test_implication_holds_examples(toy_context):
    ctx = toy_context
    assert implication_holds(ctx, attributes(ctx, [2, 3]), attributes(ctx, [1]))
    x = attributes(ctx, [0, 4])
    assert implication_holds(ctx, x, x)
    # o2 has a2 but not a1
    assert not implication_holds(ctx, attributes(ctx, [1]), attributes(ctx, [0]))


def test_empty_contexts_follow_quantification_conventions():
    no_objects = FormalContext.from_row_masks(0, 3, [])
    assert (derive_objects(no_objects, objects(no_objects))
            == IndexSet.from_mask(3, 0b111))
    assert derive_attributes(no_objects, attributes(no_objects, [0])).members == ()
    assert closure(no_objects, attributes(no_objects)) == IndexSet.from_mask(3, 0b111)

    no_attrs = FormalContext.from_row_masks(2, 0, [0, 0])
    assert (derive_attributes(no_attrs, attributes(no_attrs))
            == IndexSet.from_mask(2, 0b11))
    assert derive_objects(no_attrs, objects(no_attrs, [0])).members == ()


def test_duplicate_rows_allowed():
    ctx = FormalContext([[1, 0], [1, 0]])
    assert ctx.n_objects == 2
    assert ctx.row_masks[0] == ctx.row_masks[1]


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        FormalContext([[1, 0], [1]])


def test_immutable():
    ctx = FormalContext([[1]])
    with pytest.raises(AttributeError):
        ctx.n_objects = 2


@given(small_contexts())
@settings(max_examples=200, deadline=None)
def test_galois_duality(ctx):
    # A <= O' iff O <= A' for random O, A
    for omask in range(min(1 << ctx.n_objects, 32)):
        objs = IndexSet.from_mask(ctx.n_objects, omask)
        derived = derive_objects(ctx, objs)
        for amask in range(min(1 << ctx.n_attributes, 32)):
            attrs = IndexSet.from_mask(ctx.n_attributes, amask)
            lhs = attrs.is_subset(derived)
            rhs = objs.is_subset(derive_attributes(ctx, attrs))
            assert lhs == rhs


def test_closure_laws_exhaustive():
    """Extensive/idempotent for all X; monotone step X -> X + {e} for all
    X, e (implies full monotonicity), on a 10-attribute context."""
    rows = [((o * 2654435761) ^ (o << 3)) & 0x3FF for o in range(12)]
    ctx = FormalContext.from_row_masks(12, 10, rows)
    closures = {}
    for mask in range(1 << 10):
        x = IndexSet.from_mask(10, mask)
        c = closure(ctx, x)
        closures[mask] = c
        assert x.is_subset(c)
        assert closure(ctx, c) == c
    for mask in range(1 << 10):
        for e in range(10):
            bigger = mask | (1 << e)
            assert closures[mask].is_subset(closures[bigger])


def test_implication_holds_iff_conclusion_inside_closure():
    """Exhaustive over all premise/conclusion pairs of an 8-attribute
    context."""
    rows = [((o * 40503) ^ (o << 5)) & 0xFF for o in range(9)]
    ctx = FormalContext.from_row_masks(9, 8, rows)
    closures = [closure(ctx, IndexSet.from_mask(8, m)).mask for m in range(256)]
    for pmask, cmask in itertools.product(range(256), range(256)):
        premise = IndexSet.from_mask(8, pmask)
        conclusion = IndexSet.from_mask(8, cmask)
        assert implication_holds(ctx, premise, conclusion) == \
            (cmask & ~closures[pmask] == 0)
