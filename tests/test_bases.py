import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implbases import (FormalContext, Implication, ImplicationBase, IndexSet,
                       SingleParamSpec, attribute_hypergraph,
                       format_implications, gen_single, minimal_transversals,
                       proper_premise_base, proper_premises_of, stem_base)
from implbases.bases import premise_counts
from implbases.sets import sorted_sets

from conftest import random_contexts
from oracles import (BRUTE_FORCE_PSEUDO_INTENT_LIMIT,
                     brute_force_proper_premises, brute_force_pseudo_intents,
                     close_fixpoint, close_once, closure, implication_holds,
                     next_closure_stem)


def members(family):
    return [s.members for s in family]


def imp(n, premise, conclusion):
    return Implication(IndexSet(n, premise), IndexSet(n, conclusion))


def pair(premise, conclusion):
    """An implication as the (premise mask, conclusion mask) pair that
    ``ImplicationBase`` takes."""
    return (sum(1 << a for a in premise), sum(1 << a for a in conclusion))


# -- implication types ---------------------------------------------------------


def test_implication_stored_form_enforced():
    with pytest.raises(ValueError):
        imp(3, [0], [0, 1])  # overlapping conclusion
    with pytest.raises(ValueError):
        imp(3, [0], [])  # empty conclusion
    with pytest.raises(ValueError):
        Implication(IndexSet(3, [0]), IndexSet(4, [1]))


def test_base_rejects_duplicates_and_bad_kind():
    i = pair([0], [1])
    with pytest.raises(ValueError):
        ImplicationBase((i, i), "proper", 3)
    with pytest.raises(ValueError):
        ImplicationBase((i,), "direct", 3)


# -- attribute hypergraphs -------------------------------------------------------


def test_attribute_hypergraph_worked_example(toy_context):
    h1 = attribute_hypergraph(toy_context, 0)
    assert sorted(members(h1.edges)) == [
        (0, 1, 2), (0, 1, 3), (0, 2), (0, 4)]
    h2 = attribute_hypergraph(toy_context, 1)
    assert sorted(members(h2.edges)) == [(0, 1, 2), (0, 1, 3)]
    # every edge contains the attribute itself
    for a in range(5):
        for e in attribute_hypergraph(toy_context, a).edges:
            assert a in e


def test_attribute_hypergraph_full_column_is_edgeless():
    ctx = FormalContext([[1, 0], [1, 1]])
    assert attribute_hypergraph(ctx, 0).edges == ()


def test_attribute_hypergraph_preserves_duplicate_edges():
    ctx = FormalContext([[0, 1], [0, 1]])
    h = attribute_hypergraph(ctx, 0)
    assert members(h.edges) == [(0,), (0,)]


# -- proper premises --------------------------------------------------------------


def test_proper_premises_worked_example(toy_context):
    assert members(proper_premises_of(toy_context, 0)) == [(1, 2, 4), (2, 3, 4)]
    assert members(proper_premises_of(toy_context, 4)) == [(0, 2), (0, 3)]
    assert members(proper_premises_of(toy_context, 1)) == [(0,), (2, 3)]


def test_proper_premises_full_column():
    ctx = FormalContext([[1, 0], [1, 1]])
    assert members(proper_premises_of(ctx, 0)) == [()]


def test_brute_force_proper_premises_examples(toy_context):
    assert members(brute_force_proper_premises(toy_context, 0)) == [
        (1, 2, 4), (2, 3, 4)]
    assert members(brute_force_proper_premises(toy_context, 1)) == [(0,), (2, 3)]
    ctx = FormalContext([[1, 0], [1, 1]])
    assert members(brute_force_proper_premises(ctx, 0)) == [()]
    with pytest.raises(ValueError):
        brute_force_proper_premises(FormalContext.from_row_masks(1, 16, [0]), 0)


def test_trivial_transversal_structure(toy_context):
    """{a} is always a minimal transversal when edges exist, and no other
    minimal transversal contains a."""
    for a in range(5):
        h = attribute_hypergraph(toy_context, a)
        tv = minimal_transversals(h)
        if h.edges:
            assert IndexSet(5, [a]) in tv
        for s in tv:
            assert s == IndexSet(5, [a]) or a not in s


def test_proper_premise_base_worked_example(toy_context):
    base = proper_premise_base(toy_context)
    pairs = {(i.premise.members, i.conclusion.members) for i in base}
    assert ((2, 3), (1,)) in pairs          # a3 a4 -> a2
    by_premise = {i.premise.members: i.conclusion.members for i in base}
    assert by_premise[(0, 2)] == (3, 4)     # a1 a3 -> a4 a5 (a5 among them)
    assert 4 in by_premise[(0, 3)]          # a1 a4 -> ... a5
    assert base.kind == "proper"


def test_proper_premise_base_full_relation():
    ctx = FormalContext([[1, 1, 1], [1, 1, 1]])
    base = proper_premise_base(ctx)
    assert len(base) == 1
    assert base.implications[0].premise.members == ()
    assert base.implications[0].conclusion.members == (0, 1, 2)


def test_proper_premise_base_empty_relation_is_sound():
    ctx = FormalContext([[0] * 4 for _ in range(3)])
    base = proper_premise_base(ctx)
    for i in base:
        assert implication_holds(ctx, i.premise, i.conclusion)
    # construction applied literally: singleton premises for every other attribute
    assert {i.premise.members for i in base} == {(0,), (1,), (2,), (3,)}


def test_oracle_equivalence_on_random_contexts():
    full_column = FormalContext([[1, 0, 1], [1, 1, 0], [1, 0, 0]])
    empty_column = FormalContext([[0, 1, 1], [0, 1, 0], [0, 0, 1]])
    for ctx in random_contexts(60, base_seed=5) + [full_column, empty_column]:
        counts = premise_counts(ctx)[0]
        for a, count in enumerate(counts):
            premises = proper_premises_of(ctx, a)
            assert premises == brute_force_proper_premises(ctx, a)
            # the trivial transversal {a} is counted unless column a is full
            full = ctx.column_masks[a] == (1 << ctx.n_objects) - 1
            assert count == len(premises) + (not full)


def test_premise_minimality_on_random_contexts(toy_context):
    for ctx in [toy_context] + random_contexts(20, base_seed=6):
        masks = {a: {p.mask for p in proper_premises_of(ctx, a)}
                 for a in range(ctx.n_attributes)}
        for a, premises in masks.items():
            for p in premises:
                for e in IndexSet.from_mask(ctx.n_attributes, p):
                    sub = p & ~(1 << e)
                    # removing any element must break the premise property
                    edges = [((1 << ctx.n_attributes) - 1) & ~row
                             for row in ctx.row_masks if not (row >> a & 1)]
                    assert not all(sub & edge for edge in edges)


# -- implication-set closure --------------------------------------------------------


def test_close_once_examples(toy_context):
    base = proper_premise_base(toy_context)
    x = IndexSet(5, [2, 3])
    assert close_once(base, x) == closure(toy_context, x)
    closed = closure(toy_context, IndexSet(5, [0]))
    assert close_once(base, closed) == closed
    tiny = ImplicationBase((pair([], [0]),), "proper", 2)
    assert close_once(tiny, IndexSet(2)).members == (0,)


def test_close_fixpoint_examples(toy_context):
    stem = stem_base(toy_context)
    x = IndexSet(5, [2, 3])
    assert close_fixpoint(stem, x) == closure(toy_context, x)
    assert close_fixpoint(ImplicationBase((), "stem", 3), IndexSet(3, [1])).members == (1,)
    chain = ImplicationBase((pair([0], [1]), pair([1], [2])), "stem", 3)
    assert close_fixpoint(chain, IndexSet(3, [0])).members == (0, 1, 2)
    # close_once alone does not reach the chain's fixpoint
    assert close_once(chain, IndexSet(3, [0])).members == (0, 1)


def test_directness_exhaustive(toy_context):
    """Single-pass closure of the proper base equals context closure for
    every attribute subset."""
    for ctx in [toy_context] + random_contexts(30, base_seed=7):
        base = proper_premise_base(ctx)
        for mask in range(1 << ctx.n_attributes):
            x = IndexSet.from_mask(ctx.n_attributes, mask)
            assert close_once(base, x) == closure(ctx, x)


# -- stem base -------------------------------------------------------------------


def test_stem_base_full_relation():
    ctx = FormalContext([[1, 1], [1, 1]])
    base = stem_base(ctx)
    assert len(base) == 1
    assert base.implications[0].premise.members == ()
    assert base.implications[0].conclusion.members == (0, 1)
    assert members(brute_force_pseudo_intents(ctx)) == [()]


def test_stem_base_everything_closed_is_empty():
    # contranominal scale (each object misses exactly one attribute):
    # every attribute subset is closed, so there are no pseudo-intents
    ctx = FormalContext([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    for mask in range(8):
        x = IndexSet.from_mask(3, mask)
        assert closure(ctx, x) == x
    assert len(stem_base(ctx)) == 0
    assert brute_force_pseudo_intents(ctx) == []


def test_stem_base_matches_oracle(toy_context):
    for ctx in [toy_context] + random_contexts(60, base_seed=8):
        premises = sorted((i.premise for i in stem_base(ctx)),
                          key=lambda s: s.members)
        assert premises == brute_force_pseudo_intents(ctx)


def test_stem_base_sound_and_complete(toy_context):
    for ctx in [toy_context] + random_contexts(30, base_seed=9):
        base = stem_base(ctx)
        for i in base:
            assert implication_holds(ctx, i.premise, i.conclusion)
        for mask in range(1 << ctx.n_attributes):
            x = IndexSet.from_mask(ctx.n_attributes, mask)
            assert close_fixpoint(base, x) == closure(ctx, x)


def test_stem_not_larger_than_proper(toy_context):
    for ctx in [toy_context] + random_contexts(40, base_seed=10):
        stem = stem_base(ctx)
        proper = proper_premise_base(ctx)
        assert len(stem) <= proper.premise_count <= proper.pair_count


def test_single_attribute_degenerate_contexts():
    # with an object that has nothing, every subset is closed
    ctx = FormalContext([[0]])
    assert brute_force_pseudo_intents(ctx) == []
    assert len(stem_base(ctx)) == 0
    # with no objects at all, the empty set closes to the full set,
    # making it the one pseudo-intent
    ctx = FormalContext.from_row_masks(0, 1, [])
    assert members(brute_force_pseudo_intents(ctx)) == [()]
    base = stem_base(ctx)
    assert len(base) == 1 and base.implications[0].premise.members == ()
    assert base.implications[0].conclusion.members == (0,)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_stem_base_matches_next_closure_past_brute_force(p):
    # n = 13..22 attributes, beyond the brute-force oracle; the pairs
    # and their lectic order must be the reference's exactly
    assert BRUTE_FORCE_PSEUDO_INTENT_LIMIT < 13
    for n in range(13, 23):
        for objects in (n // 2 + 3, n):
            ctx = gen_single(SingleParamSpec(objects, n, p,
                                             seed=1000 * n + objects))
            assert stem_base(ctx).mask_pairs() == next_closure_stem(ctx)


@st.composite
def small_contexts(draw, max_objects=12, max_attributes=10):
    n = draw(st.integers(min_value=0, max_value=max_attributes))
    m = draw(st.integers(min_value=0, max_value=max_objects))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         min_size=m, max_size=m))
    return FormalContext.from_row_masks(m, n, rows)


@given(small_contexts())
@settings(max_examples=200, deadline=None)
def test_stem_base_matches_next_closure_and_brute_force(ctx):
    pairs = stem_base(ctx).mask_pairs()
    assert pairs == next_closure_stem(ctx)
    premises = sorted_sets(ctx.n_attributes, (p for p, _ in pairs))
    assert premises == brute_force_pseudo_intents(ctx)


def _contranominal(n):
    full = (1 << n) - 1
    return FormalContext.from_row_masks(n, n, [full ^ 1 << a for a in range(n)])


@pytest.mark.parametrize("ctx, expected", [
    (FormalContext.from_row_masks(0, 0, []), []),
    (FormalContext.from_row_masks(3, 0, [0, 0, 0]), []),
    (FormalContext.from_row_masks(0, 5, []), [(0, 0b11111)]),
    (FormalContext.from_row_masks(4, 6, [0b111111] * 4), [(0, 0b111111)]),
    (_contranominal(7), []),
], ids=["no-attributes-no-objects", "no-attributes", "no-objects",
        "full-relation", "contranominal"])
def test_stem_base_edge_contexts(ctx, expected):
    assert stem_base(ctx).mask_pairs() == expected
    assert next_closure_stem(ctx) == expected


# -- text format ------------------------------------------------------------------


def test_format_implications_stable(toy_context):
    text = format_implications(proper_premise_base(toy_context),
                               toy_context.attribute_names)
    lines = text.strip().split("\n")
    assert "a2 a3 a5 -> a1" in lines
    assert "a3 a4 a5 -> a1" in lines
    assert "a3 a4 -> a2" in lines
    assert lines == sorted(
        lines, key=lambda l: tuple(l.split(" -> ")[0].split()))


def test_format_empty_premise():
    ctx = FormalContext([[1, 1, 1]])
    text = format_implications(proper_premise_base(ctx), ctx.attribute_names)
    assert text == "-> a1 a2 a3\n"


def test_format_orders_by_member_tuples():
    # given out of order; a premise shared by two implications ties and
    # their conclusions decide, by member tuple, not by mask
    base = ImplicationBase((pair([1, 2], [3]), pair([0], [2]),
                            pair([0, 3], [1]), pair([0], [1, 3]),
                            pair([], [3])), "proper", 4)
    assert format_implications(base, ("a", "b", "c", "d")) == (
        "-> d\n"
        "a -> b d\n"
        "a -> c\n"
        "a d -> b\n"
        "b c -> d\n")


def test_format_empty_base():
    assert format_implications(ImplicationBase((), "stem", 2), ("a1", "a2")) == ""


def test_proper_premises_are_the_hypergraph_transversals_without_a(toy_context):
    for ctx in [toy_context] + random_contexts(40, base_seed=11):
        for a in range(ctx.n_attributes):
            expected = minimal_transversals(attribute_hypergraph(ctx, a))
            assert ([p.mask for p in proper_premises_of(ctx, a)]
                    == [s.mask for s in expected if s.mask != 1 << a])
    for a in (5, -1):
        message = rf"^attribute {a} outside universe 5$"
        with pytest.raises(ValueError, match=message):
            attribute_hypergraph(toy_context, a)
        with pytest.raises(ValueError, match=message):
            proper_premises_of(toy_context, a)


# -- the mask-pair base ----------------------------------------------------------


@pytest.mark.parametrize("pairs, kind, message", [
    ([(0b1000, 0b1)], "proper", "mask 0x8 has bits outside universe 3"),
    ([(0b1, 0b10000)], "proper", "mask 0x10 has bits outside universe 3"),
    ([(-1, 0b10)], "proper", "mask -0x1 has bits outside universe 3"),
    ([(0b1, -0b10)], "stem", "mask -0x2 has bits outside universe 3"),
    ([(0b1, 0)], "proper", "conclusion must be nonempty"),
    ([(0b11, 0b10)], "stem", "conclusion must exclude premise members"),
    ([(0b1, 0b10), (0b10, 0b1), (0b1, 0b10)], "proper", "duplicate implication"),
    ([(0b1, 0b10)], "direct", "unknown base kind 'direct'"),
    # the first fault in base order decides
    ([(0b1, 0b10), (0b1, 0b1), (0b10, 0)], "proper",
     "conclusion must exclude premise members"),
    ([(0b1, 0b10), (0b10, 0), (0b1, 0b1000)], "proper",
     "conclusion must be nonempty"),
    ([(0b1, 0b10), (0b1000, 0b1), (0b10, 0)], "proper",
     "mask 0x8 has bits outside universe 3"),
])
def test_both_constructors_refuse_with_one_text(pairs, kind, message):
    """The base's constructor and ``Implication`` refuse a faulty
    implication with one text, the base at its first faulty pair; a
    fault of the base alone (a duplicate, an unknown kind) has the
    base's own text."""
    with pytest.raises(ValueError) as err:
        ImplicationBase(pairs, kind, 3)
    assert str(err.value) == message
    for p, c in pairs:
        try:
            Implication(IndexSet.from_mask(3, p), IndexSet.from_mask(3, c))
        except ValueError as exc:
            assert str(exc) == message
            break


def test_implications_round_trip_to_mask_pairs(toy_context):
    for ctx in [toy_context] + random_contexts(20, base_seed=12):
        for base in (proper_premise_base(ctx), stem_base(ctx)):
            imps = base.implications
            assert all(isinstance(i, Implication) for i in imps)
            assert list(base) == list(imps)
            assert [(i.premise.mask, i.conclusion.mask)
                    for i in imps] == base.mask_pairs()
            assert {i.premise.universe for i in imps} <= {ctx.n_attributes}
            rebuilt = ImplicationBase(
                [(i.premise.mask, i.conclusion.mask) for i in imps],
                base.kind, ctx.n_attributes)
            assert rebuilt == base and hash(rebuilt) == hash(base)


def test_bases_from_implications_and_from_pairs_are_equal():
    pairs = [(0b011, 0b100), (0, 0b001), (0b100, 0b010)]
    from_pairs = ImplicationBase(pairs, "stem", 3)
    # a base rebuilt from the masks of the implications it yields
    from_imps = ImplicationBase(
        [(i.premise.mask, i.conclusion.mask) for i in from_pairs], "stem", 3)
    assert from_pairs == from_imps and hash(from_pairs) == hash(from_imps)
    assert from_pairs.mask_pairs() == pairs
    assert (len(from_pairs), from_pairs.premise_count,
            from_pairs.pair_count) == (3, 3, 3)
    # kind, universe and order are part of the value
    assert from_pairs != ImplicationBase(pairs, "proper", 3)
    assert from_pairs != ImplicationBase(pairs, "stem", 4)
    assert from_pairs != ImplicationBase(pairs[::-1], "stem", 3)
    with pytest.raises(AttributeError):
        from_pairs.kind = "proper"


def test_empty_base_counts():
    for base in (ImplicationBase((), "proper", 3),
                 ImplicationBase((), "stem", 0)):
        assert (len(base), base.premise_count, base.pair_count) == (0, 0, 0)
        assert base.implications == () and base.mask_pairs() == []
