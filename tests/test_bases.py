import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from implbases import (FormalContext, Implication, ImplicationBase, IndexSet,
                       SingleParamSpec, attribute_hypergraph,
                       format_implications, gen_single, minimal_transversals,
                       proper_premise_base, proper_premises_of, stem_base)
from implbases.bases import _closure_mask, _premise_edges, premise_counts
from implbases.hypergraph import (_minimize_masks, _transversal_array,
                                  _transversal_masks)
from implbases.sets import sorted_sets

from conftest import attribute_names, implication_bases, random_contexts
from oracles import (BRUTE_FORCE_PSEUDO_INTENT_LIMIT,
                     brute_force_proper_premises, brute_force_pseudo_intents,
                     close_fixpoint, close_once, closure, column_mask,
                     implication_holds, listed_implications,
                     merged_proper_premise_base, next_closure_stem)


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
            full = column_mask(ctx, a) == (1 << ctx.n_objects) - 1
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


@given(small_contexts(max_objects=6, max_attributes=6))
@example(FormalContext.from_row_masks(0, 4, []))
@example(FormalContext.from_row_masks(5, 3, [0b101, 0b011, 0b101, 0b101, 0]))
@settings(max_examples=200, deadline=None)
def test_closure_mask_matches_oracle_closure(ctx):
    n = ctx.n_attributes
    for x in range(1 << n):
        assert _closure_mask(ctx, x) == closure(ctx, IndexSet.from_mask(n, x)).mask


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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_format_matches_the_member_tuple_listing(data):
    base = data.draw(implication_bases())
    names = data.draw(attribute_names(base.n_attributes))
    assert format_implications(base, names) == listed_implications(base, names)


@pytest.mark.parametrize("n", [63, 64, 65, 70])
def test_proper_base_and_listing_match_the_references_at_the_dtype_switch(n):
    # masks of uint64 (63, 64 attributes) and of Python ints (65, 70),
    # with the top attribute in use
    for seed in range(3):
        ctx = gen_single(SingleParamSpec(5, n, 0.6, seed=seed))
        base = proper_premise_base(ctx)
        assert base == merged_proper_premise_base(ctx)
        assert max(p | c for p, c in base.mask_pairs()) >> n - 1
        assert (format_implications(base, ctx.attribute_names)
                == listed_implications(base, ctx.attribute_names))


def test_proper_base_matches_the_dict_merge(toy_context):
    for ctx in [toy_context, FormalContext([[1, 1, 1]]), _contranominal(5),
                FormalContext.from_row_masks(0, 3, []),
                FormalContext.from_row_masks(2, 0, [0, 0])] + random_contexts(
                    60, max_objects=14, max_attributes=12, base_seed=13):
        assert proper_premise_base(ctx) == merged_proper_premise_base(ctx)


def test_proper_premises_are_the_hypergraph_transversals_without_a(toy_context):
    # the public route (each attribute's own hypergraph, minimized with
    # the attribute in, less the transversal {a}) against the engine's
    # route (every attribute's edges less itself from ``_premise_edges``)
    for ctx in [toy_context] + random_contexts(40, base_seed=11):
        n = ctx.n_attributes
        for a, edges in enumerate(_premise_edges(ctx.row_masks, n)):
            family = _transversal_masks(n, edges)
            assert proper_premises_of(ctx, a) == sorted_sets(
                n, _transversal_array(n, [family]).tolist())
    for a in (5, -1):
        message = rf"^attribute {a} outside universe 5$"
        with pytest.raises(ValueError, match=message):
            attribute_hypergraph(toy_context, a)
        with pytest.raises(ValueError, match=message):
            proper_premises_of(toy_context, a)


def reduced_edges(ctx):
    """Each attribute's own minimized edges, less the attribute."""
    n = ctx.n_attributes
    return [[e ^ 1 << a for e in
             _minimize_masks(attribute_hypergraph(ctx, a).edge_masks)]
            for a in range(n)]


@given(small_contexts(max_objects=8, max_attributes=8))
# an empty row; a full row; repeated rows; a full column (0) beside an
# empty one (3)
@example(FormalContext.from_row_masks(3, 4, [0, 0b0110, 0b0101]))
@example(FormalContext.from_row_masks(3, 4, [0b1111, 0b0110, 0b0101]))
@example(FormalContext.from_row_masks(4, 3, [0b011, 0b110, 0b011, 0b011]))
@example(FormalContext.from_row_masks(3, 4, [0b0011, 0b0101, 0b0111]))
@settings(max_examples=300, deadline=None)
def test_premise_edges_are_each_attributes_minimized_edges(ctx):
    # the same list in the same order as minimizing each attribute's own
    # edges, less the attribute: MMCS's search tree depends on the order
    assert _premise_edges(ctx.row_masks, ctx.n_attributes) == reduced_edges(ctx)


@pytest.mark.parametrize("m, n", [(8, 64), (8, 65), (12, 70)])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_premise_edges_past_64_attributes(m, n, p):
    ctx = gen_single(SingleParamSpec(m, n, p, seed=n))
    assert _premise_edges(ctx.row_masks, n) == reduced_edges(ctx)


def test_a_never_enters_its_premise_family():
    # every row missing attribute 0 also misses 2, so {2} -> 0: 0's
    # edges {0,1,2} and {0,2,3} lose 0, the root branches on {1,2}, 2
    # completes it and gives the premise {2}, and the child for 1 gives
    # {1,3}; {0} is not recorded but is counted
    rows = [0b1000, 0b0010, 0b0111]
    edges = _premise_edges(rows, 4)[0]
    assert edges == [0b0110, 0b1100]
    assert _transversal_masks(4, edges) == ([0, 0b0010], [0b0100, 0b1000])
    ctx = FormalContext.from_row_masks(3, 4, rows)
    assert members(proper_premises_of(ctx, 0)) == [(1, 3), (2,)]
    assert premise_counts(ctx)[0][0] == 3


def test_a_alone_completes_no_node_but_is_counted():
    # attribute 0's edges {0,1} and {0,2} meet in {0}: less 0 they meet
    # in nothing, so the root records no pair, while the count keeps {0}
    # as a transversal
    rows = [0b100, 0b010]
    assert _transversal_masks(3, _premise_edges(rows, 3)[0]) == ([0b010],
                                                                [0b100])
    ctx = FormalContext.from_row_masks(2, 3, rows)
    assert members(proper_premises_of(ctx, 0)) == [(1, 2)]
    assert premise_counts(ctx)[0][0] == 2
    # the edge {0} alone becomes the empty edge: no premise is left, and
    # {0} is still counted
    ctx = FormalContext.from_row_masks(2, 3, [0b110, 0b111])
    edges = _premise_edges(ctx.row_masks, 3)[0]
    assert edges == [0] and _transversal_masks(3, edges) == ([], [])
    assert proper_premises_of(ctx, 0) == []
    assert premise_counts(ctx)[0][0] == 1
    # a full column has no edge: the pair (0, 0) stands for {}
    assert _premise_edges(ctx.row_masks, 3)[1] == []
    assert members(proper_premises_of(ctx, 1)) == [()]
    assert premise_counts(ctx)[0][1] == 1


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
