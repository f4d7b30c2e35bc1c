import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implbases import (Hypergraph, IndexSet, SingleParamSpec,
                       attribute_hypergraph, gen_single, minimal_transversals,
                       normalize)
from implbases.hypergraph import (_minimize_masks, _transversal_array,
                                  _transversal_masks)

from oracles import brute_force_transversals, is_transversal


def hg(n, *edges):
    return Hypergraph(n, [IndexSet(n, e) for e in edges])


def as_member_sets(family):
    return [s.members for s in family]


@st.composite
def random_hypergraphs(draw, max_vertices=10, max_edges=10):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    masks = [draw(st.integers(min_value=0, max_value=(1 << n) - 1))
             for _ in range(n_edges)]
    return Hypergraph.from_masks(n, masks)


def test_edge_universe_checked():
    with pytest.raises(ValueError):
        Hypergraph(3, [IndexSet(4, [0])])


def test_normalize_removes_supersets():
    assert as_member_sets(normalize(hg(3, [1], [1, 2])).edges) == [(1,)]


def test_normalize_dedupes():
    assert as_member_sets(normalize(hg(3, [1, 2], [1, 2])).edges) == [(1, 2)]


def test_normalize_edgeless():
    assert normalize(hg(3)).edges == ()


def test_normalize_preserves_transversals():
    h = hg(4, [0, 1], [0, 1, 2], [3], [3, 1])
    assert minimal_transversals(normalize(h)) == minimal_transversals(h)


def test_is_transversal():
    h = hg(4, [1, 2], [2, 3])
    assert is_transversal(h, IndexSet(4, [2]))
    assert not is_transversal(h, IndexSet(4, [1]))
    assert is_transversal(hg(4), IndexSet(4))  # vacuous


def test_minimal_transversals_worked_example():
    # the 4-edge hypergraph of the running example's first attribute
    h = hg(5, [0, 2], [0, 4], [0, 1, 2], [0, 1, 3])
    assert as_member_sets(minimal_transversals(h)) == [
        (0,), (1, 2, 4), (2, 3, 4)]


def test_minimal_transversals_edgeless_and_empty_edge():
    assert as_member_sets(minimal_transversals(hg(3))) == [()]
    assert minimal_transversals(hg(3, [])) == []
    # an empty edge kills everything, even alongside normal edges
    assert minimal_transversals(hg(3, [0, 1], [])) == []


def test_minimal_transversals_two_edge_case():
    assert as_member_sets(minimal_transversals(hg(4, [1, 2], [2, 3]))) == [
        (1, 3), (2,)]


def test_brute_force_matches_trivial_cases():
    assert as_member_sets(brute_force_transversals(hg(3, [1], [2]))) == [(1, 2)]
    assert as_member_sets(brute_force_transversals(hg(3, [0, 1, 2]))) == [
        (0,), (1,), (2,)]
    h = hg(5, [0, 2], [0, 4], [0, 1, 2], [0, 1, 3])
    assert brute_force_transversals(h) == minimal_transversals(h)


def test_brute_force_scale_guard():
    with pytest.raises(ValueError):
        brute_force_transversals(hg(21))


def test_output_order_is_lexicographic_and_deterministic():
    h = hg(4, [0, 3], [1, 2])
    out = minimal_transversals(h)
    keys = [s.members for s in out]
    assert keys == sorted(keys)
    assert minimal_transversals(h) == out


@given(random_hypergraphs())
@settings(max_examples=300, deadline=None)
def test_oracle_equivalence(h):
    assert minimal_transversals(h) == brute_force_transversals(h)


@given(random_hypergraphs())
@settings(max_examples=200, deadline=None)
def test_only_the_edgeless_hypergraph_has_a_single(h):
    # a completed transversal leaves the kernel in a pair: the vertices
    # that complete a node, or a one-edge-left child's free candidates
    n, edges = h.vertex_count, _minimize_masks(h.edge_masks)
    singles, prefixes, frees = _transversal_masks(n, edges)
    assert singles == ([] if edges else [0])
    assert all(frees) and len(prefixes) == len(frees)


@given(random_hypergraphs())
@settings(max_examples=200, deadline=None)
def test_antichain_soundness_minimality(h):
    out = minimal_transversals(h)
    masks = [s.mask for s in out]
    assert len(set(masks)) == len(masks)
    for i, s in enumerate(out):
        assert is_transversal(h, s)
        for j, t in enumerate(out):
            if i != j:
                assert not t.is_subset(s)
        for e in s.members:  # no proper subset is a transversal
            assert not is_transversal(
                h, IndexSet.from_mask(h.vertex_count, s.mask & ~(1 << e)))


@given(random_hypergraphs(max_vertices=8, max_edges=8))
@settings(max_examples=200, deadline=None)
def test_duality_identity(h):
    tr = minimal_transversals(h)
    tr_tr = minimal_transversals(Hypergraph(h.vertex_count, tr))
    assert tr_tr == list(normalize(h).edges)


def test_seeded_oracle_equivalence_checks_hundreds_of_cases():
    rng = random.Random(1234)
    for _ in range(500):
        n = rng.randint(1, 12)
        edges = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
        h = Hypergraph.from_masks(n, edges)
        assert minimal_transversals(h) == brute_force_transversals(h)


def test_deep_transversal_needs_no_recursion():
    # one vertex per edge: the only minimal transversal holds all 1,500
    # vertices, more than Python's default recursion limit
    n = 1500
    out = minimal_transversals(Hypergraph.from_masks(n, [1 << v for v in range(n)]))
    assert [s.mask for s in out] == [(1 << n) - 1]


def test_attribute_hypergraphs_past_the_oracle():
    # 26 attributes is beyond brute_force_transversals, so check the
    # defining properties directly: each output hits every edge, each
    # member has a private edge (hit by no other member), no repeats
    for seed in (11, 12):
        ctx = gen_single(SingleParamSpec(26, 26, 0.5, seed=seed))
        for a in range(ctx.n_attributes):
            h = attribute_hypergraph(ctx, a)
            edges = normalize(h).edge_masks
            masks = [s.mask for s in minimal_transversals(h)]
            assert masks and len(set(masks)) == len(masks)
            for t in masks:
                private = 0
                for e in edges:
                    hit = e & t
                    assert hit
                    if hit & (hit - 1) == 0:
                        private |= hit
                assert private == t
    rng = random.Random(2026)
    for _ in range(40):
        h = Hypergraph.from_masks(14, [rng.getrandbits(14) for _ in range(20)])
        tr = minimal_transversals(h)
        assert minimal_transversals(Hypergraph(14, tr)) == list(normalize(h).edges)


def test_small_and_degenerate_inputs_match_the_oracle():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 10)
        normal = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 2))]
        for edges in (normal,                          # 0, 1 or 2 edges
                      normal + normal,                 # duplicates
                      normal[:1] * 3,                  # one edge, repeated
                      normal + [0],                    # an empty edge last
                      [0] + normal):                   # an empty edge first
            h = Hypergraph.from_masks(n, edges)
            assert minimal_transversals(h) == brute_force_transversals(h)


def test_dead_end_with_blocked_candidates_matches_the_oracle():
    # edges {0,2} {1,2} {0,3} {1,3}: the search reaches S = {0, 2} with
    # {1,3} uncovered; 3 was left to a sibling and 1 is blocked (adding
    # it would leave 2 without a private edge), so the node is dropped
    h = hg(4, [0, 2], [1, 2], [0, 3], [1, 3])
    assert as_member_sets(minimal_transversals(h)) == [(0, 1), (2, 3)]
    assert minimal_transversals(h) == brute_force_transversals(h)
    # the same dead end with three more edges, over a larger universe
    h = hg(7, [0, 2], [1, 2], [0, 3], [1, 3], [3, 6], [3, 4], [0, 1, 4, 5, 6])
    assert minimal_transversals(h) == brute_force_transversals(h)


def test_one_edge_left_emits_only_unblocked_candidates():
    # the root branches on {0,1,2}; the child for 1 leaves only {0,2,3}
    # uncovered and is finished in place: 0 is a candidate but blocked
    # (it lies in both edges of 1's crit set, so {0,1,3} would not be
    # minimal), 2 was left to its later sibling, and 3 completes {1,3}
    h = hg(4, [0, 1, 2], [0, 1, 3], [0, 2, 3])
    expected = [(0,), (1, 2), (1, 3), (2, 3)]
    assert as_member_sets(minimal_transversals(h)) == expected
    assert as_member_sets(brute_force_transversals(h)) == expected


@pytest.mark.parametrize("m, n", [(30, 30), (8, 64), (8, 65)])
def test_no_repeated_transversal(m, n):
    # sweeps count transversals off the compressed family and with len(),
    # and neither the engine, the expansion nor sorted_sets deduplicates,
    # so no mask may repeat; at 64 and 65 attributes some free candidate
    # is the top attribute (bit 63 of a uint64, bit 64 of a Python int)
    ctx = gen_single(SingleParamSpec(m, n, 0.5, seed=n))
    top_free = False
    for a in range(n):
        edges = _minimize_masks(attribute_hypergraph(ctx, a).edge_masks)
        family = _transversal_masks(n, edges)
        singles, _, frees = family
        masks = _transversal_array(n, [family]).tolist()
        assert len(set(masks)) == len(masks)
        assert singles == ([] if edges else [0])
        assert len(masks) == len(singles) + sum(f.bit_count() for f in frees)
        top_free |= any(f >> (n - 1) for f in frees)
    assert top_free or n == 30


def bit_by_bit(families):
    """The masks of compressed families, expanded one bit at a time."""
    out = []
    for singles, prefixes, frees in families:
        out += singles
        for t, f in zip(prefixes, frees):
            out += [t | 1 << i for i in range(f.bit_length()) if f >> i & 1]
    return out


@pytest.mark.parametrize("n, families, dtype", [
    # bit 63 in singles, prefixes and frees, and a free of all 64 bits
    (64, [([1 << 63, 6], [1 << 63, 0, 1 << 5], [3, (1 << 64) - 1, 1 << 63])],
     np.uint64),
    # bits 64-69, over two families, in an object array
    (70, [([(1 << 70) - 1], [1 << 69], [(1 << 64) | (1 << 68) | 1]),
          ([], [3 << 64, 1], [(1 << 69) | (1 << 66), (1 << 65) - 2])],
     object),
    (5, [([3, 6], [], [])], np.uint64),  # no pairs
    (5, [([], [8], [7]), ([1, 2], [], [])], np.uint64),  # a family of pairs only
    (5, [([0], [], [])], np.uint64),  # an edgeless hypergraph's {}
    (5, [([], [], [])], np.uint64),  # a hypergraph with an empty edge
    (70, [([], [], [])], object),
    (3, [], np.uint64),
])
def test_transversal_array_expands_every_free_bit(n, families, dtype):
    out = _transversal_array(n, families)
    assert out.dtype == dtype
    masks = out.tolist()
    assert all(type(m) is int for m in masks)
    assert sorted(masks) == sorted(bit_by_bit(families))


def test_dense_hypergraphs_match_the_oracle():
    # edges hold about three vertices in four, so many vertices are
    # blocked below the root
    rng = random.Random(4711)
    for _ in range(20):
        n = rng.randint(12, 14)
        edges = [rng.getrandbits(n) | rng.getrandbits(n)
                 for _ in range(rng.randint(25, 40))]
        h = Hypergraph.from_masks(n, edges)
        assert minimal_transversals(h) == brute_force_transversals(h)


def test_attribute_hypergraph_gives_its_attribute_once_and_no_superset():
    # every edge of attribute a's hypergraph contains a, so {a} is a
    # minimal transversal and a is blocked everywhere below the root
    ctx = gen_single(SingleParamSpec(20, 14, 0.5, seed=5))
    for a in range(ctx.n_attributes):
        h = attribute_hypergraph(ctx, a)
        assert h.edges
        masks = [s.mask for s in minimal_transversals(h)]
        assert masks.count(1 << a) == 1
        assert not any(m & (1 << a) and m != 1 << a for m in masks)
