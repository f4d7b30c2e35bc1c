import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from implbases import IndexSet
from implbases.sets import mask_dtype, mask_members, member_ranks, sorted_sets


def members(universe):
    return st.sets(st.integers(min_value=0, max_value=universe - 1))


@st.composite
def set_pairs(draw):
    universe = draw(st.integers(min_value=1, max_value=40))
    a = IndexSet(universe, draw(members(universe)))
    b = IndexSet(universe, draw(members(universe)))
    return a, b


def test_construction_and_members():
    s = IndexSet(5, [3, 0])
    assert s.members == (0, 3)
    assert 0 in s and 3 in s and 2 not in s
    assert len(s) == 2
    assert list(s) == [0, 3]


def test_out_of_range_member_rejected():
    with pytest.raises(ValueError):
        IndexSet(3, [3])
    with pytest.raises(ValueError):
        IndexSet(3, [-1])
    with pytest.raises(ValueError):
        IndexSet.from_mask(3, 1 << 3)


def test_universe_mismatch_rejected():
    with pytest.raises(ValueError):
        IndexSet(3, [0]).is_subset(IndexSet(4, [0]))


def test_immutability():
    s = IndexSet(3, [0])
    with pytest.raises(AttributeError):
        s.mask = 7


def test_empty_and_full():
    assert not IndexSet(4)
    assert IndexSet.from_mask(4, 0b1111).members == (0, 1, 2, 3)
    assert IndexSet.from_mask(0, 0).members == ()


@given(set_pairs())
def test_subset_consistent_with_members(pair):
    a, b = pair
    assert a.is_subset(b) == set(a.members).issubset(b.members)


def test_sort_key_is_lexicographic_by_members():
    # {a1,a3} precedes {a2} by first member, despite larger mask
    a13 = IndexSet(3, [0, 2])
    a2 = IndexSet(3, [1])
    assert sorted([a2, a13], key=lambda s: s.members) == [a13, a2]
    assert sorted_sets(3, [a2.mask, a13.mask]) == [a13, a2]


# the empty set, small masks, and masks of 63, 64 and 65 bits
EDGE_MASKS = [0, 63, 64, 65, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64,
              (1 << 65) - 1, 1 << 65]


@given(st.lists(st.integers(min_value=1, max_value=130).flatmap(
    lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)),
    max_size=30))
def test_member_ranks_order_masks_as_their_member_tuples(masks):
    # as uint64 ranks over 64 attributes and as Python ints over 130
    for universe in (64, 130):
        family = [m for m in masks + EDGE_MASKS if not m >> universe]
        ranks = member_ranks(np.array(family, mask_dtype(universe)),
                             universe).tolist()
        key = dict(zip(family, ranks)).__getitem__
        assert sorted(family, key=key) == sorted(family, key=mask_members)
        distinct = set(family)  # one key per set, so no two sets tie
        assert len(set(map(key, distinct))) == len(distinct)


@pytest.mark.parametrize("universe", [0, 1, 2, 5, 10])
def test_member_ranks_number_the_subsets_in_member_tuple_order(universe):
    masks = sorted(range(1 << universe), key=mask_members)
    for dtype in (np.uint64, object):
        ranks = member_ranks(np.array(masks, dtype), universe)
        assert ranks.dtype == dtype
        assert ranks.tolist() == list(range(1 << universe))


@pytest.mark.parametrize("universe", [63, 64, 65, 70])
def test_member_ranks_fill_the_dtype_at_its_edges(universe):
    # the full set and the largest singleton rank last among their
    # neighbours: 2**universe - 1 is the top rank, which for 64
    # attributes is the top of uint64
    full, top = (1 << universe) - 1, 1 << universe - 1
    masks = [0, 1, full, top, full ^ top, full ^ 1]
    ranks = member_ranks(np.array(masks, mask_dtype(universe)),
                         universe).tolist()
    assert ranks[masks.index(top)] == (1 << universe) - 1
    assert sorted(masks, key=dict(zip(masks, ranks)).__getitem__) == sorted(
        masks, key=mask_members)
