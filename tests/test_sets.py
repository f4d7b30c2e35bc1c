import pytest
from hypothesis import given
from hypothesis import strategies as st

from implbases import IndexSet
from implbases.sets import mask_members, mask_order_key


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
        IndexSet(3, [0]) | IndexSet(4, [0])


def test_immutability():
    s = IndexSet(3, [0])
    with pytest.raises(AttributeError):
        s.mask = 7


def test_empty_and_full():
    assert not IndexSet(4)
    assert IndexSet.full(4).members == (0, 1, 2, 3)
    assert IndexSet.full(0).members == ()


@given(set_pairs())
def test_union_intersection_laws(pair):
    a, b = pair
    assert a | a == a
    assert a & a == a
    assert a | b == b | a
    assert a & b == b & a
    assert (a | b) & a == a
    assert (a & b).is_subset(a)
    assert a.is_subset(a | b)


@given(set_pairs())
def test_complement_involution_and_de_morgan(pair):
    a, b = pair
    assert a.complement().complement() == a
    assert (a | b).complement() == a.complement() & b.complement()
    assert (a - b) == a & b.complement()


@given(set_pairs())
def test_subset_consistent_with_members(pair):
    a, b = pair
    assert a.is_subset(b) == set(a.members).issubset(b.members)
    assert a.intersects(b) == bool(set(a.members) & set(b.members))


def test_add_remove():
    s = IndexSet(4, [1])
    assert s.add(2).members == (1, 2)
    assert s.remove(1).members == ()
    assert s.members == (1,)  # unchanged
    with pytest.raises(ValueError):
        s.add(4)


def test_sort_key_is_lexicographic_by_members():
    # {a1,a3} precedes {a2} by first member, despite larger mask
    a13 = IndexSet(3, [0, 2])
    a2 = IndexSet(3, [1])
    assert sorted([a2, a13], key=lambda s: s.members) == [a13, a2]


# the empty set, small masks, and masks of 63, 64 and 65 bits
EDGE_MASKS = [0, 63, 64, 65, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64,
              (1 << 65) - 1, 1 << 65]


@given(st.lists(st.integers(min_value=1, max_value=130).flatmap(
    lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)),
    max_size=30))
def test_mask_order_key_orders_masks_as_their_member_tuples(masks):
    masks = masks + EDGE_MASKS
    assert (sorted(masks, key=mask_order_key)
            == sorted(masks, key=mask_members))
    distinct = set(masks)  # one key per set, so no two sets tie
    assert len(set(map(mask_order_key, distinct))) == len(distinct)
