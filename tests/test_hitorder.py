import functools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftbtrace.geom import HitContext, HitDesc, less


def test_distance_dominates():
    a = HitDesc(t=1.0, prim=7, geom=3, inst=2)
    b = HitDesc(t=2.0, prim=0, geom=0, inst=0)
    assert less(a, b)
    assert not less(b, a)


def test_instance_breaks_distance_ties_before_geom_and_prim():
    a = HitDesc(t=5.0, prim=4, geom=1, inst=0)
    b = HitDesc(t=5.0, prim=9, geom=0, inst=1)
    assert less(a, b)  # inst 0 < 1 decides despite larger geom/prim


def test_equal_descriptors_compare_false_both_ways():
    a = HitDesc(t=5.0, prim=1, geom=2, inst=3)
    assert not less(a, a)
    assert not less(HitDesc(t=5.0, prim=1, geom=2, inst=3), a)


def test_geom_then_prim_priority():
    assert less(HitDesc(t=5.0, prim=9, geom=0, inst=1), HitDesc(t=5.0, prim=0, geom=1, inst=1))
    assert less(HitDesc(t=5.0, prim=0, geom=2, inst=1), HitDesc(t=5.0, prim=1, geom=2, inst=1))


def test_nan_rejected_at_construction():
    with pytest.raises(ValueError):
        HitDesc(t=math.nan, prim=0, geom=0, inst=0)


def test_infinite_sentinels_allowed():
    h = HitDesc(t=-math.inf, prim=-1, geom=-1, inst=-1)
    assert less(h, HitDesc(t=0.0, prim=0, geom=0, inst=0))


def test_sort_reversed():
    hits = [HitDesc(t=float(t), prim=0, geom=0, inst=0) for t in range(5, 0, -1)]
    assert sorted(hits) == sorted(hits, key=lambda h: h.t)


def test_sort_is_permutation_invariant():
    rng = random.Random(42)
    base = [
        HitDesc(t=rng.choice([1.0, 2.0, 2.0, 3.0]), prim=rng.randrange(4), geom=rng.randrange(3), inst=rng.randrange(3))
        for _ in range(24)
    ]
    want = sorted(base)
    for _ in range(50):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == want


_descs = st.builds(
    HitDesc,
    t=st.sampled_from([0.5, 1.0, 1.0, 2.0, 2.5]),
    prim=st.integers(0, 3),
    geom=st.integers(0, 2),
    inst=st.integers(0, 2),
)


@given(_descs, _descs, _descs)
def test_strict_total_order_laws(a, b, c):
    assert not less(a, a)  # irreflexive
    if less(a, b):
        assert not less(b, a)  # asymmetric
    if a != b:
        assert less(a, b) != less(b, a)  # total
    if less(a, b) and less(b, c):
        assert less(a, c)  # transitive


_edge_descs = st.builds(
    HitDesc,
    t=st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, 1.0, -2.5]),
    prim=st.integers(-1, 2),
    geom=st.integers(-1, 2),
    inst=st.integers(-1, 2),
)


def _reference_less(a, b):
    """The hit order written out field by field, independent of the tuple layout."""
    if a.t != b.t:
        return a.t < b.t
    if a.inst != b.inst:
        return a.inst < b.inst
    if a.geom != b.geom:
        return a.geom < b.geom
    if a.prim != b.prim:
        return a.prim < b.prim
    return False


@given(_edge_descs, _edge_descs)
def test_tuple_comparison_is_the_hit_order(a, b):
    # the multi-hit any-hit program compares and sorts plain ctx[:4] tuples
    assert less(a, b) == (a < b) == (tuple(a) < tuple(b)) == _reference_less(a, b)


_sentinels = st.builds(
    HitDesc, t=st.sampled_from([-math.inf, -0.0, 0.0]), prim=st.just(-1), geom=st.just(-1), inst=st.just(-1)
)


@given(st.lists(st.one_of(_edge_descs, _sentinels), max_size=12))
def test_sort_hits_is_the_reference_sort(hits):
    want = sorted(hits, key=functools.cmp_to_key(lambda a, b: _reference_less(b, a) - _reference_less(a, b)))
    got = sorted(hits)
    assert got == want
    # ±0.0 compare equal, so equal hits may differ in the sign of t; the
    # sort is stable, so each keeps its input position among its equals
    assert [math.copysign(1.0, h.t) for h in got] == [math.copysign(1.0, h.t) for h in want]


def test_a_hit_context_leads_with_the_hit_desc_fields():
    assert HitContext._fields[:4] == HitDesc._fields
