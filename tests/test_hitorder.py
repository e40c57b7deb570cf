import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ftbtrace.hitorder import HitDesc, less, order_key, sort_hits


def test_distance_dominates():
    a = HitDesc(1.0, 7, 3, 2)
    b = HitDesc(2.0, 0, 0, 0)
    assert less(a, b)
    assert not less(b, a)


def test_instance_breaks_distance_ties_before_geom_and_prim():
    a = HitDesc(5.0, 4, 1, 0)
    b = HitDesc(5.0, 9, 0, 1)
    assert less(a, b)  # inst 0 < 1 decides despite larger geom/prim


def test_equal_descriptors_compare_false_both_ways():
    a = HitDesc(5.0, 1, 2, 3)
    assert not less(a, a)
    assert not less(HitDesc(5.0, 1, 2, 3), a)


def test_geom_then_prim_priority():
    assert less(HitDesc(5.0, 9, 0, 1), HitDesc(5.0, 0, 1, 1))
    assert less(HitDesc(5.0, 0, 2, 1), HitDesc(5.0, 1, 2, 1))


def test_nan_rejected_at_construction():
    with pytest.raises(ValueError):
        HitDesc(math.nan, 0, 0, 0)


def test_infinite_sentinels_allowed():
    h = HitDesc(-math.inf, -1, -1, -1)
    assert less(h, HitDesc(0.0, 0, 0, 0))


def test_sort_empty():
    assert sort_hits([]) == []


def test_sort_reversed():
    hits = [HitDesc(float(t), 0, 0, 0) for t in range(5, 0, -1)]
    assert sort_hits(hits) == sorted(hits, key=lambda h: h.t)


def test_sort_is_permutation_invariant():
    rng = random.Random(42)
    base = [
        HitDesc(rng.choice([1.0, 2.0, 2.0, 3.0]), rng.randrange(4), rng.randrange(3), rng.randrange(3))
        for _ in range(24)
    ]
    want = sort_hits(base)
    for _ in range(50):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert sort_hits(shuffled) == want


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
    """The hit order written out field by field, independent of ``order_key``."""
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
def test_order_key_tuple_comparison_is_less(a, b):
    # the multi-hit any-hit program compares and sorts plain key tuples
    assert less(a, b) == (order_key(a) < order_key(b)) == _reference_less(a, b)
