import functools
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st_

from fpw.bs import BS23, bs_is_trivial, w_family
from fpw.harness import (
    ExplicitFiniteSet,
    _linear_witness,
    cantor_pair,
    cantor_tuple,
    cantor_unpair,
    cantor_untuple,
    compress_stream,
    quotient_tower_presentation,
    recover_cardinality,
    tower_oracle,
)

from conftest import w


# ---------------------------------------------------------------- pairing


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(0, 1) == 2
    assert cantor_pair(3, 5) == 41


def test_cantor_pair_rejects_negatives():
    with pytest.raises(ValueError):
        cantor_pair(-1, 0)
    with pytest.raises(ValueError):
        cantor_unpair(-1)


def test_cantor_roundtrip_small_grid():
    for x in range(40):
        for y in range(40):
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)


def test_cantor_pair_is_bijective_on_initial_segment():
    # the pairs with x + y <= 100 hit exactly 0..5150 once each
    values = sorted(
        cantor_pair(x, y) for s in range(101) for y in range(s + 1) for x in [s - y]
    )
    assert values == list(range(5151))


@settings(max_examples=200, deadline=None)
@given(st_.integers(0, 10**6))
def test_cantor_unpair_is_a_section(z):
    x, y = cantor_unpair(z)
    assert cantor_pair(x, y) == z


def test_cantor_tuple_examples():
    assert cantor_tuple((7,)) == 7
    assert cantor_tuple((3, 5)) == 41
    assert cantor_tuple((1, 2, 3)) == cantor_pair(cantor_pair(1, 2), 3)


def test_cantor_tuple_roundtrip():
    for xs in [(0,), (5,), (0, 0), (2, 9), (1, 2, 3), (4, 0, 0, 7)]:
        assert cantor_untuple(cantor_tuple(xs), len(xs)) == xs


def test_cantor_tuple_rejects_empty():
    with pytest.raises(ValueError):
        cantor_tuple(())
    with pytest.raises(ValueError):
        cantor_untuple(0, 0)


# ---------------------------------------------------------------- compression


def test_compress_stream_examples():
    assert list(compress_stream([5, 3, 5, 9])) == [0, 1, 2]
    assert list(compress_stream([])) == []
    assert list(compress_stream([2, 2, 2, 2])) == [0]


def test_compress_stream_is_lazy_on_infinite_input():
    naturals = itertools.count()
    assert list(itertools.islice(compress_stream(naturals), 10)) == list(range(10))


def test_compress_stream_output_is_an_initial_segment():
    out = list(compress_stream([9, 1, 1, 4, 9, 0, 4, 2]))
    assert out == list(range(len(out)))


def test_compress_stream_rejects_negatives():
    with pytest.raises(ValueError):
        list(compress_stream([3, -1]))


# ---------------------------------------------------------------- explicit finite sets


def test_finite_set_of_and_parse():
    assert tuple(ExplicitFiniteSet.of([7, 4, 4])) == (4, 7)
    assert tuple(ExplicitFiniteSet.parse("4,7")) == (4, 7)
    assert ExplicitFiniteSet.parse(" 4 , 7 ") == ExplicitFiniteSet.parse("7,4")
    assert tuple(ExplicitFiniteSet.parse("")) == ()


def test_finite_set_protocols():
    s = ExplicitFiniteSet.of([2, 0, 5])
    assert len(s) == 3
    assert list(s) == [0, 2, 5]
    assert 5 in s and 1 not in s


def test_finite_set_validation():
    with pytest.raises(ValueError):
        ExplicitFiniteSet((3, 1))
    with pytest.raises(ValueError):
        ExplicitFiniteSet((1, 1))
    with pytest.raises(ValueError):
        ExplicitFiniteSet.of([-2])


# ---------------------------------------------------------------- the tower


def test_tower_oracle_level_zero():
    oracle = tower_oracle(0)
    assert oracle(w(""))
    assert oracle(w("s^-1 t^2 s t^-3"))
    assert not oracle(w_family(1))
    assert not oracle(w("t"))


def test_tower_oracle_separates_levels():
    for k in range(4):
        oracle = tower_oracle(k)
        for j in range(5):
            assert oracle(w_family(j)) == (j <= k)


def test_tower_oracle_rejects_negative_level():
    with pytest.raises(ValueError):
        tower_oracle(-1)


def test_tower_presentation_of_empty_set():
    pres = quotient_tower_presentation(ExplicitFiniteSet.of([]))
    rels = list(pres.relator_source())
    assert rels == [w("s^-1 t^2 s t^-3")]


def test_tower_presentation_relators_are_sound():
    # every streamed relator must be trivial in the level-|W| quotient
    for elements in [[4, 7], [0], [1, 2, 3]]:
        W = ExplicitFiniteSet.of(elements)
        oracle = tower_oracle(len(W))
        pres = quotient_tower_presentation(W)
        for rel in itertools.islice(pres.relator_source(), 60):
            assert oracle(rel)


def test_tower_presentation_streams_w1_for_singletons():
    W = ExplicitFiniteSet.of([9])
    pres = quotient_tower_presentation(W)
    target = w_family(1)
    assert any(
        rel == target
        for rel in itertools.islice(pres.relator_source(), 6000)
    )


def test_tower_presentation_relators_not_all_plainly_trivial():
    # at level >= 1 the stream contains words outside the base group's
    # trivial words, which is what makes the quotient proper
    W = ExplicitFiniteSet.of([4, 7])
    pres = quotient_tower_presentation(W)
    rels = list(itertools.islice(pres.relator_source(), 40))
    assert any(not bs_is_trivial(BS23, rel) for rel in rels)


def test_tower_presentation_stream_restarts():
    W = ExplicitFiniteSet.of([4, 7])
    pres = quotient_tower_presentation(W)
    a = list(itertools.islice(pres.relator_source(), 25))
    b = list(itertools.islice(pres.relator_source(), 25))
    assert a == b


# ---------------------------------------------------------------- recovery


def test_recover_cardinality_from_known_levels():
    assert recover_cardinality(tower_oracle(0), 3) == 0
    assert recover_cardinality(tower_oracle(1), 3) == 1
    assert recover_cardinality(tower_oracle(2), 3) == 2


def test_recover_cardinality_end_to_end():
    for elements in [[], [4], [4, 7], [0, 1, 5]]:
        W = ExplicitFiniteSet.of(elements)
        oracle = tower_oracle(len(W))
        assert recover_cardinality(oracle, k_max=4) == len(W)


def test_recover_cardinality_validates_bound():
    with pytest.raises(ValueError):
        recover_cardinality(tower_oracle(0), -1)


def test_recover_cardinality_uses_the_bound():
    # at level 5 with k_max 3 the scan tops out: the answer is the largest
    # index tried, illustrating why the bound is part of the contract
    assert recover_cardinality(tower_oracle(5), 3) == 4


_cached_w_family = functools.cache(w_family)


def _w_based_recover_cardinality(oracle, k_max):
    # the w_j-based scan that the linear witnesses replaced, kept as the oracle
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    best = 0
    for j in range(k_max + 2):
        if oracle(_cached_w_family(j)):
            best = j
    return best


def test_recover_cardinality_matches_the_w_based_scan():
    # levels past the bound included: both scans top out at k_max + 1
    for k_max in range(13):
        for k in range(k_max + 3):
            oracle = tower_oracle(k)
            assert recover_cardinality(oracle, k_max) == _w_based_recover_cardinality(oracle, k_max)


def test_linear_witnesses_die_exactly_at_their_level():
    for j in range(40):
        v = _linear_witness(j)
        assert len(v) == (4 * j + 4 if j else 0)
        assert tower_oracle(j)(v)
        assert j == 0 or not tower_oracle(j - 1)(v)
    assert _linear_witness(1) == w_family(1)


def test_linear_witness_matches_the_commutator_construction():
    for j in range(65):
        u, v = w(f"s^-{j} t s^{j}" if j else "t"), w("t")
        assert _linear_witness(j) == u * v * ~u * ~v


def test_recover_cardinality_has_no_level_cap():
    start = time.perf_counter()
    assert recover_cardinality(tower_oracle(2), 300) == 2
    assert time.perf_counter() - start < 5
