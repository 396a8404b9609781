"""Vector clock comparison and the total order on tags."""

import random

import pytest

from causalec.tags import (
    EQ,
    GT,
    INCOMPARABLE,
    LT,
    Tag,
    vc_compare,
    zero_tag,
)


class TestVcCompare:
    def test_examples(self):
        assert vc_compare((1, 0), (1, 1)) == LT
        assert vc_compare((1, 0), (0, 1)) == INCOMPARABLE
        assert vc_compare((2, 2), (2, 2)) == EQ
        assert vc_compare((3, 1), (2, 1)) == GT

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vc_compare((1,), (1, 2))


class TestTagOrder:
    def test_clock_dominance_wins(self):
        assert Tag((1, 0), 9) < Tag((1, 1), 1)
        assert not Tag((1, 1), 1) < Tag((1, 0), 9)

    def test_concurrent_clocks_break_ties_deterministically(self):
        # lexicographic on (clock, id): (0,1) sorts before (1,0) regardless
        # of the writer ids
        assert Tag((0, 1), 7) < Tag((1, 0), 3)
        assert not Tag((1, 0), 3) < Tag((0, 1), 7)

    def test_equal_clock_orders_by_id(self):
        assert Tag((1, 1), 1) < Tag((1, 1), 2)

    def test_total_strict_and_transitive(self):
        rng = random.Random(3)
        tags = [Tag((rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)),
                    rng.randint(0, 4)) for _ in range(40)]
        for a in tags:
            assert not a < a
            for b in tags:
                if a != b:
                    assert (a < b) != (b < a)
                if vc_compare(a.ts, b.ts) == LT:
                    assert a < b
                for c in tags:
                    if a < b < c:
                        assert a < c

    def test_no_cycles_under_concurrent_writers(self):
        # the triple that would cycle under an id-first tie-break
        a = Tag((7, 5, 0), 3)
        b = Tag((8, 5, 0), 1)
        d = Tag((5, 6, 0), 2)
        trio = [a, b, d]
        ranked = sorted(trio, key=lambda t: sum(o < t for o in trio))
        assert ranked[0] < ranked[1] < ranked[2]

    def test_zero_tag_below_everything(self):
        z = zero_tag(3)
        for t in [Tag((1, 0, 0), 1), Tag((0, 0, 1), 9), Tag((2, 3, 1), 0)]:
            assert z < t
        assert z <= z


class TestTagExtremes:
    def test_singleton(self):
        t = Tag((1, 0), 1)
        assert max([t]) == t
        assert min([t]) == t

    def test_dominated_pair(self):
        lo, hi = Tag((1, 0), 1), Tag((1, 1), 2)
        assert max([lo, hi]) == hi
        assert min([lo, hi]) == lo

    def test_concurrent_pair_uses_the_total_order(self):
        a, b = Tag((1, 0), 3), Tag((0, 1), 7)
        assert max([a, b]) == a
        assert min([a, b]) == b

    def test_member_and_maximal(self):
        rng = random.Random(5)
        tags = {Tag((rng.randint(0, 4), rng.randint(0, 4)), rng.randint(0, 3))
                for _ in range(25)}
        m = max(tags)
        assert m in tags
        assert all(not m < t for t in tags)

    def test_empty(self):
        with pytest.raises(ValueError):
            max([])
        with pytest.raises(ValueError):
            min([])


def test_render():
    assert Tag((1, 2, 3), 7).render() == "((1,2,3),7)"
