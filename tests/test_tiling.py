"""Tiling instances, torus and rectangle solvers, untileability certificates."""

import json
import random

import pytest

from optpat import (
    PeriodicTiling,
    RectTiling,
    TilingInstance,
    certify_untileable,
    find_periodic,
    find_rectangle,
    parse_instance,
    replicate,
    verify_periodic,
)
from optpat.tiling import (
    instance_to_jsonable,
    periodic_from_jsonable,
    periodic_to_jsonable,
    replicate_to,
)

from helpers import (
    CHECKERBOARD_JSON,
    ONE_TILE_EMPTY_JSON,
    ONE_TILE_SELF_JSON,
    rand_instance,
)
from oracles import _backtrack_grid as backtrack_grid_reference
from oracles import verify_rectangle

CHECKERBOARD = parse_instance(CHECKERBOARD_JSON)
ONE_TILE_SELF = parse_instance(ONE_TILE_SELF_JSON)
ONE_TILE_EMPTY = parse_instance(ONE_TILE_EMPTY_JSON)


class TestParseInstance:
    def test_one_tile_self_compatible(self):
        inst = ONE_TILE_SELF
        assert inst.tiles == ("t",)
        assert inst.h_incompatible() == []
        assert inst.v_incompatible() == []

    def test_checkerboard_incompatible_pairs(self):
        inst = CHECKERBOARD
        assert inst.h_incompatible() == [("a", "a"), ("b", "b")]
        assert inst.v_incompatible() == [("a", "a"), ("b", "b")]

    def test_all_pairs_incompatible(self):
        inst = ONE_TILE_EMPTY
        assert inst.h_incompatible() == [("t", "t")]
        assert inst.v_incompatible() == [("t", "t")]

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "not json",
            '{"tiles": []}',
            '{"tiles": ["t", "t"]}',
            '{"tiles": ["t"], "h": [["t", "u"]]}',
            '{"tiles": ["t"], "h": [["t"]]}',
            '{"tiles": ["t"], "h": "nope"}',
            '{"tiles": ["bad name"]}',
            '{"tiles": ["t"], "extra": 1}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_instance(text)

    def test_instance_jsonable_is_deterministic(self):
        data = instance_to_jsonable(CHECKERBOARD)
        assert data == {
            "tiles": ["a", "b"],
            "h": [["a", "b"], ["b", "a"]],
            "v": [["a", "b"], ["b", "a"]],
        }


class TestVerifyPeriodic:
    def test_one_by_one_self_compatible(self):
        assert verify_periodic(ONE_TILE_SELF, PeriodicTiling(1, 1, (("t",),)))

    def test_checkerboard_alternating(self):
        pt = PeriodicTiling(2, 2, (("a", "b"), ("b", "a")))
        assert verify_periodic(CHECKERBOARD, pt)

    def test_checkerboard_constant_grid_fails(self):
        pt = PeriodicTiling(2, 2, (("a", "a"), ("a", "a")))
        assert not verify_periodic(CHECKERBOARD, pt)

    def test_unknown_tile_rejected(self):
        with pytest.raises(ValueError):
            verify_periodic(CHECKERBOARD, PeriodicTiling(1, 1, (("z",),)))


class TestFindPeriodic:
    def test_one_tile_self_compatible(self):
        pt = find_periodic(ONE_TILE_SELF, 3, 3)
        assert pt == PeriodicTiling(1, 1, (("t",),))

    def test_checkerboard(self):
        pt = find_periodic(CHECKERBOARD, 6, 6)
        assert pt is not None
        assert (pt.p, pt.q) == (2, 2)
        assert verify_periodic(CHECKERBOARD, pt)

    def test_untileable_has_none(self):
        assert find_periodic(ONE_TILE_EMPTY, 4, 4) is None

    def test_self_certification_on_random_instances(self):
        rng = random.Random(70)
        for _ in range(30):
            inst = rand_instance(rng)
            pt = find_periodic(inst, 3, 3)
            if pt is not None:
                assert verify_periodic(inst, pt)


class TestFindRectangle:
    def test_one_by_one_always_tiles(self):
        for inst in (CHECKERBOARD, ONE_TILE_SELF, ONE_TILE_EMPTY):
            rt = find_rectangle(inst, 1, 1)
            assert rt is not None and verify_rectangle(inst, rt)

    def test_incompatible_pair_blocks_row(self):
        assert find_rectangle(ONE_TILE_EMPTY, 2, 1) is None

    def test_checkerboard_three_by_three(self):
        rt = find_rectangle(CHECKERBOARD, 3, 3)
        assert rt is not None and verify_rectangle(CHECKERBOARD, rt)


class TestCertifyUntileable:
    def test_empty_relations_fail_at_two(self):
        assert certify_untileable(ONE_TILE_EMPTY, 6) == 2

    def test_checkerboard_never_fails(self):
        assert certify_untileable(CHECKERBOARD, 4) is None

    def test_self_compatible_never_fails(self):
        assert certify_untileable(ONE_TILE_SELF, 4) is None


class TestInvariants:
    def test_unrolled_torus_tiles_rectangles(self):
        pt = find_periodic(CHECKERBOARD, 4, 4)
        unrolled = replicate(pt, 3, 3)
        rect = RectTiling(unrolled.p, unrolled.q, unrolled.rows)
        assert verify_rectangle(CHECKERBOARD, rect)
        assert find_rectangle(CHECKERBOARD, 3 * pt.p, 3 * pt.q) is not None

    def test_replication_preserves_verification(self):
        rng = random.Random(71)
        for _ in range(20):
            inst = rand_instance(rng)
            pt = find_periodic(inst, 3, 3)
            if pt is None:
                continue
            assert verify_periodic(inst, replicate(pt, 2, 1))
            assert verify_periodic(inst, replicate(pt, 1, 2))
            assert verify_periodic(inst, replicate_to(pt, 2, 2))

    def test_periodic_and_certificate_mutually_exclusive(self):
        rng = random.Random(72)
        for _ in range(20):
            inst = rand_instance(rng)
            pt = find_periodic(inst, 3, 3)
            n = certify_untileable(inst, 3)
            assert not (pt is not None and n is not None)

    def test_replicate_to_reaches_minimums(self):
        pt = PeriodicTiling(1, 1, (("t",),))
        grown = replicate_to(pt, 2, 2)
        assert (grown.p, grown.q) == (2, 2)
        assert grown.rows == (("t", "t"), ("t", "t"))


class TestAgainstRecursiveReference:
    """The iterative backtracker against the first releases' recursive one
    (`oracles._backtrack_grid`): the same first tiling, or none, everywhere."""

    def test_seeded_sweep(self):
        # 1-6 tiles, each pair compatible with a probability of 0.2-0.7.
        rng = random.Random(91)
        sizes = sorted(
            ((p, q) for p in range(1, 5) for q in range(1, 5)),
            key=lambda pq: (pq[0] * pq[1], pq[0], pq[1]),
        )
        found = {"periodic": 0, "untileable": 0}
        for _ in range(300):
            tiles = tuple(f"t{i}" for i in range(rng.randint(1, 6)))
            density = rng.uniform(0.2, 0.7)
            pairs = [(a, b) for a in tiles for b in tiles]
            inst = TilingInstance(
                tiles,
                frozenset(p for p in pairs if rng.random() < density),
                frozenset(p for p in pairs if rng.random() < density),
            )
            periodic = next(
                (
                    PeriodicTiling(p, q, rows)
                    for p, q in sizes
                    if (rows := backtrack_grid_reference(inst, p, q, True)) is not None
                ),
                None,
            )
            assert find_periodic(inst, 4, 4) == periodic, inst
            for w in range(1, 4):
                for h in range(1, 4):
                    rows = backtrack_grid_reference(inst, w, h, False)
                    expected = RectTiling(w, h, rows) if rows is not None else None
                    assert find_rectangle(inst, w, h) == expected, (inst, w, h)
            certificate = next(
                (n for n in range(1, 6) if backtrack_grid_reference(inst, n, n, False) is None),
                None,
            )
            assert certify_untileable(inst, 5) == certificate, inst
            found["periodic"] += periodic is not None
            found["untileable"] += certificate is not None
        assert min(found.values()) >= 50, found


class TestJson:
    def test_periodic_roundtrip(self):
        pt = PeriodicTiling(2, 2, (("a", "b"), ("b", "a")))
        assert periodic_from_jsonable(json.loads(json.dumps(periodic_to_jsonable(pt)))) == pt

    def test_periodic_shape_validation(self):
        with pytest.raises(ValueError):
            periodic_from_jsonable({"p": 2, "q": 1, "grid": [["a"]]})
        with pytest.raises(ValueError):
            periodic_from_jsonable({"p": "2", "q": 1, "grid": [["a", "a"]]})

    def test_instance_constructor_validation(self):
        with pytest.raises(ValueError):
            TilingInstance((), frozenset(), frozenset())
        with pytest.raises(ValueError):
            TilingInstance(("t", "t"), frozenset(), frozenset())
        with pytest.raises(ValueError):
            TilingInstance(("t",), frozenset({("t", "u")}), frozenset())
