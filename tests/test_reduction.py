"""Instance-to-pattern compilation, witness construction, and verification."""

import json
import sys

import pytest

from optpat import (
    Iri,
    Leaf,
    Opt,
    TilingInstance,
    Var,
    WitnessPair,
    build_p,
    build_p_prime,
    build_witness,
    evaluate,
    find_periodic,
    is_weakly_well_designed,
    is_well_designed,
    parse_graph,
    parse_instance,
    parse_pattern,
    pattern_vars,
    subsumed_mapping,
    verify_witness,
)
from optpat.reduction import tile_iri_map
from optpat.tiling import PeriodicTiling, replicate

from helpers import (
    CHECKERBOARD_JSON,
    M,
    ONE_TILE_EMPTY_JSON,
    ONE_TILE_SELF_JSON,
    leaf_basics,
)
from oracles import _occurrences

CHECKERBOARD = parse_instance(CHECKERBOARD_JSON)
ONE_TILE_SELF = parse_instance(ONE_TILE_SELF_JSON)
ONE_TILE_EMPTY = parse_instance(ONE_TILE_EMPTY_JSON)


def leaf(text):
    p = parse_pattern(text)
    assert isinstance(p, Leaf)
    return p.basic


def witness_for(inst, max_period=4):
    pt = find_periodic(inst, max_period, max_period)
    assert pt is not None
    return build_witness(inst, pt)


CHECKERBOARD_WITNESS_TEXT = """\
bNotSub bType BaseNotSub .
bSub bType BaseSub .
c11 cType Cell .
c11 hNext c12 .
c11 hType inInitRow .
c11 tType a .
c11 vNext c21 .
c12 cType Cell .
c12 hNext c11 .
c12 hType inInitRow .
c12 tType b .
c12 vNext c22 .
c21 cType Cell .
c21 hNext c22 .
c21 tType b .
c21 vNext c11 .
c22 cType Cell .
c22 hNext c21 .
c22 tType a .
c22 vNext c12 .
"""


class TestBuildP:
    def test_six_triples_single_variable(self):
        p = build_p(CHECKERBOARD)
        assert isinstance(p, Leaf)
        assert len(p.basic) == 6
        assert pattern_vars(p) == frozenset({Var("b")})

    def test_exact_content(self):
        expected = leaf(
            "{ c11 hType inInitRow . c11 cType Cell . c11 hNext c12 ."
            "  c11 vNext c21 . c12 vNext c22 . ?b bType BaseSub }"
        )
        assert build_p(CHECKERBOARD) == Leaf(expected)

    def test_independent_of_instance(self):
        assert build_p(CHECKERBOARD) == build_p(ONE_TILE_EMPTY) == build_p(ONE_TILE_SELF)

    def test_well_designed(self):
        assert is_well_designed(build_p(CHECKERBOARD))


class TestBuildPPrime:
    def test_structure_one_tile_self_compatible(self):
        chain = build_p_prime(ONE_TILE_SELF)
        basics = leaf_basics(chain)
        assert len(basics) == 3  # root probe, one tile step, marker
        opts = [path for path, node in _occurrences(chain) if isinstance(node, Opt)]
        assert len(opts) == 2

    def test_structure_checkerboard(self):
        chain = build_p_prime(CHECKERBOARD)
        opts = [path for path, node in _occurrences(chain) if isinstance(node, Opt)]
        assert len(opts) == 7  # 2 + 2 incompatible pairs, 2 tiles, 1 marker
        assert len(leaf_basics(chain)) == 8

    def test_opt_nodes_sit_on_left_spine(self):
        chain = build_p_prime(CHECKERBOARD)
        opts = {path for path, node in _occurrences(chain) if isinstance(node, Opt)}
        assert opts == {("L",) * k for k in range(7)}

    def test_exact_leaves_for_one_tile_empty(self):
        basics = leaf_basics(build_p_prime(ONE_TILE_EMPTY))
        assert basics == [
            leaf("{ ?r hType inInitRow . ?c cType Cell . ?s1 hNext ?s2 ."
                 "  ?s1 vNext ?s3 . ?s2 vNext ?s4 }"),
            leaf("{ ?b bType BaseSub . ?tile1 hNext ?tile2 ."
                 "  ?tile1 tType t . ?tile2 tType t }"),
            leaf("{ ?b bType BaseSub . ?tile1 vNext ?tile2 ."
                 "  ?tile1 tType t . ?tile2 tType t }"),
            leaf("{ ?b bType BaseNotSub . ?r cType Cell . ?r hNext ?r_next ."
                 "  ?r_next hType inInitRow . ?c tType t . ?c vNext ?c_next ."
                 "  ?c_next cType Cell . ?s3 hNext ?s4 }"),
            leaf("{ ?b bType BaseSub }"),
        ]

    def test_variables_for_one_tile_empty(self):
        names = {str(v) for v in pattern_vars(build_p_prime(ONE_TILE_EMPTY))}
        assert names == {
            "?r", "?c", "?s1", "?s2", "?s3", "?s4", "?b",
            "?tile1", "?tile2", "?r_next", "?c_next",
        }

    @pytest.mark.parametrize(
        "inst_json",
        [
            ONE_TILE_SELF_JSON,
            ONE_TILE_EMPTY_JSON,
            CHECKERBOARD_JSON,
            '{"tiles": ["t1", "t2"], "h": [["t1", "t2"]], "v": [["t2", "t1"], ["t1", "t1"]]}',
            '{"tiles": ["t1", "t2", "t3"],'
            ' "h": [["t1", "t2"], ["t2", "t3"], ["t3", "t1"]],'
            ' "v": [["t1", "t1"], ["t2", "t2"], ["t3", "t3"]]}',
        ],
    )
    def test_weakly_well_designed_but_not_well_designed(self, inst_json):
        inst = parse_instance(inst_json)
        chain = build_p_prime(inst)
        assert is_weakly_well_designed(chain)
        assert not is_well_designed(chain)
        assert is_well_designed(build_p(inst))

    def test_z7_chain_classifies_at_default_recursion_limit(self):
        # Z_7 x Z_7: tile (i, j) steps to (i+1, j) horizontally and (i, j+1)
        # vertically, so P' has 1 + 2 * (49^2 - 49) + 49 + 1 leaves.
        tiles = [(i, j) for i in range(7) for j in range(7)]
        name = lambda t: f"t{t[0]}_{t[1]}"
        inst = TilingInstance(
            tuple(map(name, tiles)),
            frozenset((name((i, j)), name(((i + 1) % 7, j))) for i, j in tiles),
            frozenset((name((i, j)), name((i, (j + 1) % 7))) for i, j in tiles),
        )
        chain = build_p_prime(inst)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert len(leaf_basics(chain)) == 4755
            assert not is_well_designed(chain)
            assert is_weakly_well_designed(chain)
        finally:
            sys.setrecursionlimit(limit)


class TestBuildWitness:
    def test_checkerboard_graph_is_exact(self):
        pair = witness_for(CHECKERBOARD)
        assert pair.graph == parse_graph(CHECKERBOARD_WITNESS_TEXT)
        assert len(pair.graph) == 20  # 2 + p + 4*p*q cell triples at p=q=2
        assert pair.mapping == M({"?b": "bSub"})

    def test_one_tile_periods_replicated(self):
        pt = find_periodic(ONE_TILE_SELF, 2, 2)
        assert (pt.p, pt.q) == (1, 1)
        pair = build_witness(ONE_TILE_SELF, pt)
        cells = {t.subject.name for t in pair.graph.triples if t.predicate.name == "cType"}
        assert cells == {"c11", "c12", "c21", "c22"}
        assert len(pair.graph) == 20

    def test_invalid_tiling_rejected(self):
        bad = PeriodicTiling(2, 2, (("a", "a"), ("a", "a")))
        with pytest.raises(ValueError):
            build_witness(CHECKERBOARD, bad)

    def test_grid_confluence(self):
        g = witness_for(CHECKERBOARD).graph
        h_next = {(t.subject, t.object) for t in g.triples if t.predicate.name == "hNext"}
        v_next = {(t.subject, t.object) for t in g.triples if t.predicate.name == "vNext"}
        for s1, s2 in h_next:
            for s1b, s3 in v_next:
                if s1b != s1:
                    continue
                for s2b, s4 in v_next:
                    if s2b == s2:
                        assert (s3, s4) in h_next


class TestEvaluationOnWitness:
    def test_marker_mapping_is_a_solution_of_p(self):
        pair = witness_for(CHECKERBOARD)
        assert pair.mapping in evaluate(build_p(CHECKERBOARD), pair.graph)

    def test_root_probe_cardinality(self):
        pair = witness_for(CHECKERBOARD)
        root = Leaf(leaf_basics(build_p_prime(CHECKERBOARD))[0])
        assert len(evaluate(root, pair.graph)) == 2 * (2 * 2) * (2 * 2)

    def test_conflict_probes_never_match(self):
        inst = CHECKERBOARD
        pair = witness_for(inst)
        basics = leaf_basics(build_p_prime(inst))
        conflict = basics[1 : 1 + len(inst.h_incompatible()) + len(inst.v_incompatible())]
        assert len(conflict) == 4
        for b in conflict:
            assert len(evaluate(Leaf(b), pair.graph)) == 0

    def test_every_chain_solution_rebinds_marker(self):
        for inst in (CHECKERBOARD, ONE_TILE_SELF):
            pair = witness_for(inst)
            solutions = evaluate(build_p_prime(inst), pair.graph)
            assert len(solutions) > 0
            for m in solutions:
                assert m.get(Var("b")) == Iri("bNotSub")
                assert not subsumed_mapping(pair.mapping, m)

    def test_six_by_six_torus(self):
        # The checkerboard replicated to a 6x6 torus: q * (p*q)^2 solutions.
        pt = replicate(find_periodic(CHECKERBOARD, 2, 2), 3, 3)
        pair = build_witness(CHECKERBOARD, pt)
        chain = build_p_prime(CHECKERBOARD)
        solutions = evaluate(chain, pair.graph)
        assert len(solutions) == 6 * 36 * 36 == 7776
        for m in solutions:
            assert m.get(Var("b")) in (Iri("bSub"), Iri("bNotSub"))
        assert verify_witness(build_p(CHECKERBOARD), chain, pair)


class TestOracleCrossCheck:
    def test_oracle_agrees_on_feasible_witness_patterns(self):
        from optpat import evaluate_oracle

        pair = witness_for(CHECKERBOARD)
        p = build_p(CHECKERBOARD)
        assert evaluate_oracle(p, pair.graph) == evaluate(p, pair.graph)
        marker = Leaf(leaf_basics(build_p_prime(CHECKERBOARD))[-1])
        assert evaluate_oracle(marker, pair.graph) == evaluate(marker, pair.graph)

    def test_oracle_refuses_multi_variable_probe_at_default_cap(self):
        # the structural probe has 6 variables over an 18-IRI graph; total
        # assignment enumeration is out of any reasonable budget
        from optpat import OracleBudgetError, evaluate_oracle
        import pytest as _pytest

        pair = witness_for(CHECKERBOARD)
        root = Leaf(leaf_basics(build_p_prime(CHECKERBOARD))[0])
        with _pytest.raises(OracleBudgetError):
            evaluate_oracle(root, pair.graph)


class TestVerifyWitness:
    def test_checkerboard(self):
        pair = witness_for(CHECKERBOARD)
        assert verify_witness(build_p(CHECKERBOARD), build_p_prime(CHECKERBOARD), pair)

    def test_one_tile_self_compatible(self):
        pair = witness_for(ONE_TILE_SELF)
        assert verify_witness(build_p(ONE_TILE_SELF), build_p_prime(ONE_TILE_SELF), pair)

    def test_pattern_never_fails_against_itself(self):
        p = build_p(CHECKERBOARD)
        pair = witness_for(CHECKERBOARD)
        assert pair.mapping in evaluate(p, pair.graph)
        assert not verify_witness(p, p, pair)

    def test_mapping_not_in_solutions_fails(self):
        pair = witness_for(CHECKERBOARD)
        doctored = WitnessPair(pair.graph, M({"?b": "bNotSub"}))
        assert not verify_witness(build_p(CHECKERBOARD), build_p_prime(CHECKERBOARD), doctored)


class TestTileRenaming:
    def test_reserved_names_prefixed(self):
        inst = parse_instance('{"tiles": ["Cell", "t"], "h": [], "v": []}')
        assert tile_iri_map(inst) == {"Cell": Iri("tile_Cell"), "t": Iri("t")}

    def test_prefix_chains_until_unique(self):
        inst = parse_instance('{"tiles": ["Cell", "tile_Cell"], "h": [], "v": []}')
        assert tile_iri_map(inst) == {
            "Cell": Iri("tile_Cell"),
            "tile_Cell": Iri("tile_tile_Cell"),
        }

    def test_cell_shaped_names_prefixed(self):
        inst = parse_instance('{"tiles": ["c_1_1"], "h": [], "v": []}')
        assert tile_iri_map(inst) == {"c_1_1": Iri("tile_c_1_1")}

    def test_renamed_tiles_flow_through_patterns_and_witness(self):
        inst = parse_instance(
            '{"tiles": ["Cell"], "h": [["Cell", "Cell"]], "v": [["Cell", "Cell"]]}'
        )
        chain = build_p_prime(inst)
        from optpat import pattern_constants

        assert Iri("tile_Cell") in pattern_constants(chain)
        pair = witness_for(inst)
        types = {t.object for t in pair.graph.triples if t.predicate.name == "tType"}
        assert types == {Iri("tile_Cell")}
        assert verify_witness(build_p(inst), chain, pair)
