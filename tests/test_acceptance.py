"""Acceptance gate: one test per numbered criterion, each timed against its
stated budget. The session summary (see conftest) prints one line per
criterion."""

import itertools
import random
import time

from optpat import (
    Graph,
    Iri,
    Leaf,
    Mapping,
    Opt,
    SearchBudget,
    SolutionSet,
    Status,
    Var,
    build_p,
    build_p_prime,
    build_witness,
    certify_untileable,
    evaluate,
    evaluate_oracle,
    find_containment_counterexample,
    find_periodic,
    find_subsumption_counterexample,
    is_weakly_well_designed,
    is_well_designed,
    left_outer_join,
    parse_instance,
    parse_pattern,
    subsumed_mapping,
    verify_periodic,
    verify_witness,
)

from helpers import (
    CHECKERBOARD_JSON,
    M,
    ONE_TILE_EMPTY_JSON,
    ONE_TILE_SELF_JSON,
    leaf_basics,
    rand_graph,
    rand_instance,
    rand_pattern,
    rand_pattern_nodes,
    rand_solution_set,
)
from oracles import enumerate_graphs, join_reference, wd_reference, wwd_reference


def test_criterion_1_evaluator_oracle_equivalence():
    started = time.perf_counter()
    iris = [Iri("a"), Iri("b"), Iri("p")]
    x, y = Var("x"), Var("y")
    # fixed template family over the graph vocabulary plus two variables
    leaf_texts = [
        "{ }",
        "{ ?x p ?y }",
        "{ ?x p ?x }",
        "{ a p ?x }",
        "{ ?x ?y b }",
        "{ ?x p ?y . ?y p ?x }",
    ]
    leaves = [parse_pattern(t) for t in leaf_texts]
    family = list(leaves) + [Opt(l1, l2) for l1 in leaves for l2 in leaves]
    assert len(family) == 42

    pairs = 0
    for g in enumerate_graphs(iris, 3):
        for p in family:
            assert evaluate(p, g) == evaluate_oracle(p, g)
            pairs += 1
    assert pairs == 3304 * 42  # 1 + 27 + C(27,2) + C(27,3) graphs

    rng = random.Random(20260810)
    for _ in range(200):
        g = rand_graph(rng, iris, 4)
        p = rand_pattern(rng)
        assert evaluate(p, g) == evaluate_oracle(p, g)

    assert time.perf_counter() - started < 60


def _witness_setup(inst_json):
    inst = parse_instance(inst_json)
    pt = find_periodic(inst, 4, 4)
    assert pt is not None
    return inst, build_witness(inst, pt)


def test_criterion_2_root_probe_cardinality():
    started = time.perf_counter()
    inst, pair = _witness_setup(CHECKERBOARD_JSON)
    root = Leaf(leaf_basics(build_p_prime(inst))[0])
    p = q = 2
    assert len(evaluate(root, pair.graph)) == q * (p * q) * (p * q) == 32
    assert time.perf_counter() - started < 1


def test_criterion_3_forward_direction_mechanized():
    for inst_json in (CHECKERBOARD_JSON, ONE_TILE_SELF_JSON):
        started = time.perf_counter()
        inst, pair = _witness_setup(inst_json)
        p = build_p(inst)
        chain = build_p_prime(inst)
        assert verify_witness(p, chain, pair)
        assert pair.mapping == M({"?b": "bSub"})
        assert pair.mapping in evaluate(p, pair.graph)
        root_matches = evaluate(Leaf(leaf_basics(chain)[0]), pair.graph)
        chain_solutions = evaluate(chain, pair.graph)
        assert len(chain_solutions) > 0
        for m in chain_solutions:
            if any(subsumed_mapping(r, m) for r in root_matches):
                assert m.get(Var("b")) == Iri("bNotSub")
        assert time.perf_counter() - started < 10


def test_criterion_4_fragment_claims():
    started = time.perf_counter()
    instance_texts = [
        ONE_TILE_SELF_JSON,
        ONE_TILE_EMPTY_JSON,
        CHECKERBOARD_JSON,
        '{"tiles": ["t1", "t2"], "h": [["t1", "t2"]], "v": [["t2", "t1"], ["t1", "t1"]]}',
        '{"tiles": ["t1", "t2", "t3"],'
        ' "h": [["t1", "t2"], ["t2", "t3"], ["t3", "t1"]],'
        ' "v": [["t1", "t1"], ["t2", "t2"], ["t3", "t3"]]}',
    ]
    for text in instance_texts:
        inst = parse_instance(text)
        chain = build_p_prime(inst)
        assert is_weakly_well_designed(chain)
        assert not is_well_designed(chain)
        assert is_well_designed(build_p(inst))

    rng = random.Random(41)
    for _ in range(500):
        p = rand_pattern_nodes(rng, max_nodes=9)
        assert is_well_designed(p) == wd_reference(p)
        assert is_weakly_well_designed(p) == wwd_reference(p)

    assert time.perf_counter() - started < 30


def test_criterion_5_bounded_search_sanity():
    started = time.perf_counter()
    p = parse_pattern("{ ?x p ?x }")
    p2 = parse_pattern("{ ?x q ?y }")
    verdict = find_subsumption_counterexample(p, p2, SearchBudget(2, 2))
    assert verdict.status is Status.VIOLATED
    assert len(verdict.witness[0]) == 1

    verdict = find_containment_counterexample(
        parse_pattern("{ }"), parse_pattern("{ ?x p ?y }"), SearchBudget(2, 2)
    )
    assert verdict.status is Status.VIOLATED
    assert len(verdict.witness[0]) == 0
    assert verdict.witness[1] == Mapping()

    for budget in (SearchBudget(1, 1), SearchBudget(2, 2), SearchBudget(3, 2)):
        assert (
            find_subsumption_counterexample(p, p, budget).status
            is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
        )
        assert (
            find_containment_counterexample(p2, p2, budget).status
            is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
        )

    assert time.perf_counter() - started < 5


def test_criterion_6_converse_direction_consistency():
    started = time.perf_counter()
    inst = parse_instance(ONE_TILE_EMPTY_JSON)
    assert certify_untileable(inst, 4) == 2
    # P alone has 5 required ground triples, so a budget below 6 triples examines nothing.
    verdict = find_subsumption_counterexample(
        build_p(inst), build_p_prime(inst), SearchBudget(6, 3, max_candidates=10**9)
    )
    assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
    assert verdict.candidates_examined > 0
    assert time.perf_counter() - started < 300


def test_criterion_7_join_algebra():
    started = time.perf_counter()
    rng = random.Random(77)
    for _ in range(300):
        w1, w2 = rand_solution_set(rng), rand_solution_set(rng)
        assert left_outer_join(w1, w2).mappings == frozenset(join_reference(w1, w2))

    # identities, exhaustively over all solution sets of size <= 3 drawn from
    # the nine mappings on two variables over two IRIs
    xs = [Var("x"), Var("y")]
    iris = [Iri("a"), Iri("b")]
    mappings = [Mapping()]
    mappings += [Mapping({v: i}) for v in xs for i in iris]
    mappings += [Mapping({xs[0]: i, xs[1]: j}) for i in iris for j in iris]
    assert len(mappings) == 9
    empty = SolutionSet()
    for size in range(4):
        for combo in itertools.combinations(mappings, size):
            w = SolutionSet(combo)
            assert left_outer_join(w, empty) == w
            assert left_outer_join(empty, w) == empty
    assert time.perf_counter() - started < 10


def test_criterion_8_tiling_solvers():
    started = time.perf_counter()
    checkerboard = parse_instance(CHECKERBOARD_JSON)
    pt = find_periodic(checkerboard, 6, 6)
    assert pt is not None and (pt.p, pt.q) == (2, 2)
    assert verify_periodic(checkerboard, pt)

    assert certify_untileable(parse_instance(ONE_TILE_EMPTY_JSON), 6) == 2

    rng = random.Random(88)
    for _ in range(20):
        inst = rand_instance(rng)
        found = find_periodic(inst, 3, 3)
        certificate = certify_untileable(inst, 3)
        assert not (found is not None and certificate is not None)
        if found is not None:
            assert verify_periodic(inst, found)

    assert time.perf_counter() - started < 30
