"""Per-graph checks, the graph enumeration oracle, and bounded counterexample search."""

import functools
import random

import pytest

from optpat import (
    Graph,
    Iri,
    SearchBudget,
    Status,
    Verdict,
    check_contained_on,
    check_equivalent_on,
    check_subsumed_on,
    find_containment_counterexample,
    find_equivalence_counterexample,
    find_subsumption_counterexample,
    parse_graph,
    parse_pattern,
    serialize_graph,
    serialize_pattern,
)
from optpat import BasicPattern, Leaf, Opt, TriplePattern, Var, analysis
from optpat.analysis import _fresh_iris
from optpat.pattern import leftmost_basic, pattern_constants

from helpers import M, rand_graph, rand_pattern
from oracles import (
    candidate_stream_reference,
    enumerate_graphs,
    orbit_table_reference,
    relevant_reference,
    search_reference,
)


class TestCheckSubsumedOn:
    def test_reflexive_holds(self):
        rng = random.Random(60)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(50):
            p = rand_pattern(rng)
            g = rand_graph(rng, iris, 4)
            assert check_subsumed_on(p, p, g).status is Status.HOLDS_ON_GRAPH

    def test_violation_with_first_failing_mapping(self):
        p = parse_pattern("{ ?x p ?y }")
        p2 = parse_pattern("{ ?x p ?y . ?y p ?x }")
        verdict = check_subsumed_on(p, p2, parse_graph("a p b ."))
        assert verdict.status is Status.VIOLATED
        assert verdict.witness[1] == M({"?x": "a", "?y": "b"})

    def test_optional_extension_counts_as_subsuming(self):
        p = parse_pattern("{ ?x p ?y }")
        p2 = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        g = parse_graph("a p b .\nb q c .")
        assert check_subsumed_on(p, p2, g).status is Status.HOLDS_ON_GRAPH


class TestCheckContainedOn:
    def test_reflexive_holds(self):
        p = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        g = parse_graph("a p b .")
        assert check_contained_on(p, p, g).status is Status.HOLDS_ON_GRAPH

    def test_domain_mismatch_violates(self):
        verdict = check_contained_on(
            parse_pattern("{ }"), parse_pattern("{ ?x p ?y }"), parse_graph("a p b .")
        )
        assert verdict.status is Status.VIOLATED
        assert verdict.witness[1] == M({})

    def test_unmatched_optional_arm_preserves_containment(self):
        verdict = check_contained_on(
            parse_pattern("{ ?x p ?y }"),
            parse_pattern("({ ?x p ?y } OPT { a q a })"),
            parse_graph("a p b ."),
        )
        assert verdict.status is Status.HOLDS_ON_GRAPH

    def test_containment_implies_subsumption(self):
        rng = random.Random(61)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(100):
            p, p2 = rand_pattern(rng, depth=2), rand_pattern(rng, depth=2)
            g = rand_graph(rng, iris, 4)
            if check_contained_on(p, p2, g).status is Status.HOLDS_ON_GRAPH:
                assert check_subsumed_on(p, p2, g).status is Status.HOLDS_ON_GRAPH


class TestCheckEquivalentOn:
    def test_agrees_with_both_containment_directions(self, monkeypatch):
        engine = analysis.evaluate
        calls = []

        def counting(p, g):
            calls.append(g)
            return engine(p, g)

        monkeypatch.setattr(analysis, "evaluate", counting)
        rng = random.Random(62)
        iris = [Iri(n) for n in ("a", "b", "c")]
        violated = 0
        for _ in range(200):
            p, p2 = rand_pattern(rng, depth=2), rand_pattern(rng, depth=2)
            g = rand_graph(rng, iris, 5)
            forward = check_contained_on(p, p2, g)
            expected = (
                forward if forward.status is Status.VIOLATED else check_contained_on(p2, p, g)
            )
            calls.clear()
            got = check_equivalent_on(p, p2, g)
            assert got == expected
            assert calls == [g, g]
            violated += got.status is Status.VIOLATED
        assert 0 < violated < 200


class TestEnumerateGraphs:
    """The enumeration oracle behind criterion 1."""

    def test_single_iri(self):
        a = Iri("a")
        graphs = list(enumerate_graphs([a], 1))
        assert graphs == [Graph(), parse_graph("a a a .")]

    def test_counts(self):
        vocab = [Iri("a"), Iri("b")]
        assert sum(1 for _ in enumerate_graphs(vocab, 1)) == 1 + 8
        assert sum(1 for _ in enumerate_graphs(vocab, 2)) == 1 + 8 + 28

    def test_unique_and_nondecreasing(self):
        vocab = [Iri("a"), Iri("b")]
        sizes = []
        seen = set()
        for g in enumerate_graphs(vocab, 2):
            assert g not in seen
            seen.add(g)
            sizes.append(len(g))
        assert sizes == sorted(sizes)

    def test_deterministic(self):
        vocab = [Iri("a"), Iri("b")]
        first = [serialize_graph(g) for g in enumerate_graphs(vocab, 2)]
        second = [serialize_graph(g) for g in enumerate_graphs(vocab, 2)]
        assert first == second

    def test_duplicate_vocabulary_collapsed(self):
        assert sum(1 for _ in enumerate_graphs([Iri("a"), Iri("a")], 1)) == 2

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs([], 1))


def _stream_cases(seed: int, count: int):
    """Seeded (p, p2, budget, required sets, check) tuples covering both
    required-set shapes: one set (subsumes, contains) and equiv's two, with
    leftmost leaves that often carry ground triples."""
    rng = random.Random(seed)
    consts = (Iri("a"), Iri("b"), Iri("c"))
    for _ in range(count):
        p, p2 = (rand_pattern(rng, depth=2, consts=consts) for _ in range(2))
        if rng.random() < 0.6:
            ground = BasicPattern(
                TriplePattern(*(rng.choice(consts[:2]) for _ in range(3)))
                for _ in range(rng.randint(1, 2))
            )
            p = Opt(Leaf(ground), p)
        budget = SearchBudget(rng.randint(0, 2), rng.randint(0, 3), max_candidates=10**6)
        required = [leftmost_basic(p).ground_triples()]
        if rng.random() < 0.5:
            required.append(leftmost_basic(p2).ground_triples())
            check = check_equivalent_on
        else:
            check = rng.choice((check_subsumed_on, check_contained_on))
        yield p, p2, budget, required, check


class TestCandidateStream:
    """The lazy orderly stream against `oracles.candidate_stream_reference`,
    which builds each level in full, sorts it and filters orbits."""

    def test_matches_reference_sequence(self):
        nonempty_required = 0
        for p, p2, budget, required, _ in _stream_cases(70, 60):
            expected = list(candidate_stream_reference(p, p2, budget, required))
            assert list(analysis._candidate_stream(p, p2, budget, required)) == expected
            nonempty_required += all(required)
        assert nonempty_required > 10

    def test_cut_matches_reference(self):
        rng = random.Random(71)
        for p, p2, budget, required, check in _stream_cases(72, 25):
            length = sum(1 for _ in candidate_stream_reference(p, p2, budget, required))
            caps = {0, 1, length - 1, length, 10**6, *(rng.randint(0, 12) for _ in range(3))}
            for cap in sorted(c for c in caps if c >= 0):
                cut = SearchBudget(budget.max_triples, budget.max_fresh_iris, cap)
                assert analysis._search(p, p2, cut, check, required) == search_reference(
                    p, p2, cut, check, required
                )

    def test_cut_inside_a_level_builds_only_its_prefix(self):
        # 15 constants give 3,375 triples, so the 2-triple level holds about
        # 5.7 M sets; this only passes if each level is generated lazily.
        ground = " . ".join(f"c{i} c{i} c{i}" for i in range(1, 15))
        p = parse_pattern(f"({{ ?x c0 ?y }} OPT {{ {ground} }})")
        cap = 1 + 3375 + 5
        verdict = find_subsumption_counterexample(p, p, SearchBudget(2, 0, max_candidates=cap))
        assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
        assert verdict.candidates_examined == cap
        assert verdict.position == (2, 4)

    def test_orbit_table_matches_reference(self):
        for constants in range(6):
            for fresh in range(5):
                if constants + fresh:
                    expected = orbit_table_reference(constants, fresh)
                    assert analysis._orbit_table(constants, fresh) == expected


def _chain(leaves: int, last: str) -> Opt:
    # A left-deep chain of distinct leaves, built without recursion.
    x, y = Var("x"), Var("y")
    node = Leaf(BasicPattern([TriplePattern(x, Iri("p0"), y)]))
    for i in range(1, leaves - 1):
        node = Opt(node, Leaf(BasicPattern([TriplePattern(x, Iri(f"p{i}"), y)])))
    return Opt(node, Leaf(BasicPattern([TriplePattern(x, Iri(last), y)])))


class TestSamePatternSearch:
    """Equal patterns are evaluated once per candidate; verdicts, counts and
    positions stay those of evaluating both."""

    def test_separately_parsed_copy_matches_reference(self):
        rng = random.Random(75)
        checks = ((check_subsumed_on, 1), (check_contained_on, 1), (check_equivalent_on, 2))
        for p, _, budget, _, _ in _stream_cases(76, 20):
            copy = parse_pattern(serialize_pattern(p))
            assert copy is not p and analysis._same_pattern(p, copy)
            for check, sets in checks:
                required = [leftmost_basic(p).ground_triples()] * sets
                length = sum(1 for _ in candidate_stream_reference(p, copy, budget, required))
                for cap in (1, 7, rng.randint(0, length), 10**6):
                    cut = SearchBudget(budget.max_triples, budget.max_fresh_iris, cap)
                    got = analysis._search(p, copy, cut, check, required)
                    assert got == search_reference(p, copy, cut, check, required)

    def test_equivalence_evaluates_once_per_candidate(self, monkeypatch):
        engine = analysis.evaluate
        calls = []

        def counting(p, g):
            calls.append(g)
            return engine(p, g)

        monkeypatch.setattr(analysis, "evaluate", counting)
        w1 = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        w1_copy = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        budget = SearchBudget(2, 3)
        verdict = find_equivalence_counterexample(w1, w1_copy, budget)
        assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
        # One evaluation for each candidate of at most one triple or only relevant
        # triples; the others are decided by their relevant part, checked earlier.
        required = [frozenset(), frozenset()]
        stream = [g for _, g in candidate_stream_reference(w1, w1_copy, budget, required)]
        relevant = functools.cache(lambda t: relevant_reference((w1, w1_copy), t))
        undecided = [g for g in stream if len(g) <= 1 or all(map(relevant, g.triples))]
        assert verdict.candidates_examined == len(stream)
        assert len(calls) == len(undecided) < len(stream)
        assert calls == undecided

    def test_deep_chains_compare_without_recursion(self):
        assert analysis._same_pattern(_chain(5000, "last"), _chain(5000, "last"))
        assert not analysis._same_pattern(_chain(5000, "last"), _chain(5000, "other"))
        assert not analysis._same_pattern(_chain(5000, "last"), _chain(4999, "last"))


class TestDecidedCandidates:
    """A candidate of two or more triples is counted without evaluation
    exactly when it holds a triple that no triple pattern of either side
    matches; verdicts, counts and positions stay those of
    `oracles.search_reference`, which checks every candidate."""

    def test_seeded_sweep_matches_reference(self):
        rng = random.Random(80)
        # Two variables: no triple pattern has three distinct ones and matches every triple.
        variables, consts = (Var("x"), Var("y")), (Iri("a"), Iri("b"))
        checks = (check_subsumed_on, check_contained_on, check_equivalent_on)
        searches = skipped = violated = 0
        while searches < 2000:
            p, p2 = (rand_pattern(rng, 2, variables, consts) for _ in range(2))
            if rng.random() < 0.5:
                ground = BasicPattern([TriplePattern(*(rng.choice(consts) for _ in range(3)))])
                p = Opt(Leaf(ground), p)
            if rng.random() < 0.4:  # equal sides: no violation, so every level is searched
                p2 = parse_pattern(serialize_pattern(p))
            fresh = rng.randint(0, 2)
            vocabulary = len(pattern_constants(p) | pattern_constants(p2)) + fresh
            budget = SearchBudget(rng.randint(1, 3 if vocabulary <= 2 else 2), fresh)
            check = checks[searches % 3]
            required = [leftmost_basic(p).ground_triples()]
            if check is check_equivalent_on:
                required.append(leftmost_basic(p2).ground_triples())
            stream = list(candidate_stream_reference(p, p2, budget, required))
            relevant = functools.cache(lambda t: relevant_reference((p, p2), t))
            for cap in (3, rng.randint(0, len(stream)), 10**6):
                cut = SearchBudget(budget.max_triples, fresh, cap)
                checked = []

                def counting(a, b, g):
                    checked.append(g)
                    return check(a, b, g)

                got = analysis._search(p, p2, cut, counting, required)
                assert got == search_reference(p, p2, cut, check, required)
                examined = [g for _, g in stream][: got.candidates_examined]
                kept = [sum(map(relevant, g.triples)) for g in examined]
                assert checked == [g for g, k in zip(examined, kept) if len(g) <= 1 or k == len(g)]
                searches += 1
                skipped += len(examined) - len(checked)
                violated += got.status is Status.VIOLATED
        assert skipped > 2000 and violated > 500


class TestFindSubsumption:
    def test_small_budget_finds_one_triple_witness(self):
        p = parse_pattern("{ ?x p ?x }")
        p2 = parse_pattern("{ ?x q ?y }")
        verdict = find_subsumption_counterexample(p, p2, SearchBudget(1, 1))
        assert verdict.status is Status.VIOLATED
        graph, mapping = verdict.witness
        assert len(graph) == 1
        # witnesses are self-certifying
        recheck = check_subsumed_on(p, p2, graph)
        assert recheck.status is Status.VIOLATED
        assert recheck.witness[1] == mapping

    def test_reflexive_pair_has_no_counterexample(self):
        p = parse_pattern("{ ?x p ?x }")
        for budget in (SearchBudget(1, 1), SearchBudget(2, 1), SearchBudget(2, 2)):
            verdict = find_subsumption_counterexample(p, p, budget)
            assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET

    def test_determinism(self):
        p = parse_pattern("{ ?x p ?x }")
        p2 = parse_pattern("{ ?x q ?y }")
        budget = SearchBudget(3, 2)
        v1 = find_subsumption_counterexample(p, p2, budget)
        v2 = find_subsumption_counterexample(p, p2, budget)
        assert v1 == v2

    def test_monotone_in_max_triples(self):
        p = parse_pattern("{ ?x p ?x }")
        p2 = parse_pattern("{ ?x q ?y }")
        small = find_subsumption_counterexample(p, p2, SearchBudget(1, 2))
        large = find_subsumption_counterexample(p, p2, SearchBudget(3, 2))
        assert small.status is large.status is Status.VIOLATED
        assert small.witness == large.witness  # same enumeration-order prefix

    def test_candidate_cap_reported(self):
        p = parse_pattern("{ ?x p ?x }")
        p2 = parse_pattern("{ ?x q ?y }")
        verdict = find_subsumption_counterexample(p, p2, SearchBudget(2, 1, max_candidates=1))
        assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET
        assert verdict.candidates_examined == 1


class TestFindContainment:
    def test_empty_graph_witness(self):
        verdict = find_containment_counterexample(
            parse_pattern("{ }"), parse_pattern("{ ?x p ?y }"), SearchBudget(2, 2)
        )
        assert verdict.status is Status.VIOLATED
        graph, mapping = verdict.witness
        assert len(graph) == 0
        assert mapping == M({})

    def test_more_general_pattern_not_contained(self):
        verdict = find_containment_counterexample(
            parse_pattern("{ ?x p ?y }"), parse_pattern("{ ?x p ?x }"), SearchBudget(2, 2)
        )
        assert verdict.status is Status.VIOLATED
        graph, _ = verdict.witness
        assert len(graph) == 1
        assert (
            check_contained_on(
                parse_pattern("{ ?x p ?y }"), parse_pattern("{ ?x p ?x }"), graph
            ).status
            is Status.VIOLATED
        )


class TestFindEquivalence:
    def test_reflexive(self):
        p = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        verdict = find_equivalence_counterexample(p, p, SearchBudget(2, 3))
        assert verdict.status is Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET

    def test_optional_padding_not_equivalent(self):
        p = parse_pattern("({ } OPT { ?x p ?y })")
        p2 = parse_pattern("{ ?x p ?y }")
        verdict = find_equivalence_counterexample(p, p2, SearchBudget(2, 2))
        assert verdict.status is Status.VIOLATED
        graph, mapping = verdict.witness
        assert len(graph) == 0
        assert mapping == M({})

    def test_right_side_only_difference_found(self):
        # solutions differ only on graphs that match p2's leftmost leaf
        p = parse_pattern("{ a p a }")
        p2 = parse_pattern("{ b p b }")
        verdict = find_equivalence_counterexample(p, p2, SearchBudget(1, 0))
        assert verdict.status is Status.VIOLATED
        assert check_equivalent_on(p, p2, verdict.witness[0]).status is Status.VIOLATED


class TestVerdictAndBudget:
    def test_witness_iff_violated(self):
        with pytest.raises(ValueError):
            Verdict(Status.VIOLATED)
        with pytest.raises(ValueError):
            Verdict(Status.HOLDS_ON_GRAPH, witness=(Graph(), M({})))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(-1, 0)
        with pytest.raises(ValueError):
            SearchBudget(1, -2)

    def test_jsonable_shape(self):
        p = parse_pattern("{ ?x p ?x }")
        p2 = parse_pattern("{ ?x q ?y }")
        verdict = find_subsumption_counterexample(p, p2, SearchBudget(1, 1))
        data = verdict.to_jsonable()
        assert data["status"] == "violated"
        assert set(data) == {"status", "graph", "mapping", "candidates_examined", "budget", "position"}
        assert parse_graph(data["graph"]) == verdict.witness[0]

    def test_fresh_iris_avoid_pattern_constants(self):
        fresh = _fresh_iris(2, {"f1", "x"})
        assert [i.name for i in fresh] == ["ff1", "ff2"]
        assert _fresh_iris(2, {"x"}) == [Iri("f1"), Iri("f2")]
