"""Evaluation semantics: matching, joins, recursion, and the oracle."""

import itertools
import random

import pytest

from optpat import (
    EMPTY_MAPPING,
    BasicPattern,
    Graph,
    Iri,
    Leaf,
    Mapping,
    Opt,
    OracleBudgetError,
    SolutionSet,
    TriplePattern,
    Var,
    evaluate,
    evaluate_oracle,
    left_outer_join,
    match_basic,
    parse_graph,
    parse_pattern,
    pattern_vars,
    subsumed_mapping,
)
from optpat import evaluation

from helpers import DEFAULT_CONSTS, M, rand_basic, rand_graph, rand_pattern, rand_solution_set
from oracles import enumerate_graphs, join_reference


def basic(text):
    leaf = parse_pattern(text)
    assert isinstance(leaf, Leaf)
    return leaf.basic


class TestMatchBasic:
    def test_empty_pattern_matches_everything_once(self):
        for g in (Graph(), parse_graph("a p b .")):
            assert match_basic(basic("{ }"), g) == SolutionSet([EMPTY_MAPPING])

    def test_single_template(self):
        got = match_basic(basic("{ ?x p ?y }"), parse_graph("a p b .\na q c ."))
        assert got == SolutionSet([M({"?x": "a", "?y": "b"})])

    def test_repeated_variable_needs_self_loop(self):
        assert match_basic(basic("{ ?x p ?x }"), parse_graph("a p b .")) == SolutionSet()
        assert match_basic(basic("{ ?x p ?x }"), parse_graph("a p a .")) == SolutionSet(
            [M({"?x": "a"})]
        )

    def test_variable_predicate(self):
        got = match_basic(basic("{ a ?p b }"), parse_graph("a p b .\na q b .\nb p a ."))
        assert got == SolutionSet([M({"?p": "p"}), M({"?p": "q"})])

    def test_ground_pattern_presence(self):
        g = parse_graph("a p b .")
        assert match_basic(basic("{ a p b }"), g) == SolutionSet([EMPTY_MAPPING])
        assert match_basic(basic("{ a p a }"), g) == SolutionSet()

    def test_ground_templates_agree_with_oracle(self):
        # Ground templates, present in the graph or not, mixed with
        # variable ones: the membership tests and the search agree with the oracle.
        rng = random.Random(39)
        outcomes = set()
        for _ in range(300):
            g = rand_graph(rng, DEFAULT_CONSTS, 8)
            present = sorted(g.triples)
            ground = []
            for _ in range(rng.randint(1, 3)):
                if present and rng.random() < 0.7:
                    t = rng.choice(present)
                    ground.append(TriplePattern(t.subject, t.predicate, t.object))
                else:
                    ground.append(TriplePattern(*(rng.choice(DEFAULT_CONSTS) for _ in range(3))))
            b = BasicPattern([*ground, *rand_basic(rng).triples])
            got = match_basic(b, g)
            assert got == evaluate_oracle(Leaf(b), g)
            outcomes.add((b.ground_triples() <= g.triples, bool(got)))
        assert outcomes >= {(True, True), (False, False)}

    def test_two_thousand_ground_templates(self):
        lines = [f"n{i} p{i % 7} n{i + 1}" for i in range(2000)]
        g = parse_graph(" .\n".join(lines) + " .\nn5 q m1 .\nn6 q m2 .\n")
        b = basic("{ " + " . ".join(lines) + " . ?x q ?y }")
        assert len(b.ground_triples()) == 2000
        assert match_basic(b, g) == SolutionSet([M({"?x": "n5", "?y": "m1"}), M({"?x": "n6", "?y": "m2"})])
        absent = basic("{ " + " . ".join(lines) + " . n0 p0 n0 . ?x q ?y }")
        assert match_basic(absent, g) == SolutionSet()

    def test_domains_are_exactly_leaf_vars(self):
        rng = random.Random(50)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(100):
            g = rand_graph(rng, iris, 5)
            p = rand_pattern(rng, depth=0)
            for m in match_basic(p.basic, g):
                assert m.domain == p.basic.vars


class TestLeftOuterJoin:
    def test_empty_right_passes_left_through(self):
        w1 = SolutionSet([M({"?x": "a"}), M({"?y": "b"})])
        assert left_outer_join(w1, SolutionSet()) == w1

    def test_empty_left_is_empty(self):
        w2 = SolutionSet([M({"?x": "a"})])
        assert left_outer_join(SolutionSet(), w2) == SolutionSet()

    def test_compatible_rows_extend(self):
        w1 = SolutionSet([M({"?x": "a"})])
        w2 = SolutionSet([M({"?x": "a", "?y": "b"}), M({"?x": "c"})])
        assert left_outer_join(w1, w2) == SolutionSet([M({"?x": "a", "?y": "b"})])

    def test_matches_reference_formula_on_random_sets(self):
        rng = random.Random(51)
        for _ in range(200):
            w1, w2 = rand_solution_set(rng), rand_solution_set(rng)
            assert left_outer_join(w1, w2).mappings == frozenset(join_reference(w1, w2))

    def test_matches_reference_formula_exhaustively_on_two_variables(self):
        # every pair of solution sets of size <= 2 drawn from the nine
        # mappings on ?x ?y over a b, the empty mapping and mixed domains included
        xs = [Var("x"), Var("y")]
        iris = [Iri("a"), Iri("b")]
        mappings = [Mapping()]
        mappings += [Mapping({v: i}) for v in xs for i in iris]
        mappings += [Mapping({xs[0]: i, xs[1]: j}) for i in iris for j in iris]
        sets = [
            SolutionSet(combo)
            for size in range(3)
            for combo in itertools.combinations(mappings, size)
        ]
        assert len(sets) == 46
        for w1 in sets:
            for w2 in sets:
                assert left_outer_join(w1, w2).mappings == frozenset(join_reference(w1, w2))

    def test_matches_reference_formula_on_large_random_sets(self):
        # up to 40 rows over three variables and two IRIs: hash buckets hold
        # several rows and several domain groups meet on each side
        rng = random.Random(52)
        variables = (Var("x"), Var("y"), Var("z"))
        iris = (Iri("a"), Iri("b"))
        for _ in range(150):
            w1 = rand_solution_set(rng, variables, iris, max_size=40)
            w2 = rand_solution_set(rng, variables, iris, max_size=40)
            assert left_outer_join(w1, w2).mappings == frozenset(join_reference(w1, w2))


class TestEvaluate:
    def test_empty_leaf(self):
        assert evaluate(parse_pattern("{ }"), Graph()) == SolutionSet([EMPTY_MAPPING])

    def test_unmatched_optional_arm_keeps_left(self):
        p = parse_pattern("({ ?x p ?y } OPT { a q a })")
        g = parse_graph("a p b .")
        assert evaluate(p, g) == SolutionSet([M({"?x": "a", "?y": "b"})])

    def test_matched_optional_arm_extends(self):
        p = parse_pattern("({ ?x p ?y } OPT { ?y q ?z })")
        g = parse_graph("a p b .\nb q c .")
        assert evaluate(p, g) == SolutionSet([M({"?x": "a", "?y": "b", "?z": "c"})])

    def test_opt_solutions_extend_left_solutions(self):
        rng = random.Random(52)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(100):
            g = rand_graph(rng, iris, 5)
            p = rand_pattern(rng, depth=2)
            left = evaluate(p, g) if isinstance(p, Leaf) else evaluate(p.left, g)
            if isinstance(p, Leaf):
                continue
            for m in evaluate(p, g):
                assert any(subsumed_mapping(m1, m) for m1 in left)

    def test_solutions_stay_within_pattern_vars_and_graph_iris(self):
        rng = random.Random(53)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(100):
            g = rand_graph(rng, iris, 5)
            p = rand_pattern(rng)
            graph_iris = g.iris()
            for m in evaluate(p, g):
                assert m.domain <= pattern_vars(p)
                assert all(value in graph_iris for _, value in m.items())


def _leaves(p):
    return [p] if isinstance(p, Leaf) else _leaves(p.left) + _leaves(p.right)


def _opt_nodes(p):
    return [] if isinstance(p, Leaf) else [p, *_opt_nodes(p.left), *_opt_nodes(p.right)]


class TestShortCircuit:
    def test_empty_left_never_matches_right_leaves(self, monkeypatch):
        engine = evaluation.match_basic
        matched = set()

        def counting(b, g):
            matched.add(id(b))
            return engine(b, g)

        monkeypatch.setattr(evaluation, "match_basic", counting)
        rng = random.Random(56)
        iris = [Iri(n) for n in ("a", "b", "c")]
        skipped = 0
        for i in range(300):
            g = rand_graph(rng, iris, 4)
            p = rand_pattern(rng, depth=3)
            if i % 3 == 1:
                # `{ a zz a }` names an IRI no graph here has, so this left is empty.
                p = Opt(Opt(Leaf(basic("{ a zz a }")), rand_pattern(rng, depth=2)), p)
            elif i % 3 == 2:
                p = Opt(p, Opt(Leaf(basic("{ ?v0 zz ?v1 }")), rand_pattern(rng, depth=2)))
            matched.clear()
            assert evaluate(p, g) == evaluate_oracle(p, g)
            for node in _opt_nodes(p):
                if not evaluate_oracle(node.left, g).mappings:
                    skipped += 1
                    assert not matched & {id(leaf.basic) for leaf in _leaves(node.right)}
        assert skipped > 200


class TestSolutionSet:
    def test_deduplicates(self):
        assert len(SolutionSet([M({"?x": "a"}), M({"?x": "a"})])) == 1

    def test_jsonable_rows_sorted(self):
        ss = SolutionSet([M({"?x": "b"}), M({"?x": "a"}), EMPTY_MAPPING])
        assert ss.to_jsonable() == [{}, {"?x": "a"}, {"?x": "b"}]


class TestOracle:
    def test_empty_leaf(self):
        assert evaluate_oracle(parse_pattern("{ }"), Graph()) == SolutionSet([EMPTY_MAPPING])

    def test_agrees_with_engine_on_random_pairs(self):
        rng = random.Random(54)
        iris = [Iri(n) for n in ("a", "b", "c")]
        for _ in range(200):
            g = rand_graph(rng, iris, 4)
            p = rand_pattern(rng)
            assert evaluate(p, g) == evaluate_oracle(p, g)

    def test_budget_cap_enforced(self):
        g = parse_graph("a p b .\nb p c .\nc p d .")
        p = parse_pattern("{ ?x p ?y . ?y p ?z }")
        with pytest.raises(OracleBudgetError):
            evaluate_oracle(p, g, max_assignments=10)

    def test_exhaustive_small_space(self):
        # every graph with <= 4 triples over 3 IRIs, against a fixed family
        # that includes three- and five-node shapes
        iris = [Iri("a"), Iri("b"), Iri("p")]
        l0 = "{ }"
        l1 = "{ ?x p ?y }"
        l2 = "{ ?x p ?x }"
        l3 = "{ a p ?x }"
        family = [
            parse_pattern(l2),
            parse_pattern(f"({l1} OPT {l3})"),
            parse_pattern(f"(({l1} OPT {l3}) OPT {l2})"),
            parse_pattern(f"({l1} OPT ({l3} OPT {l2}))"),
            parse_pattern(f"(({l0} OPT {l1}) OPT {l3})"),
        ]
        for g in enumerate_graphs(iris, 4):
            for p in family:
                assert evaluate(p, g) == evaluate_oracle(p, g)
