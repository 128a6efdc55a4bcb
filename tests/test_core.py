"""Data model, mapping extension, and graph text format."""

import copy
import operator
import pickle
import random

import pytest

from optpat import (
    EMPTY_MAPPING,
    Graph,
    Iri,
    Mapping,
    ParseError,
    Triple,
    Var,
    parse_graph,
    serialize_graph,
    subsumed_mapping,
)

from helpers import M, rand_graph, rand_mapping


class TestIdentifiers:
    @pytest.mark.parametrize("name", ["a", "A_1", "_x", "hNext", "c_3_12"])
    def test_valid_names(self, name):
        assert Iri(name).name == name
        assert str(Var(name)) == "?" + name

    @pytest.mark.parametrize("name", ["", "1a", "a-b", "a b", "a'", "é"])
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ValueError):
            Iri(name)
        with pytest.raises(ValueError):
            Var(name)

    def test_iri_equality_is_string_equality(self):
        assert Iri("a") == Iri("a")
        assert Iri("a") != Iri("b")
        assert Iri("x") != Var("x")


class TestInterning:
    def test_one_object_per_name_and_kind(self):
        assert Iri("a") is Iri("a")
        assert Var("a") is Var("a")
        assert Iri("a") is not Var("a") and Iri("a") != Var("a")
        assert len({Iri("a"), Var("a"), Iri("a")}) == 2

    def test_ordered_by_name_within_a_kind(self):
        names = ["b", "B", "a_1", "_z", "a"]
        assert [i.name for i in sorted(map(Iri, names))] == sorted(names)
        assert [v.name for v in sorted(map(Var, names))] == sorted(names)
        assert Iri("a") < Iri("b") <= Iri("b") and Iri("c") >= Iri("b") > Iri("a")
        assert sorted([Triple(Iri("b"), Iri("p"), Iri("a")), Triple(Iri("a"), Iri("q"), Iri("b"))])[0].subject is Iri("a")

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_iri_and_var_do_not_compare(self, compare):
        with pytest.raises(TypeError):
            compare(Iri("a"), Var("a"))

    @pytest.mark.parametrize("term", [Iri("a"), Var("x")])
    def test_copy_and_pickle_return_the_same_object(self, term):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.deepcopy(Triple(Iri("a"), Iri("p"), Iri("b"))).subject is Iri("a")

    @pytest.mark.parametrize("term", [Iri("a"), Var("x")])
    def test_immutable(self, term):
        with pytest.raises(AttributeError):
            term.name = "b"
        with pytest.raises(AttributeError):
            term.other = 1
        with pytest.raises(AttributeError):
            del term.name
        assert term.name in ("a", "x")

    def test_repr_and_str_unchanged(self):
        assert repr(Iri("a")) == "Iri(name='a')" and str(Iri("a")) == "a"
        assert repr(Var("x")) == "Var(name='x')" and str(Var("x")) == "?x"

    @pytest.mark.parametrize("name", ["", "1a", "a-b", "é", None, 7, b"a", ["a"]])
    def test_invalid_name_raises_and_is_not_kept(self, name):
        for cls, kind in ((Iri, "IRI"), (Var, "variable")):
            before = dict(cls._table)
            with pytest.raises(ValueError) as err:
                cls(name)
            assert str(err.value) == (
                f"invalid {kind} name {name!r}: expected an identifier ([A-Za-z_][A-Za-z0-9_]*)"
            )
            assert cls._table == before


class TestGraphParsing:
    def test_single_triple(self):
        assert parse_graph("a p b .") == Graph([Triple(Iri("a"), Iri("p"), Iri("b"))])

    def test_set_semantics(self):
        g = parse_graph("a p b .\na p b .")
        assert len(g) == 1

    def test_variables_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_graph("a ?x b .")
        assert err.value.line == 1

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_graph("a p b")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            parse_graph("a p b c .")
        with pytest.raises(ParseError):
            parse_graph("a p .")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_graph("a p+q b .")

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("a p b .\n# fine\nbroken line here\n")
        assert err.value.line == 3

    def test_comments_blanks_and_loose_whitespace(self):
        g = parse_graph("# header\n\n   a\tp   b .  \n# trailer\n")
        assert g == parse_graph("a p b .")

    def test_empty_text_is_empty_graph(self):
        assert parse_graph("") == Graph()


class TestGraphSerialization:
    def test_empty(self):
        assert serialize_graph(Graph()) == ""

    def test_single(self):
        assert serialize_graph(parse_graph("a p b .")) == "a p b .\n"

    def test_sorted_output(self):
        g = parse_graph("b p a .\na p b .\na p a .")
        assert serialize_graph(g) == "a p a .\na p b .\nb p a .\n"

    def test_roundtrip_random_graphs(self):
        rng = random.Random(1101)
        iris = [Iri(n) for n in ("a", "b", "c", "d")]
        for _ in range(100):
            g = rand_graph(rng, iris, 8)
            assert parse_graph(serialize_graph(g)) == g


class TestSubsumedMapping:
    def test_empty_subsumed_by_all(self):
        assert subsumed_mapping(EMPTY_MAPPING, M({"?x": "a"}))

    def test_extension(self):
        assert subsumed_mapping(M({"?x": "a"}), M({"?x": "a", "?y": "b"}))

    def test_domain_not_contained(self):
        assert not subsumed_mapping(M({"?x": "a", "?y": "b"}), M({"?x": "a"}))

    def test_partial_order(self):
        rng = random.Random(8)
        mappings = [rand_mapping(rng) for _ in range(40)]
        for m1 in mappings:
            assert subsumed_mapping(m1, m1)
            for m2 in mappings:
                if subsumed_mapping(m1, m2) and subsumed_mapping(m2, m1):
                    assert m1 == m2
                for m3 in mappings:
                    if subsumed_mapping(m1, m2) and subsumed_mapping(m2, m3):
                        assert subsumed_mapping(m1, m3)


class TestMapping:
    def test_extensional_equality_and_hash(self):
        m1 = Mapping({Var("x"): Iri("a"), Var("y"): Iri("b")})
        m2 = Mapping([(Var("y"), Iri("b")), (Var("x"), Iri("a"))])
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert len({m1, m2}) == 1

    def test_domain_and_lookup(self):
        m = M({"?x": "a"})
        assert m.domain == frozenset({Var("x")})
        assert m[Var("x")] == Iri("a")
        assert m.get(Var("y")) is None

    def test_jsonable_uses_sigils(self):
        assert M({"?y": "b", "?x": "a"}).to_jsonable() == {"?x": "a", "?y": "b"}
