"""Pattern syntax, occurrence machinery, and the two classifiers."""

import random

import pytest

from optpat import (
    BasicPattern,
    Iri,
    Leaf,
    Occurrence,
    Opt,
    ParseError,
    Var,
    dominates,
    inside,
    is_weakly_well_designed,
    is_well_designed,
    occurrences,
    parse_pattern,
    pattern_vars,
    serialize_pattern,
)
from optpat.analysis import _same_pattern
from optpat.pattern import TriplePattern, leaf_occurrences, node_at

from helpers import rand_pattern, rand_pattern_nodes
from oracles import parse_pattern_reference, wd_reference, wwd_reference


def chain(*texts):
    """Left-deep OPT chain over basic-pattern sources."""
    parts = [parse_pattern(t) for t in texts]
    p = parts[0]
    for part in parts[1:]:
        p = Opt(p, part)
    return p


class TestParsing:
    def test_single_leaf(self):
        p = parse_pattern("{ ?x p ?y }")
        assert isinstance(p, Leaf)
        assert len(p.basic) == 1

    def test_opt_pair(self):
        p = parse_pattern("({ ?x p ?y } OPT { ?x q ?z })")
        assert isinstance(p, Opt)
        assert isinstance(p.left, Leaf) and isinstance(p.right, Leaf)

    def test_empty_basic(self):
        p = parse_pattern("{ }")
        assert isinstance(p, Leaf)
        assert len(p.basic) == 0

    def test_trailing_dot_and_comments(self):
        p = parse_pattern("# heading\n{ a p b . c q d . } # trailing\n")
        assert isinstance(p, Leaf)
        assert len(p.basic) == 2

    def test_whitespace_insensitive(self):
        assert parse_pattern("({?x p ?y}OPT{?x q ?z})") == parse_pattern(
            "( { ?x p ?y } OPT { ?x q ?z } )"
        )

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_pattern("")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_pattern("({ a p b } OPT { c q d }")

    def test_missing_opt_keyword(self):
        with pytest.raises(ParseError):
            parse_pattern("({ a p b } { c q d })")

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_pattern("{ a p\n% }")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_pattern("{ a p b } { c q d }")

    def test_opt_usable_as_plain_identifier_in_triples(self):
        p = parse_pattern("{ OPT OPT OPT }")
        assert isinstance(p, Leaf) and len(p.basic) == 1

    def test_deep_chain_parses_without_recursion(self):
        leaves = 5000
        text = "(" * (leaves - 1) + "{ ?x p0 ?y }"
        text += "".join(f" OPT {{ ?x p{i} ?y }})" for i in range(1, leaves))
        x, y = Var("x"), Var("y")
        expected = Leaf(BasicPattern([TriplePattern(x, Iri("p0"), y)]))
        for i in range(1, leaves):
            expected = Opt(expected, Leaf(BasicPattern([TriplePattern(x, Iri(f"p{i}"), y)])))
        assert _same_pattern(parse_pattern(text), expected)

    def test_terms_shared_within_a_parse(self):
        p = parse_pattern("({ ?x p a } OPT { ?x p ?y })")
        (left,), (right,) = p.left.basic.triples, p.right.basic.triples
        assert left.subject is right.subject and left.predicate is right.predicate


# Pieces of pattern text, well-formed or not: non-ASCII letters and digits,
# "?" alone and before a digit, comments, CR/LF and other line breaks.
_FUZZ_PIECES = [
    "{", "}", "(", ")", ".", "OPT", "opt", "OPTx", "?x", "?y", "?_v", "?", "?1", "?\u00b2",
    "?\u00e9", "?\u00bd", "a", "p", "_b", "x2", "\u00e9", "\u00f1ame", "1", "1a", "\u00bd",
    "\u00b2", "\u216b", "#", "# note", "#{ a p b }", "\n", "\r\n", "\r", " ", "  ", "\t",
    "\u00a0", "\u2028", "\x0b", "$", "%", ",", ";", "<a>", "\"",
]


def _fuzz_text(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return "".join(rng.choice((" ", "", "\n")) + rng.choice(_FUZZ_PIECES)
                       for _ in range(rng.randint(0, 12)))
    text = serialize_pattern(rand_pattern(rng, depth=3), pretty=rng.random() < 0.4)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4:
            text = text[:at] + rng.choice(_FUZZ_PIECES) + text[at:]
        elif edit < 0.6:
            text = text[:at] + text[at + rng.randint(1, 4):]
        elif edit < 0.8:
            text = text.replace("OPT", "", 1)  # a missing OPT
        else:
            text += rng.choice((" ", "\n", "")) + rng.choice(_FUZZ_PIECES)  # trailing input
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


class TestParserAgainstReference:
    """The regular-expression parser against the first releases' tokenizer
    and recursive descent (`oracles.parse_pattern_reference`)."""

    def test_seeded_fuzz(self):
        rng = random.Random(48)
        kinds: dict[str, int] = {}
        for _ in range(6000):
            text = _fuzz_text(rng)
            expected = _parse_outcome(parse_pattern_reference, text)
            assert _parse_outcome(parse_pattern, text) == expected, repr(text)
            if not isinstance(expected, tuple):
                kind = "ok"
            else:
                kind = expected[1].split(": ", 1)[expected[0] is ParseError][:14]
            kinds[kind] = kinds.get(kind, 0) + 1
        for kind in ("ok", "expected ident", "unexpected cha", "expected 'OPT'",
                     "unexpected tra", "expected term,", "invalid IRI na", "invalid variab"):
            assert kinds.get(kind, 0) >= 10, (kind, kinds)


class TestSerialization:
    def test_compact_roundtrip_random(self):
        rng = random.Random(42)
        for _ in range(200):
            p = rand_pattern(rng)
            assert parse_pattern(serialize_pattern(p)) == p

    def test_pretty_roundtrip_random(self):
        rng = random.Random(43)
        for _ in range(100):
            p = rand_pattern(rng)
            assert parse_pattern(serialize_pattern(p, pretty=True)) == p

    def test_leaf_triples_sorted(self):
        p = parse_pattern("{ b p a . a p b }")
        assert serialize_pattern(p) == "{ a p b . b p a }"

    def test_empty_leaf(self):
        assert serialize_pattern(parse_pattern("{}")) == "{ }"


class TestVars:
    def test_ground_pattern(self):
        assert pattern_vars(parse_pattern("{ a p b }")) == frozenset()

    def test_opt_pattern(self):
        p = parse_pattern("({?x p ?y} OPT {?y q ?z})")
        assert pattern_vars(p) == frozenset({Var("x"), Var("y"), Var("z")})


class TestOccurrences:
    def test_leaf(self):
        assert occurrences(parse_pattern("{ }")) == [Occurrence()]

    def test_single_opt(self):
        occs = occurrences(parse_pattern("({ } OPT { })"))
        assert occs == [Occurrence(), Occurrence(("L",)), Occurrence(("R",))]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_left_deep_chain_counts(self, k):
        p = chain(*(["{ }"] * (k + 1)))
        assert len(occurrences(p)) == 2 * k + 1

    def test_node_at_dangling_path(self):
        with pytest.raises(ValueError):
            node_at(parse_pattern("{ }"), Occurrence(("L",)))


class TestInside:
    def test_descendant(self):
        assert inside(Occurrence(("L", "R")), Occurrence(("L",)))

    def test_reflexive(self):
        o = Occurrence(("L",))
        assert inside(o, o)

    def test_disjoint(self):
        assert not inside(Occurrence(("L",)), Occurrence(("R",)))

    def test_partial_order_on_random_pattern(self):
        rng = random.Random(44)
        for _ in range(30):
            occs = occurrences(rand_pattern(rng))
            for o1 in occs:
                assert inside(o1, o1)
                for o2 in occs:
                    if inside(o1, o2) and inside(o2, o1):
                        assert o1 == o2
                    for o3 in occs:
                        if inside(o1, o2) and inside(o2, o3):
                            assert inside(o1, o3)


class TestDominates:
    def test_left_dominates_right(self):
        p = parse_pattern("({ a p a } OPT { b q b })")
        assert dominates(p, Occurrence(("L",)), Occurrence(("R",)))

    def test_asymmetry(self):
        p = parse_pattern("({ a p a } OPT { b q b })")
        assert not dominates(p, Occurrence(("R",)), Occurrence(("L",)))

    def test_nested_via_root(self):
        p = parse_pattern("(({ a p a } OPT { b q b }) OPT { c r c })")
        assert dominates(p, Occurrence(("L", "R")), Occurrence(("R",)))

    def test_never_self_dominates(self):
        rng = random.Random(45)
        for _ in range(50):
            p = rand_pattern(rng)
            for o in occurrences(p):
                assert not dominates(p, o, o)

    def test_chain_prefix_dominates_later_leaves(self):
        p = chain("{ a p a }", "{ b p b }", "{ c p c }", "{ d p d }")
        leaf_occs = [occ for occ, _ in leaf_occurrences(p)]
        # every occurrence within the prefix before leaf i dominates leaf i
        for i, leaf in enumerate(leaf_occs[1:], start=1):
            prefix_node = Occurrence(("L",) * (len(leaf_occs) - 1 - i + 1))
            for occ in occurrences(p):
                if inside(occ, prefix_node):
                    assert dominates(p, occ, leaf)


class TestWellDesigned:
    def test_leaf_is_wd(self):
        assert is_well_designed(parse_pattern("{ ?x p ?y }"))

    def test_simple_opt_is_wd(self):
        assert is_well_designed(parse_pattern("({?x p ?y} OPT {?x q ?z})"))

    def test_escaping_variable_breaks_wd(self):
        p = parse_pattern("(({?x p ?y} OPT {?z q ?z}) OPT {?z r ?x})")
        assert not is_well_designed(p)
        # the escape is into a dominated position, so the weak class keeps it
        assert is_weakly_well_designed(p)


class TestWeaklyWellDesigned:
    def test_wd_implies_wwd(self):
        rng = random.Random(46)
        for _ in range(300):
            p = rand_pattern(rng)
            if is_well_designed(p):
                assert is_weakly_well_designed(p)

    def test_left_sibling_use_without_fresh_vars(self):
        p = parse_pattern("(({?z s ?z} OPT {a p a}) OPT {?z q ?z})")
        assert is_weakly_well_designed(p)
        assert is_well_designed(p)  # no OPT introduces a fresh variable at all

    def test_undominated_reuse_breaks_wwd(self):
        # ?z enters through the nested OPT's right argument but also occurs
        # in the root's left argument, which nothing dominates
        p = parse_pattern("({?z r ?z} OPT ({a p a} OPT {?z q ?z}))")
        assert not is_weakly_well_designed(p)
        assert not is_well_designed(p)

    def test_dominated_reuse_is_wwd_but_not_wd(self):
        # same shape but the re-use sits in the root's right argument, which
        # the inner OPT dominates (inside is descendant-or-self)
        p = parse_pattern("(({a p a} OPT {?z q ?z}) OPT {?z r ?z})")
        assert is_weakly_well_designed(p)
        assert not is_well_designed(p)


class TestClassifiersAgainstReference:
    def test_agreement_on_random_patterns(self):
        rng = random.Random(47)
        for _ in range(200):
            p = rand_pattern_nodes(rng, max_nodes=9)
            assert is_well_designed(p) == wd_reference(p)
            assert is_weakly_well_designed(p) == wwd_reference(p)

    def test_agreement_on_handpicked_corners(self):
        texts = [
            "{ }",
            "({ } OPT { })",
            "(({?x p ?y} OPT {?z q ?z}) OPT {?z r ?x})",
            "({?z r ?z} OPT ({a p a} OPT {?z q ?z}))",
            "(({a p a} OPT {?z q ?z}) OPT {?z r ?z})",
            "(({a p a} OPT {?z q ?z}) OPT ({?z s ?z} OPT {?w t ?w}))",
            "(({a p a} OPT {?z q ?z}) OPT ({?w t ?w} OPT {?z s ?z}))",
        ]
        for text in texts:
            p = parse_pattern(text)
            assert is_well_designed(p) == wd_reference(p), text
            assert is_weakly_well_designed(p) == wwd_reference(p), text
