"""Pattern syntax, the two classifiers, and the reference classifiers' occurrence machinery."""

import random
import time

import pytest

from optpat import (
    BasicPattern,
    Iri,
    Leaf,
    Opt,
    ParseError,
    Var,
    is_weakly_well_designed,
    is_well_designed,
    parse_pattern,
    pattern_vars,
    serialize_pattern,
)
from optpat.analysis import _same_pattern
from optpat.pattern import TriplePattern

from helpers import DEFAULT_VARS, rand_pattern, rand_pattern_nodes
from oracles import (
    _dominates,
    _inside,
    _occurrences,
    parse_pattern_reference,
    wd_reference,
    wwd_reference,
)


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


# Whitespace runs: spaces, tabs and form feeds, no-break, em and ideographic
# spaces; and 2,000-character indents.
_SHORT_RUNS = [" \t \x0c", "\x0c\x0c", "\t\t\t", "\u00a0\u00a0", "\u2003", "\u3000 \u3000"]
_INDENTS = [" " * 2000, "\n" + " " * 2000, "\t" * 2000, "\n" + "\u3000" * 2000 + "\x0c"]


def _fuzz_text(rng: random.Random, pieces: list[str] = _FUZZ_PIECES) -> str:
    if rng.random() < 0.3:
        return "".join(rng.choice((" ", "", "\n")) + rng.choice(pieces)
                       for _ in range(rng.randint(0, 12)))
    text = serialize_pattern(rand_pattern(rng, depth=3), pretty=rng.random() < 0.4)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4:
            text = text[:at] + rng.choice(pieces) + text[at:]
        elif edit < 0.6:
            text = text[:at] + text[at + rng.randint(1, 4):]
        elif edit < 0.8:
            text = text.replace("OPT", "", 1)  # a missing OPT
        else:
            text += rng.choice((" ", "\n", "")) + rng.choice(pieces)  # trailing input
    return text


def _whitespace_fuzz_text(rng: random.Random) -> str:
    """A fuzz text whose spaces become whitespace runs, with more runs put
    between and inside tokens."""
    text = _fuzz_text(rng, _FUZZ_PIECES + _SHORT_RUNS)
    text = "".join(rng.choice(_SHORT_RUNS) if c == " " and rng.random() < 0.3 else c for c in text)
    for _ in range(rng.randint(0, 2)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_SHORT_RUNS + _INDENTS) + text[at:]
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
        rng = random.Random(49)
        for _ in range(2000):
            text = _whitespace_fuzz_text(rng)
            expected = _parse_outcome(parse_pattern_reference, text)
            assert _parse_outcome(parse_pattern, text) == expected, repr(text)

    def test_long_trailing_whitespace_is_linear(self):
        # A tokenizer that fails to match at the end of input would rescan a
        # trailing whitespace run from each of its positions, in time quadratic
        # in its length: tens of seconds on these inputs.
        start = time.perf_counter()
        assert len(parse_pattern("{ a p b }" + " " * 20_000).basic) == 1
        with pytest.raises(ParseError) as err:
            parse_pattern("(" + "\n" * 10_000 + " " * 10_000)
        assert (err.value.line, err.value.column) == (10_001, 10_001)
        assert time.perf_counter() - start < 1.0


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


def _paths(p):
    return [path for path, _ in _occurrences(p)]


class TestOccurrences:
    """The reference classifiers' occurrence machinery (`oracles`)."""

    def test_leaf(self):
        assert _paths(parse_pattern("{ }")) == [()]

    def test_single_opt(self):
        assert _paths(parse_pattern("({ } OPT { })")) == [(), ("L",), ("R",)]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_left_deep_chain_counts(self, k):
        p = chain(*(["{ }"] * (k + 1)))
        assert len(_occurrences(p)) == 2 * k + 1

    def test_node_at_dangling_path(self):
        assert ("L",) not in _paths(parse_pattern("{ }"))


class TestInside:
    def test_descendant(self):
        assert _inside(("L", "R"), ("L",))

    def test_reflexive(self):
        assert _inside(("L",), ("L",))

    def test_disjoint(self):
        assert not _inside(("L",), ("R",))

    def test_partial_order_on_random_pattern(self):
        rng = random.Random(44)
        for _ in range(30):
            occs = _paths(rand_pattern(rng))
            for o1 in occs:
                assert _inside(o1, o1)
                for o2 in occs:
                    if _inside(o1, o2) and _inside(o2, o1):
                        assert o1 == o2
                    for o3 in occs:
                        if _inside(o1, o2) and _inside(o2, o3):
                            assert _inside(o1, o3)


class TestDominates:
    def test_left_dominates_right(self):
        p = parse_pattern("({ a p a } OPT { b q b })")
        assert _dominates(_occurrences(p), ("L",), ("R",))

    def test_asymmetry(self):
        p = parse_pattern("({ a p a } OPT { b q b })")
        assert not _dominates(_occurrences(p), ("R",), ("L",))

    def test_nested_via_root(self):
        p = parse_pattern("(({ a p a } OPT { b q b }) OPT { c r c })")
        assert _dominates(_occurrences(p), ("L", "R"), ("R",))

    def test_never_self_dominates(self):
        rng = random.Random(45)
        for _ in range(50):
            occs = _occurrences(rand_pattern(rng))
            for o, _ in occs:
                assert not _dominates(occs, o, o)

    def test_chain_prefix_dominates_later_leaves(self):
        occs = _occurrences(chain("{ a p a }", "{ b p b }", "{ c p c }", "{ d p d }"))
        leaf_occs = [path for path, node in occs if isinstance(node, Leaf)]
        # every occurrence within the prefix before leaf i dominates leaf i
        for i, leaf in enumerate(leaf_occs[1:], start=1):
            prefix_node = ("L",) * (len(leaf_occs) - 1 - i + 1)
            for occ, _ in occs:
                if _inside(occ, prefix_node):
                    assert _dominates(occs, occ, leaf)


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

    def test_seeded_sweep_with_branching_trees(self):
        # Trees up to depth 6 over one to four variables shared across leaves.
        rng = random.Random(61)
        classes: dict[tuple[bool, bool], int] = {}
        for _ in range(2000):
            variables = DEFAULT_VARS[: rng.randint(1, 4)]
            p = rand_pattern(rng, depth=rng.randint(1, 6), variables=variables)
            found = (is_well_designed(p), is_weakly_well_designed(p))
            assert found == (wd_reference(p), wwd_reference(p)), serialize_pattern(p)
            classes[found] = classes.get(found, 0) + 1
        for cls in ((True, True), (False, True), (False, False)):
            assert classes.get(cls, 0) >= 100, classes

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
