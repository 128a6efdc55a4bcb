"""Independent reference implementations used to cross-check the library.

These are deliberately literal: the classifiers enumerate every
(OPT occurrence, variable, occurrence) combination with their own path
machinery, the join applies the two-clause set-builder definition over
plain dicts, the graph enumerator takes combinations of the full triple
list, and the candidate stream materialises each triple-count level,
sorts it and filters fresh-IRI orbits graph by graph; the orbit table scans
each triple's fresh IRIs one call per entry; a triple's relevance to a
search is read off the enumeration oracle on the one-triple graph; the
pattern parser is a character-by-character tokenizer feeding a recursive
descent; the tile backtracker recurses once per cell, and rectangles are
checked cell by cell. Nothing here reuses the library's classifier, join,
matcher, candidate-generation, parsing or tiling-search code.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from optpat import (
    BasicPattern,
    Graph,
    Iri,
    Leaf,
    Mapping,
    Opt,
    ParseError,
    Pattern,
    SearchBudget,
    SolutionSet,
    Status,
    Triple,
    TriplePattern,
    Var,
    RectTiling,
    TilingInstance,
    Verdict,
    evaluate_oracle,
)
from optpat.pattern import Term, pattern_constants


def _occurrences(p: Pattern) -> list[tuple[tuple[str, ...], Pattern]]:
    out: list[tuple[tuple[str, ...], Pattern]] = []

    def walk(node: Pattern, path: tuple[str, ...]) -> None:
        out.append((path, node))
        if isinstance(node, Opt):
            walk(node.left, path + ("L",))
            walk(node.right, path + ("R",))

    walk(p, ())
    return out


def _vars_of(node: Pattern) -> set[Var]:
    if isinstance(node, Leaf):
        return {t for tp in node.basic.triples for t in tp.terms() if isinstance(t, Var)}
    return _vars_of(node.left) | _vars_of(node.right)


def _inside(path1: tuple[str, ...], path2: tuple[str, ...]) -> bool:
    # descendant-or-self
    return path1[: len(path2)] == path2


def _dominates(occs, path1, path2) -> bool:
    return any(
        isinstance(node, Opt)
        and _inside(path1, path + ("L",))
        and _inside(path2, path + ("R",))
        for path, node in occs
    )


def wd_reference(p: Pattern) -> bool:
    occs = _occurrences(p)
    for path, node in occs:
        if not isinstance(node, Opt):
            continue
        fresh = _vars_of(node.right) - _vars_of(node.left)
        for v in fresh:
            for site, sub in occs:
                if isinstance(sub, Leaf) and v in _vars_of(sub) and not _inside(site, path):
                    return False
    return True


def wwd_reference(p: Pattern) -> bool:
    occs = _occurrences(p)
    for path, node in occs:
        if not isinstance(node, Opt):
            continue
        fresh = _vars_of(node.right) - _vars_of(node.left)
        for v in fresh:
            for site, sub in occs:
                if not (isinstance(sub, Leaf) and v in _vars_of(sub)):
                    continue
                if _inside(site, path):
                    continue
                # the outside use must sit in some occurrence dominated by `path`
                if not any(
                    _inside(site, other) and _dominates(occs, path, other)
                    for other, _ in occs
                ):
                    return False
    return True


def join_reference(w1: SolutionSet, w2: SolutionSet) -> set[Mapping]:
    """Two-clause left outer join, straight from the definition."""
    rows1 = [dict(m.items()) for m in w1.mappings]
    rows2 = [dict(m.items()) for m in w2.mappings]

    def compat(d1: dict, d2: dict) -> bool:
        return all(d1[k] == v for k, v in d2.items() if k in d1)

    out: set[Mapping] = set()
    for d1 in rows1:
        for d2 in rows2:
            if compat(d1, d2):
                out.add(Mapping({**d1, **d2}))
    for d1 in rows1:
        if all(not compat(d1, d2) for d2 in rows2):
            out.add(Mapping(d1))
    return out


def _all_triples(vocabulary: Sequence[Iri]) -> list[Triple]:
    return [Triple(s, p, o) for s in vocabulary for p in vocabulary for o in vocabulary]


def enumerate_graphs(vocabulary: Sequence[Iri], max_triples: int) -> Iterator[Graph]:
    """Every graph with at most `max_triples` triples over the vocabulary,
    exactly once, in nondecreasing triple count and a fixed deterministic
    order (combinations of the vocabulary-ordered triple list)."""
    vocab = list(dict.fromkeys(vocabulary))
    if not vocab:
        raise ValueError("vocabulary must be non-empty")
    triples = _all_triples(vocab)
    for count in range(max_triples + 1):
        for combo in itertools.combinations(triples, count):
            yield Graph(combo)


def _fresh_iris(count: int, avoid: set[str]) -> list[Iri]:
    prefix = "f"
    pattern = re.compile(re.escape(prefix) + r"\d+\Z")
    while any(pattern.match(name) for name in avoid):
        prefix += "f"
        pattern = re.compile(re.escape(prefix) + r"\d+\Z")
    return [Iri(f"{prefix}{i}") for i in range(1, count + 1)]


def _fresh_canonical(sorted_triples: list[Triple], fresh: list[Iri], fresh_set: frozenset[Iri]) -> bool:
    # Keep one representative per renaming orbit: fresh IRIs must first occur
    # (scanning canonical triple order, s/p/o within a triple) in list order.
    seen: list[Iri] = []
    for t in sorted_triples:
        for term in (t.subject, t.predicate, t.object):
            if term in fresh_set and term not in seen:
                seen.append(term)
    return seen == fresh[: len(seen)]


def orbit_table_reference(constants: int, fresh: int) -> list[list[int]]:
    """step[n][i]: fresh IRIs seen once triple i joins a prefix that has seen
    the first n of them, or -1 if triple i names one out of order. Triples
    are indexed as in `_all_triples` over `constants` constants followed by
    `fresh` fresh IRIs, and scanned subject, predicate, object."""
    terms = range(constants + fresh)
    ids = [[v - constants for v in t if v >= constants] for t in itertools.product(terms, repeat=3)]

    def seen_after(n: int, fresh_ids: list[int]) -> int:
        for k in fresh_ids:
            if k > n:
                return -1
            n += k == n
        return n

    return [[seen_after(n, f) for f in ids] for n in range(fresh + 1)]


def candidate_stream_reference(
    p: Pattern,
    p2: Pattern,
    budget: SearchBudget,
    required_sets: Sequence[frozenset[Triple]],
) -> Iterator[tuple[tuple[int, int], Graph]]:
    """Candidate graphs in (triple count, ordinal) order.

    Only graphs containing at least one of the `required_sets` are emitted:
    a violation needs a nonempty solution set on the left pattern, which in
    turn needs that pattern's leftmost-leaf ground triples present, so the
    skipped graphs can never be counterexamples. Graphs differing from an
    earlier candidate only by a permutation of fresh IRIs are skipped too;
    pattern semantics cannot tell such graphs apart.
    """
    constants = sorted(pattern_constants(p) | pattern_constants(p2))
    fresh = _fresh_iris(budget.max_fresh_iris, {c.name for c in constants})
    vocabulary = constants + fresh
    triples = _all_triples(vocabulary)
    index = {t: i for i, t in enumerate(triples)}
    fresh_set = frozenset(fresh)
    requirements = [frozenset(r) for r in required_sets]

    for count in range(budget.max_triples + 1):
        batch: set[frozenset[Triple]] = set()
        for required in requirements:
            extra = count - len(required)
            if extra < 0:
                continue
            others = [t for t in triples if t not in required]
            if extra > len(others):
                continue
            for combo in itertools.combinations(others, extra):
                batch.add(required.union(combo))
        ordinal = 0
        for gset in sorted(batch, key=lambda s: sorted(index[t] for t in s)):
            ordered = sorted(gset, key=index.__getitem__)
            if not _fresh_canonical(ordered, fresh, fresh_set):
                continue
            yield (count, ordinal), Graph(gset)
            ordinal += 1


def search_reference(
    p: Pattern,
    p2: Pattern,
    budget: SearchBudget,
    check: Callable[[Pattern, Pattern, Graph], Verdict],
    required_sets: Sequence[frozenset[Triple]],
) -> Verdict:
    """Bounded search over `candidate_stream_reference`: check at most
    `max_candidates`, stop at the first violation."""
    examined = 0
    last: tuple[int, int] | None = None
    for position, g in candidate_stream_reference(p, p2, budget, required_sets):
        if examined >= budget.max_candidates:
            break
        examined += 1
        last = position
        verdict = check(p, p2, g)
        if verdict.status is Status.VIOLATED:
            return Verdict(
                Status.VIOLATED,
                witness=verdict.witness,
                candidates_examined=examined,
                budget=budget,
                position=position,
            )
    return Verdict(
        Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET,
        candidates_examined=examined,
        budget=budget,
        position=last,
    )


def relevant_reference(patterns: Sequence[Pattern], t: Triple) -> bool:
    """Does some triple pattern of some leaf of the patterns have a solution
    on the graph holding `t` alone?"""
    g = Graph([t])
    return any(
        evaluate_oracle(Leaf(BasicPattern([tp])), g).mappings
        for p in patterns
        for _, node in _occurrences(p)
        if isinstance(node, Leaf)
        for tp in node.basic.triples
    )


# --- the pattern parser of the first releases, kept verbatim ----------------


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | var | lbrace | rbrace | lparen | rparen | dot | eof
    text: str
    line: int
    col: int


_PUNCT = {"{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen", ".": "dot"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c.isspace():
            i, col = i + 1, col + 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, line, col))
            i, col = i + 1, col + 1
        elif c == "?" or c.isalpha() or c == "_":
            start_line, start_col = line, col
            is_var = c == "?"
            if is_var:
                i, col = i + 1, col + 1
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if not name or name[0].isdigit():
                raise ParseError("expected identifier", start_line, start_col)
            tokens.append(_Token("var" if is_var else "ident", name, start_line, start_col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.take()

    def pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "lparen":
            self.take()
            left = self.pattern()
            kw = self.peek()
            if kw.kind != "ident" or kw.text != "OPT":
                raise ParseError(f"expected 'OPT', found {kw.text or 'end of input'!r}", kw.line, kw.col)
            self.take()
            right = self.pattern()
            self.expect("rparen", "')'")
            return Opt(left, right)
        if tok.kind == "lbrace":
            return Leaf(self.basic())
        raise ParseError(
            f"expected pattern, found {tok.text or 'end of input'!r}", tok.line, tok.col
        )

    def basic(self) -> BasicPattern:
        self.expect("lbrace", "'{'")
        triples: list[TriplePattern] = []
        if self.peek().kind == "rbrace":
            self.take()
            return BasicPattern()
        triples.append(self.triple())
        while self.peek().kind == "dot":
            self.take()
            if self.peek().kind == "rbrace":
                break  # trailing dot
            triples.append(self.triple())
        self.expect("rbrace", "'}'")
        return BasicPattern(triples)

    def triple(self) -> TriplePattern:
        return TriplePattern(self.term(), self.term(), self.term())

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            return Iri(self.take().text)
        if tok.kind == "var":
            return Var(self.take().text)
        raise ParseError(
            f"expected term, found {tok.text or 'end of input'!r}", tok.line, tok.col
        )


def parse_pattern_reference(text: str) -> Pattern:
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    p = parser.pattern()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.col)
    return p


# --- the recursive tile backtracker of the first releases, kept verbatim ----


def _backtrack_grid(
    inst: TilingInstance, width: int, height: int, wrap: bool
) -> tuple[tuple[str, ...], ...] | None:
    """Fill cells in row-major order, trying tiles in instance order."""
    cells: list[str | None] = [None] * (width * height)

    def at(x: int, y: int) -> str:
        value = cells[y * width + x]
        assert value is not None
        return value

    def ok(x: int, y: int, tile: str) -> bool:
        if x > 0 and (at(x - 1, y), tile) not in inst.h_compat:
            return False
        if y > 0 and (at(x, y - 1), tile) not in inst.v_compat:
            return False
        if wrap:
            if x == width - 1 and (tile, at(0, y) if width > 1 else tile) not in inst.h_compat:
                return False
            if y == height - 1 and (tile, at(x, 0) if height > 1 else tile) not in inst.v_compat:
                return False
        return True

    def fill(i: int) -> bool:
        if i == width * height:
            return True
        x, y = i % width, i // width
        for tile in inst.tiles:
            if ok(x, y, tile):
                cells[i] = tile
                if fill(i + 1):
                    return True
                cells[i] = None
        return False

    if not fill(0):
        return None
    return tuple(
        tuple(at(x, y) for x in range(width)) for y in range(height)
    )


def verify_rectangle(inst: TilingInstance, rt: RectTiling) -> bool:
    """Every tile is the instance's, and every horizontally and vertically
    adjacent pair is compatible; no wraparound."""
    known = set(inst.tiles)
    for row in rt.rows:
        for t in row:
            if t not in known:
                raise ValueError(f"grid uses unknown tile {t!r}")
    for y in range(rt.height):
        for x in range(rt.width):
            here = rt.rows[y][x]
            if x + 1 < rt.width and (here, rt.rows[y][x + 1]) not in inst.h_compat:
                return False
            if y + 1 < rt.height and (here, rt.rows[y + 1][x]) not in inst.v_compat:
                return False
    return True
