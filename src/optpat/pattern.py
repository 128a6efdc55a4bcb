"""Pattern AST for the OPT fragment, its text syntax, occurrence machinery,
and the well-designed / weakly well-designed classifiers.

A pattern is a binary tree whose leaves are basic graph patterns and whose
internal nodes are OPT operators. Occurrences address parse-tree nodes by
their root path, so repeated subpatterns stay distinguishable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

from .core import Iri, ParseError, Triple, Var

Term = Union[Iri, Var]


@dataclass(frozen=True)
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.subject, self.predicate, self.object)

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object}"


class BasicPattern:
    """A possibly empty, duplicate-free set of triple patterns."""

    __slots__ = ("triples", "_sorted")

    def __init__(self, triples: Iterable[TriplePattern] = ()):
        self.triples: frozenset[TriplePattern] = frozenset(triples)
        self._sorted: tuple[TriplePattern, ...] | None = None

    def __len__(self) -> int:
        return len(self.triples)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BasicPattern) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"BasicPattern({sorted(map(str, self.triples))})"

    def sorted_triples(self) -> tuple[TriplePattern, ...]:
        """The triple patterns in the order of their text; computed once."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.triples, key=lambda tp: tuple(map(str, tp.terms()))))
        return self._sorted

    @property
    def vars(self) -> frozenset[Var]:
        return frozenset(t for tp in self.triples for t in tp.terms() if isinstance(t, Var))

    @property
    def constants(self) -> frozenset[Iri]:
        return frozenset(t for tp in self.triples for t in tp.terms() if isinstance(t, Iri))

    def ground_triples(self) -> frozenset[Triple]:
        """The fully ground templates, as graph triples."""
        return frozenset(
            Triple(tp.subject, tp.predicate, tp.object)
            for tp in self.triples
            if not any(isinstance(t, Var) for t in tp.terms())
        )


@dataclass(frozen=True)
class Leaf:
    basic: BasicPattern


@dataclass(frozen=True)
class Opt:
    left: "Pattern"
    right: "Pattern"


Pattern = Union[Leaf, Opt]

LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class Occurrence:
    """Address of a parse-tree node: the branch path from the root."""

    path: tuple[str, ...] = ()

    def child(self, step: str) -> "Occurrence":
        return Occurrence(self.path + (step,))

    def __str__(self) -> str:
        return ".".join(self.path) if self.path else "ε"


ROOT = Occurrence()


def pattern_vars(p: Pattern) -> frozenset[Var]:
    """All variables appearing in any leaf of the pattern."""
    if isinstance(p, Leaf):
        return p.basic.vars
    return pattern_vars(p.left) | pattern_vars(p.right)


def pattern_constants(p: Pattern) -> frozenset[Iri]:
    if isinstance(p, Leaf):
        return p.basic.constants
    return pattern_constants(p.left) | pattern_constants(p.right)


def node_at(p: Pattern, occ: Occurrence) -> Pattern:
    """The subtree addressed by `occ`; raises ValueError on a dangling path."""
    node = p
    for step in occ.path:
        if not isinstance(node, Opt):
            raise ValueError(f"occurrence {occ} does not address a node")
        node = node.left if step == LEFT else node.right
    return node


def occurrences(p: Pattern) -> list[Occurrence]:
    """All node addresses, in preorder."""
    out: list[Occurrence] = []

    def walk(node: Pattern, path: tuple[str, ...]) -> None:
        out.append(Occurrence(path))
        if isinstance(node, Opt):
            walk(node.left, path + (LEFT,))
            walk(node.right, path + (RIGHT,))

    walk(p, ())
    return out


def leaf_occurrences(p: Pattern) -> list[tuple[Occurrence, BasicPattern]]:
    """Leaf addresses with their basic patterns, left to right."""
    out: list[tuple[Occurrence, BasicPattern]] = []

    def walk(node: Pattern, path: tuple[str, ...]) -> None:
        if isinstance(node, Leaf):
            out.append((Occurrence(path), node.basic))
        else:
            walk(node.left, path + (LEFT,))
            walk(node.right, path + (RIGHT,))

    walk(p, ())
    return out


def leaf_basics(p: Pattern) -> list[BasicPattern]:
    return [b for _, b in leaf_occurrences(p)]


def leftmost_basic(p: Pattern) -> BasicPattern:
    node = p
    while isinstance(node, Opt):
        node = node.left
    return node.basic


def opt_occurrences(p: Pattern) -> list[Occurrence]:
    return [o for o in occurrences(p) if isinstance(node_at(p, o), Opt)]


def inside(o1: Occurrence, o2: Occurrence) -> bool:
    """True iff o1 addresses a node within the subtree at o2 (descendant-or-self).

    Reflexivity is deliberate: with strict descendance, the left argument of
    an OPT node would not count as inside itself and left-deep chains would
    misclassify under the dominance check below.
    """
    return o1.path[: len(o2.path)] == o2.path


def dominates(p: Pattern, o1: Occurrence, o2: Occurrence) -> bool:
    """True iff some OPT occurrence has o1 inside its left argument and o2
    inside its right argument."""
    node_at(p, o1)
    node_at(p, o2)
    for j in opt_occurrences(p):
        if inside(o1, j.child(LEFT)) and inside(o2, j.child(RIGHT)):
            return True
    return False


def _var_leaf_sites(p: Pattern) -> dict[Var, list[tuple[str, ...]]]:
    sites: dict[Var, list[tuple[str, ...]]] = {}
    for occ, basic in leaf_occurrences(p):
        for v in basic.vars:
            sites.setdefault(v, []).append(occ.path)
    return sites


def _fresh_right_vars(p: Pattern, occ: Occurrence) -> frozenset[Var]:
    node = node_at(p, occ)
    assert isinstance(node, Opt)
    return pattern_vars(node.right) - pattern_vars(node.left)


def is_well_designed(p: Pattern) -> bool:
    """Check the well-designedness restriction on OPT variables.

    For every OPT occurrence, each variable introduced by its right argument
    must occur in the whole pattern only within that occurrence's subtree.
    """
    sites = _var_leaf_sites(p)
    for occ in opt_occurrences(p):
        prefix = occ.path
        for v in _fresh_right_vars(p, occ):
            for site in sites.get(v, ()):
                if site[: len(prefix)] != prefix:
                    return False
    return True


def is_weakly_well_designed(p: Pattern) -> bool:
    """Check the weaker restriction that permits dominated re-use.

    A variable introduced by an OPT occurrence's right argument may also
    occur outside that occurrence, but only at leaves the occurrence
    dominates. A leaf site is dominated exactly when the lowest common
    ancestor of site and occurrence branches left towards the occurrence and
    right towards the site, which is what the positional check below tests.
    """
    sites = _var_leaf_sites(p)
    for occ in opt_occurrences(p):
        prefix = occ.path
        for v in _fresh_right_vars(p, occ):
            for site in sites.get(v, ()):
                if site[: len(prefix)] == prefix:
                    continue  # inside the occurrence itself
                k = 0
                limit = min(len(prefix), len(site))
                while k < limit and prefix[k] == site[k]:
                    k += 1
                if not (k < len(prefix) and k < len(site) and prefix[k] == LEFT and site[k] == RIGHT):
                    return False
    return True


# --- text syntax ------------------------------------------------------------
#
#   pattern  := basic | "(" pattern "OPT" pattern ")"
#   basic    := "{" [ triple { "." triple } [ "." ] ] "}"
#   triple   := term term term
#   term     := IDENT | "?" IDENT
#
# Whitespace-insensitive; "#" comments run to end of line. Every OPT is
# explicitly parenthesized; there are no precedence rules.


# One token each: punctuation, a variable, a word, or a character no token starts with.
_TOKEN_RE = re.compile(r"[{}().]|\?\w*|\w+|\S")
_COMMENT_RE = re.compile(r"#[^\n]*")
_PUNCT = frozenset("{}().")


class _Unexpected(Exception):
    """A syntax error at the parser's current token."""


def _shown(tok: str) -> str:
    # A token as error messages quote it: a variable without its "?".
    return tok[1:] if tok[:1] == "?" else tok or "end of input"


def _token_error(tok: str) -> str | None:
    """Why the tokenizer rejects a token: a "?" without an identifier, or a
    character that starts no token (a word must start with a letter or "_")."""
    if tok[:1] == "?":
        return None if tok[1:2] and not tok[1].isdigit() else "expected identifier"
    if tok and tok not in _PUNCT and not (tok[0].isalpha() or tok[0] == "_"):
        return f"unexpected character {tok[0]!r}"
    return None


def _error_at(source: str, k: int, message: str) -> ParseError:
    # Token k's line and column; k == number of tokens is the end of input.
    pos = [*(m.start() for m in _TOKEN_RE.finditer(source)), len(source)][k]
    return ParseError(message, source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos))


def parse_pattern(text: str) -> Pattern:
    """Parse the text syntax above over an explicit stack, so nesting depth
    is bounded only by memory. Raises ParseError with a 1-based line and
    column; a malformed token anywhere is reported before any grammar error."""
    source = _COMMENT_RE.sub("", text)  # a comment moves no column
    tokens = _TOKEN_RE.findall(source)
    tokens.append("")  # end of input
    terms: dict[str, Term] = {}  # one Iri or Var per distinct token

    def term(tok: str) -> Term:
        found = terms.get(tok)
        if found is None:
            if tok[:1] == "?":
                found = Var(tok[1:])
            elif tok[:1].isalpha() or tok[:1] == "_":
                found = Iri(tok)
            else:
                raise _Unexpected(f"expected term, found {_shown(tok)!r}")
            terms[tok] = found
        return found

    lefts: list[Pattern | None] = []  # per open "(": its left argument, once parsed
    k = 0
    try:
        while True:
            if tokens[k] == "(":
                lefts.append(None)
                k += 1
                continue
            if tokens[k] != "{":
                raise _Unexpected(f"expected pattern, found {_shown(tokens[k])!r}")
            k += 1
            triples: list[TriplePattern] = []
            while tokens[k] != "}":
                s = term(tokens[k])
                k += 1
                p = term(tokens[k])
                k += 1
                triples.append(TriplePattern(s, p, term(tokens[k])))
                k += 1
                if tokens[k] != ".":
                    break
                k += 1
            if tokens[k] != "}":
                raise _Unexpected(f"expected '}}', found {_shown(tokens[k])!r}")
            k += 1
            node: Pattern = Leaf(BasicPattern(triples))
            while lefts:
                if lefts[-1] is None:  # node is a left argument; "OPT" and the right follow
                    if tokens[k] != "OPT":
                        raise _Unexpected(f"expected 'OPT', found {_shown(tokens[k])!r}")
                    lefts[-1] = node
                    k += 1
                    break
                if tokens[k] != ")":
                    raise _Unexpected(f"expected ')', found {_shown(tokens[k])!r}")
                node = Opt(lefts.pop(), node)
                k += 1
            else:
                if tokens[k]:
                    raise _Unexpected(f"unexpected trailing input {_shown(tokens[k])!r}")
                return node
    except (_Unexpected, ValueError) as exc:
        # Every token before k was accepted, so the tokenizer's first
        # complaint, if any, is at k or later, and it comes first.
        for j in range(k, len(tokens)):
            problem = _token_error(tokens[j])
            if problem is not None:
                raise _error_at(source, j, problem) from None
        if isinstance(exc, _Unexpected):
            raise _error_at(source, k, str(exc)) from None
        raise


def _basic_text(b: BasicPattern) -> str:
    parts = [str(tp) for tp in b.sorted_triples()]
    return "{ " + " . ".join(parts) + " }" if parts else "{ }"


def serialize_pattern(p: Pattern, pretty: bool = False) -> str:
    """Canonical text form; triples within a leaf are emitted sorted.

    The pretty form spreads OPT nodes over indented lines and ends with a
    newline; both forms re-parse to an equal pattern.
    """
    if not pretty:
        if isinstance(p, Leaf):
            return _basic_text(p.basic)
        return f"({serialize_pattern(p.left)} OPT {serialize_pattern(p.right)})"

    lines: list[str] = []

    def emit(node: Pattern, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, Leaf):
            lines.append(pad + _basic_text(node.basic))
            return
        lines.append(pad + "(")
        emit(node.left, depth + 1)
        lines.append(pad + "  OPT")
        emit(node.right, depth + 1)
        lines.append(pad + ")")

    emit(p, 0)
    return "\n".join(lines) + "\n"
