"""Pattern AST for the OPT fragment, its text syntax, and the
well-designed / weakly well-designed classifiers.

A pattern is a binary tree whose leaves are basic graph patterns and whose
internal nodes are OPT operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
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

    __slots__ = ("triples", "_sorted", "_split")

    def __init__(self, triples: Iterable[TriplePattern] = ()):
        self.triples: frozenset[TriplePattern] = frozenset(triples)
        self._sorted: tuple[TriplePattern, ...] | None = None
        self._split: tuple[frozenset[Triple], tuple[TriplePattern, ...]] | None = None

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
        return self.split_ground()[0]

    def split_ground(self) -> tuple[frozenset[Triple], tuple[TriplePattern, ...]]:
        """The ground templates as graph triples, and the others in text
        order; computed once."""
        if self._split is None:
            ground = {tp for tp in self.triples if not any(isinstance(t, Var) for t in tp.terms())}
            rest = tuple(tp for tp in self.sorted_triples() if tp not in ground)
            self._split = frozenset(Triple(*tp.terms()) for tp in ground), rest
        return self._split


@dataclass(frozen=True)
class Leaf:
    basic: BasicPattern


@dataclass(frozen=True)
class Opt:
    left: "Pattern"
    right: "Pattern"


Pattern = Union[Leaf, Opt]


def pattern_vars(p: Pattern) -> frozenset[Var]:
    """All variables appearing in any leaf of the pattern."""
    if isinstance(p, Leaf):
        return p.basic.vars
    return pattern_vars(p.left) | pattern_vars(p.right)


def pattern_constants(p: Pattern) -> frozenset[Iri]:
    if isinstance(p, Leaf):
        return p.basic.constants
    return pattern_constants(p.left) | pattern_constants(p.right)


def leftmost_basic(p: Pattern) -> BasicPattern:
    node = p
    while isinstance(node, Opt):
        node = node.left
    return node.basic


def _opt_spans(p: Pattern) -> tuple[list[tuple[int, int, int]], list[int]]:
    """One post-order pass over an explicit stack.

    Leaves are numbered left to right, so each node covers the leaves
    [lo, hi). Variables are bits. Returns, per OPT node, (lo, hi, fresh)
    with `fresh` the mask of variables its right argument has and its left
    argument lacks, and the variable mask of each leaf.
    """
    bits: dict[Var, int] = {}
    leaf_masks: list[int] = []
    spans: list[tuple[int, int, int]] = []
    done: list[tuple[int, int]] = []  # (lo, variable mask) per finished subtree
    stack: list[tuple[Pattern, bool]] = [(p, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            mask = 0
            for v in node.basic.vars:
                mask |= bits.setdefault(v, 1 << len(bits))
            done.append((len(leaf_masks), mask))
            leaf_masks.append(mask)
        elif not children_done:
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            _, right = done.pop()
            lo, left = done.pop()
            spans.append((lo, len(leaf_masks), right & ~left))
            done.append((lo, left | right))
    return spans, leaf_masks


def _unions_before(leaf_masks: list[int]) -> list[int]:
    # Entry i: the variables of leaves [0, i), i.e. those whose first leaf is before i.
    return list(accumulate(leaf_masks, or_, initial=0))


def is_well_designed(p: Pattern) -> bool:
    """Check the well-designedness restriction on OPT variables.

    For every OPT node, each variable introduced by its right argument must
    occur in the whole pattern only within that node's subtree: its first
    leaf is at or after the node's lo and its last leaf before its hi.
    """
    spans, leaf_masks = _opt_spans(p)
    before = _unions_before(leaf_masks)
    after = _unions_before(leaf_masks[::-1])[::-1]  # entry i: the variables of leaves [i, n)
    return all(not fresh & (before[lo] | after[hi]) for lo, hi, fresh in spans)


def is_weakly_well_designed(p: Pattern) -> bool:
    """Check the weaker restriction that permits dominated re-use.

    A variable introduced by an OPT node's right argument may also occur
    outside that node, but only at leaves the node dominates. A leaf is
    dominated exactly when the lowest common ancestor of leaf and node
    branches left towards the node and right towards the leaf, that is, when
    the leaf lies right of the node's subtree. So every such variable's first
    leaf must be at or after the node's lo.
    """
    spans, leaf_masks = _opt_spans(p)
    before = _unions_before(leaf_masks)
    return all(not fresh & before[lo] for lo, _, fresh in spans)


# --- text syntax ------------------------------------------------------------
#
#   pattern  := basic | "(" pattern "OPT" pattern ")"
#   basic    := "{" [ triple { "." triple } [ "." ] ] "}"
#   triple   := term term term
#   term     := IDENT | "?" IDENT
#
# Whitespace-insensitive; "#" comments run to end of line. Every OPT is
# explicitly parenthesized; there are no precedence rules.


# One token each, after the whitespace before it: punctuation, a variable, a
# word, a character no token starts with, or the end of input (""). The end
# alternative means no match attempt fails, so a trailing whitespace run is
# not rescanned from each of its positions.
_TOKEN_RE = re.compile(r"\s*([{}().]|\?\w*|\w+|\S|\Z)")
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
    # Token k's line and column.
    pos = [m.start(1) for m in _TOKEN_RE.finditer(source)][k]
    return ParseError(message, source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos))


def parse_pattern(text: str) -> Pattern:
    """Parse the text syntax above over an explicit stack, so nesting depth
    is bounded only by memory. Raises ParseError with a 1-based line and
    column; a malformed token anywhere is reported before any grammar error."""
    source = _COMMENT_RE.sub("", text)  # a comment moves no column
    tokens = _TOKEN_RE.findall(source)  # ends with "", the end of input
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
