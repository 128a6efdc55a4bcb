"""Evaluation semantics: basic-pattern matching, left outer join, recursive
pattern evaluation, and a deliberately naive enumeration oracle.

Results are sets of mappings (set semantics, no multiplicities). The engine
(`evaluate`) matches basic patterns by backtracking over the graph's
predicate index, which each `Graph` builds once and keeps, and joins by
hashing: mappings are grouped by domain, and for each pair of domain groups
the right side is hashed on the shared variables and probed with the left,
so a join costs about the size of its input and output rather than their
product. The oracle (`evaluate_oracle`) instead enumerates every total
assignment of leaf variables and filters, sharing no matching or join code
with the engine so the two act as independent routes to the same contract.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .core import EMPTY_MAPPING, Graph, Iri, Mapping, Var
from .pattern import BasicPattern, Leaf, Opt, Pattern, TriplePattern

DEFAULT_ORACLE_CAP = 2_000_000


class OracleBudgetError(RuntimeError):
    """Raised when the oracle's assignment enumeration would exceed its cap."""


class SolutionSet:
    """A duplicate-free set of mappings, with a canonical iteration order."""

    __slots__ = ("mappings",)

    def __init__(self, mappings: Iterable[Mapping] = ()):
        self.mappings: frozenset[Mapping] = frozenset(mappings)

    def __len__(self) -> int:
        return len(self.mappings)

    def __contains__(self, m: Mapping) -> bool:
        return m in self.mappings

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.sorted())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SolutionSet) and self.mappings == other.mappings

    def __hash__(self) -> int:
        return hash(self.mappings)

    def __repr__(self) -> str:
        return f"SolutionSet({[repr(m) for m in self.sorted()]})"

    def sorted(self) -> list[Mapping]:
        return sorted(self.mappings, key=lambda m: m.sort_key)

    def to_jsonable(self) -> list[dict[str, str]]:
        """Array of binding objects, sorted by their serialized form."""
        rows = [m.to_jsonable() for m in self.mappings]
        rows.sort(key=lambda r: tuple(sorted(r.items())))
        return rows


def match_basic(b: BasicPattern, g: Graph) -> SolutionSet:
    """All mappings with domain exactly vars(b) that send b into g.

    Backtracking search over an explicit stack: at each step the remaining
    triple pattern with the fewest candidate graph triples under the current
    bindings is expanded (most-constrained-first), and a branch is dropped
    as soon as some remaining pattern has no candidate. Candidates come from
    the graph's predicate index (`Graph.predicate_index`), built on the
    first call for a graph and reused by every later one.
    """
    templates = b.sorted_triples()
    if not templates:
        return SolutionSet([EMPTY_MAPPING])

    all_triples, by_predicate = g.predicate_index()
    solutions: set[Mapping] = set()
    stack: list[tuple[tuple[TriplePattern, ...], dict[Var, Iri]]] = [(templates, {})]
    while stack:
        remaining, bound = stack.pop()
        for i, tp in enumerate(remaining):
            # Each term resolved under the bindings; a Var left is unbound.
            s, p, o = tp.subject, tp.predicate, tp.object
            if bound:
                if type(s) is Var:
                    s = bound.get(s, s)
                if type(p) is Var:
                    p = bound.get(p, p)
                if type(o) is Var:
                    o = bound.get(o, o)
            pool = all_triples if type(p) is Var else by_predicate.get(p, ())
            if type(s) is Var:
                cands = pool if type(o) is Var else [t for t in pool if t.object == o]
            elif type(o) is Var:
                cands = [t for t in pool if t.subject == s]
            else:
                cands = [t for t in pool if t.subject == s and t.object == o]
            if not cands:
                break
            if i == 0 or len(cands) < len(best):
                best, at, terms = cands, i, (s, p, o)
        else:
            rest = remaining[:at] + remaining[at + 1 :]
            # Candidates agree with every resolved term; only unbound
            # variables are left, and one repeated in the pattern must agree.
            free = [(k, term) for k, term in enumerate(terms) if type(term) is Var]
            for t in best:
                values = (t.subject, t.predicate, t.object)
                extended = dict(bound)
                for k, var in free:
                    value = values[k]
                    seen = extended.setdefault(var, value)
                    if seen is not value and seen != value:
                        break
                else:
                    if rest:
                        stack.append((rest, extended))
                    else:
                        solutions.add(Mapping(extended))
    return SolutionSet(solutions)


def _by_domain(mappings: Iterable[Mapping]) -> dict[frozenset[Var], list[Mapping]]:
    groups: dict[frozenset[Var], list[Mapping]] = {}
    for m in mappings:
        groups.setdefault(m.domain, []).append(m)
    return groups


def left_outer_join(w1: SolutionSet, w2: SolutionSet) -> SolutionSet:
    """Merge every compatible pair; keep left mappings with no partner.

    Hash join: both sides are grouped by domain. Within one pair of domain
    groups, two mappings are compatible exactly when they agree on the
    shared variables, so the right group is hashed on those values and each
    left mapping probes it. An empty right side returns `w1` itself.
    """
    if not w2.mappings:
        return w1
    right_groups = _by_domain(w2.mappings)
    out: set[Mapping] = set()
    for domain, lefts in _by_domain(w1.mappings).items():
        unmatched = set(lefts)
        for right_domain, rights in right_groups.items():
            shared = sorted(domain & right_domain)
            table: dict[tuple[Iri, ...], list[Mapping]] = {}
            for m2 in rights:
                table.setdefault(tuple(m2[v] for v in shared), []).append(m2)
            for m1 in lefts:
                partners = table.get(tuple(m1[v] for v in shared))
                if partners:
                    unmatched.discard(m1)
                    out.update(Mapping(m1.items() + m2.items()) for m2 in partners)
        out.update(unmatched)
    return SolutionSet(out)


def evaluate(p: Pattern, g: Graph) -> SolutionSet:
    """Recursive evaluation: leaves match, OPT nodes left-outer-join unless the left is empty."""
    if isinstance(p, Leaf):
        return match_basic(p.basic, g)
    left = evaluate(p.left, g)
    return left_outer_join(left, evaluate(p.right, g)) if left.mappings else left


def evaluate_oracle(p: Pattern, g: Graph, max_assignments: int = DEFAULT_ORACLE_CAP) -> SolutionSet:
    """Same contract as `evaluate`, by exhaustive enumeration.

    Each leaf is matched by trying every total assignment of its variables
    to the IRIs occurring in g; joins apply the set-builder definition
    directly. Raises OracleBudgetError when a leaf would require more than
    `max_assignments` assignments. Self-contained on purpose: no code shared
    with the engine's matcher or join.
    """
    universe = sorted(g.iris())
    present = {(t.subject, t.predicate, t.object) for t in g.triples}

    Row = frozenset  # of (Var, Iri) pairs

    def leaf_rows(b: BasicPattern) -> set[frozenset]:
        vs = sorted(b.vars)
        count = len(universe) ** len(vs) if vs else 1
        if count > max_assignments:
            raise OracleBudgetError(
                f"{count} assignments for {len(vs)} variables over {len(universe)} IRIs "
                f"exceeds the cap of {max_assignments}"
            )
        templates = [tp.terms() for tp in b.triples]
        rows: set[frozenset] = set()
        for combo in itertools.product(universe, repeat=len(vs)):
            asn = dict(zip(vs, combo))
            ok = True
            for s, pr, o in templates:
                t = (
                    asn[s] if isinstance(s, Var) else s,
                    asn[pr] if isinstance(pr, Var) else pr,
                    asn[o] if isinstance(o, Var) else o,
                )
                if t not in present:
                    ok = False
                    break
            if ok:
                rows.add(Row(asn.items()))
        return rows

    def join_rows(r1: set[frozenset], r2: set[frozenset]) -> set[frozenset]:
        out: set[frozenset] = set()
        for f1 in r1:
            d1 = dict(f1)
            merged = []
            for f2 in r2:
                if all(d1[v] == i for v, i in f2 if v in d1):
                    union = dict(d1)
                    union.update(f2)
                    merged.append(Row(union.items()))
            if merged:
                out.update(merged)
            else:
                out.add(f1)
        return out

    def walk(node: Pattern) -> set[frozenset]:
        if isinstance(node, Leaf):
            return leaf_rows(node.basic)
        return join_rows(walk(node.left), walk(node.right))

    return SolutionSet(Mapping(dict(row)) for row in walk(p))
