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
from operator import itemgetter
from typing import Callable, Iterable, Iterator

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

    The ground templates are membership tests, made once. The others are
    matched by a backtracking search over an explicit stack: at each step
    the remaining triple pattern with the fewest candidate graph triples
    under the current bindings is expanded (most-constrained-first), and a
    branch is dropped as soon as some remaining pattern has no candidate.
    Candidates come from the graph's buckets, built on first use and reused
    by every later call: per predicate (`Graph.predicate_index`), and per
    (predicate, subject) and (predicate, object) pair (`Graph.pair_index`),
    so a bound subject or object is one dict lookup.
    """
    ground, templates = b.split_ground()
    if not g.triples.issuperset(ground):
        return SolutionSet()
    if not templates:
        return SolutionSet([EMPTY_MAPPING])

    all_triples, by_predicate = g.predicate_index()
    by_subject = by_object = None
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
            if type(p) is Var:
                cands = all_triples
                if type(s) is not Var:
                    cands = [t for t in cands if t.subject is s]
                if type(o) is not Var:
                    cands = [t for t in cands if t.object is o]
            elif type(s) is not Var:
                if by_subject is None:
                    by_subject, by_object = g.pair_index()
                cands = by_subject.get((p, s), ())
                if type(o) is not Var:
                    cands = [t for t in cands if t.object is o]
            elif type(o) is not Var:
                if by_subject is None:
                    by_subject, by_object = g.pair_index()
                cands = by_object.get((p, o), ())
            else:
                cands = by_predicate.get(p, ())
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
                    if extended.setdefault(var, value) is not value:
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


def _merger(left: frozenset[Var], right: frozenset[Var]) -> Callable[[tuple, tuple], tuple]:
    """From `m1._items + m2._items`, for compatible m1 and m2 with domains
    `left` and `right`, the items of their union: one pair per variable,
    in name order. Both sides are in name order, so nothing is sorted."""
    both = sorted(left) + sorted(right)
    keep = sorted({v: k for k, v in enumerate(both)}.values(), key=both.__getitem__)
    return itemgetter(*keep) if len(keep) > 1 else lambda items: tuple(items[k] for k in keep)


def left_outer_join(w1: SolutionSet, w2: SolutionSet) -> SolutionSet:
    """Merge every compatible pair; keep left mappings with no partner.

    Hash join: both sides are grouped by domain. Within one pair of domain
    groups, two mappings are compatible exactly when they agree on the
    shared variables, so the right group is hashed on those values, read by
    one `itemgetter` from each mapping's dict, and each left mapping probes
    it. An empty right side returns `w1` itself.
    """
    if not w2.mappings:
        return w1
    right_groups = _by_domain(w2.mappings)
    out: set[Mapping] = set()
    for domain, lefts in _by_domain(w1.mappings).items():
        unmatched = set(lefts)
        for right_domain, rights in right_groups.items():
            shared = domain & right_domain
            key = itemgetter(*shared) if shared else lambda bindings: ()
            table: dict[object, list[Mapping]] = {}
            for m2 in rights:
                table.setdefault(key(m2._dict), []).append(m2)
            merge = None  # built at the first match
            for m1 in lefts:
                partners = table.get(key(m1._dict))
                if partners:
                    unmatched.discard(m1)
                    merge = merge or _merger(domain, right_domain)
                    out.update(Mapping.from_sorted(merge(m1._items + m2._items)) for m2 in partners)
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
