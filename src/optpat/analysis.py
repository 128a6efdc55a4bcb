"""Per-graph subsumption/containment checks and bounded counterexample search.

The `check_*_on` functions decide a property on one concrete graph and
produce a self-certifying Verdict. The `find_*_counterexample` functions
enumerate candidate graphs over the patterns' constants plus a budgeted
supply of fresh IRIs, in nondecreasing triple count, and report the first
counterexample found. They are semi-decision procedures: exhausting the
budget proves nothing beyond the searched space.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .core import Graph, Iri, Mapping, Triple, Var, serialize_graph, subsumed_mapping
from .evaluation import SolutionSet, evaluate
from .pattern import Opt, Pattern, TriplePattern, leftmost_basic, pattern_constants


class Status(enum.Enum):
    HOLDS_ON_GRAPH = "holds_on_graph"
    VIOLATED = "violated"
    NO_COUNTEREXAMPLE_WITHIN_BUDGET = "no_counterexample_within_budget"


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for counterexample search; all fields must be nonnegative."""

    max_triples: int
    max_fresh_iris: int
    max_candidates: int = 100_000

    def __post_init__(self) -> None:
        for field in ("max_triples", "max_fresh_iris", "max_candidates"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")

    def to_jsonable(self) -> dict[str, int]:
        return {
            "max_triples": self.max_triples,
            "max_fresh_iris": self.max_fresh_iris,
            "max_candidates": self.max_candidates,
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check or search; carries a witness iff violated."""

    status: Status
    witness: tuple[Graph, Mapping] | None = None
    candidates_examined: int | None = None
    budget: SearchBudget | None = None
    position: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.status is Status.VIOLATED):
            raise ValueError("witness must be present exactly when status is violated")

    def to_jsonable(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.witness is not None:
            g, m = self.witness
            out["graph"] = serialize_graph(g)
            out["mapping"] = m.to_jsonable()
        if self.candidates_examined is not None:
            out["candidates_examined"] = self.candidates_examined
        if self.budget is not None:
            out["budget"] = self.budget.to_jsonable()
        if self.position is not None:
            out["position"] = list(self.position)
        return out


def check_subsumed_on(p: Pattern, p2: Pattern, g: Graph) -> Verdict:
    """Does every solution of p on g extend to some solution of p2 on g?

    Violations report the first failing mapping in canonical order.
    """
    mine = evaluate(p, g)
    if not mine.mappings:
        return Verdict(Status.HOLDS_ON_GRAPH)
    theirs = (mine if p2 is p else evaluate(p2, g)).sorted()
    for m in mine.sorted():
        if not any(subsumed_mapping(m, m2) for m2 in theirs):
            return Verdict(Status.VIOLATED, witness=(g, m))
    return Verdict(Status.HOLDS_ON_GRAPH)


def _first_missing(mine: SolutionSet, theirs: SolutionSet, g: Graph) -> Verdict:
    # The first mapping of `mine`, in canonical order, that `theirs` lacks.
    missing = mine.mappings - theirs.mappings
    if not missing:
        return Verdict(Status.HOLDS_ON_GRAPH)
    return Verdict(Status.VIOLATED, witness=(g, min(missing, key=lambda m: m.sort_key)))


def check_contained_on(p: Pattern, p2: Pattern, g: Graph) -> Verdict:
    """Is every solution of p on g literally a solution of p2 on g?"""
    mine = evaluate(p, g)
    if not mine.mappings:
        return Verdict(Status.HOLDS_ON_GRAPH)
    return _first_missing(mine, mine if p2 is p else evaluate(p2, g), g)


def check_equivalent_on(p: Pattern, p2: Pattern, g: Graph) -> Verdict:
    """Containment in both directions on one graph, forward first; each
    side is evaluated once, and one side when `p2 is p`."""
    mine = evaluate(p, g)
    theirs = mine if p2 is p else evaluate(p2, g)
    forward = _first_missing(mine, theirs, g)
    if forward.status is Status.VIOLATED:
        return forward
    return _first_missing(theirs, mine, g)


def _triple_builder(vocab: Sequence[Iri]) -> Callable[[int], Triple]:
    """Triple i = (s·n + p)·n + o over the n-term vocabulary, each built once when first asked."""
    n = len(vocab)
    return functools.cache(lambda i: Triple(vocab[i // n // n], vocab[i // n % n], vocab[i % n]))


def _fresh_iris(count: int, avoid: set[str]) -> list[Iri]:
    prefix = "f"
    while any(re.fullmatch(re.escape(prefix) + r"\d+", name) for name in avoid):
        prefix += "f"
    return [Iri(f"{prefix}{i}") for i in range(1, count + 1)]


def _orbit_table(constants: int, fresh: int) -> list[list[int]]:
    """step[n][i]: fresh IRIs seen once triple i joins a prefix that has seen
    the first n of them, or -1 if triple i names one out of order. Triples
    are indexed as in `_triple_builder` over `constants` constants followed
    by `fresh` fresh IRIs, and scanned subject, predicate, object."""
    terms = range(constants + fresh)
    # after[n][v]: the same count for the single term v. The last row, all -1, is also
    # row -1, so a term out of order keeps the whole triple out of order.
    after = [[n if v < constants + n else n + 1 if v == constants + n else -1 for v in terms]
             for n in range(fresh + 1)] + [[-1] * len(terms)]
    # Three lookups per triple; one row of `after` gives every object of (s, p) at once.
    return [[k for s in terms for p in terms for k in after[after[after[n][s]][p]]]
            for n in range(fresh + 1)]


def _orderly_walk(
    step: list[list[int]], required_sets: Sequence[frozenset[int]], count: int
) -> Iterator[tuple[int, ...]]:
    """Index tuples i1 < ... < i_count, in lexicographic order, of the
    triple sets that contain one of the `required_sets` (of indices) and
    name fresh IRIs first in list order under `step` (see `_orbit_table`).

    Adding a required set R to the combinations of the other triples keeps
    their lexicographic order, and R's triples, which must name no fresh
    IRI, leave first occurrences alone; several sets' streams are merged.
    """

    def walk(required: frozenset[int]) -> Iterator[tuple[int, ...]]:
        # Combinations of the other triples, each joined by `required`. A prefix that
        # names a fresh IRI out of order is not extended: its first occurrences are fixed.
        ids = sorted(required)
        items = [i for i in range(len(step[0])) if i not in required]
        k = count - len(ids)
        if k == 0:
            yield tuple(ids)
            return
        chosen: list[int] = []
        frames = [(0, iter(range(len(items) - k + 1)))]  # one per chosen slot
        while frames:
            n, positions = frames[-1]
            for j in positions:
                after = step[n][items[j]]
                if after < 0:
                    continue
                if len(chosen) + 1 == k:
                    yield tuple(sorted((*chosen, items[j], *ids)))
                else:
                    chosen.append(items[j])
                    frames.append((after, iter(range(j + 1, len(items) - k + len(chosen) + 1))))
                    break
            else:
                frames.pop()
                if chosen:
                    chosen.pop()

    last = None
    for combo in heapq.merge(*map(walk, {r for r in required_sets if len(r) <= count})):
        if combo != last:
            yield combo
        last = combo


def _candidate_stream(
    p: Pattern,
    p2: Pattern,
    budget: SearchBudget,
    required_sets: Sequence[frozenset[Triple]],
) -> Iterator[tuple[tuple[int, int], Graph]]:
    """Candidate graphs in (triple count, ordinal) order, lazily.

    Only graphs containing at least one of the `required_sets` are emitted:
    a violation needs a nonempty solution set on the left pattern, which in
    turn needs that pattern's leftmost-leaf ground triples present, so the
    skipped graphs can never be counterexamples. Graphs differing from an
    earlier candidate only by a permutation of fresh IRIs are skipped too;
    pattern semantics cannot tell such graphs apart.
    """
    constants = sorted(pattern_constants(p) | pattern_constants(p2))
    fresh = _fresh_iris(budget.max_fresh_iris, {c.name for c in constants})
    n, at = len(constants) + len(fresh), {c: k for k, c in enumerate(constants)}
    triple = _triple_builder(constants + fresh)
    step = _orbit_table(len(constants), len(fresh))
    required = [frozenset((at[t.subject] * n + at[t.predicate]) * n + at[t.object] for t in r)
                for r in required_sets]
    for count in range(budget.max_triples + 1):
        for ordinal, combo in enumerate(_orderly_walk(step, required, count)):
            yield (count, ordinal), Graph(map(triple, combo))


def _same_pattern(p: Pattern, p2: Pattern) -> bool:
    """Structural equality over an explicit stack, safe on deep chains."""
    stack = [(p, p2)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Opt) and isinstance(b, Opt):
            stack += ((a.right, b.right), (a.left, b.left))
        elif a != b:  # a leaf on either side; leaves compare by their basic patterns
            return False
    return True


def _matches(tp: TriplePattern, t: Triple) -> bool:
    """Does the triple pattern send some mapping onto `t`? Constants must be
    equal, and a repeated variable must meet equal terms."""
    bound: dict[Var, Iri] = {}
    for term, value in zip(tp.terms(), (t.subject, t.predicate, t.object)):
        if type(term) is Var:
            if bound.setdefault(term, value) != value:
                return False
        elif term != value:
            return False
    return True


def _relevance(p: Pattern, p2: Pattern) -> Callable[[Triple], bool]:
    """Whether some triple pattern of some leaf of p or p2 matches a triple,
    memoised per triple. Only the patterns with the triple's predicate or a
    variable predicate are tried."""
    by_predicate: dict[Iri, set[TriplePattern]] = {}
    any_predicate: set[TriplePattern] = set()
    stack = [p, p2]
    while stack:
        node = stack.pop()
        if isinstance(node, Opt):
            stack += (node.left, node.right)
            continue
        for tp in node.basic.triples:
            if type(tp.predicate) is Var:
                any_predicate.add(tp)
            else:
                by_predicate.setdefault(tp.predicate, set()).add(tp)

    @functools.cache
    def relevant(t: Triple) -> bool:
        tps = itertools.chain(by_predicate.get(t.predicate, ()), any_predicate)
        return any(_matches(tp, t) for tp in tps)

    return relevant


def _search(
    p: Pattern,
    p2: Pattern,
    budget: SearchBudget,
    check: Callable[[Pattern, Pattern, Graph], Verdict],
    required_sets: Sequence[frozenset[Triple]],
) -> Verdict:
    """Check the stream's candidates in order up to the first violation.

    A triple that no triple pattern of p or p2 matches changes neither
    side's solutions, so a candidate holding one has the verdict of its
    relevant part G_r. Up to a renaming of fresh IRIs, G_r is a smaller
    candidate: the required triples are ground leaf triples, so it keeps
    them. G_r has fewer triples, so it was checked earlier in this search
    and was no violation; the candidate is counted as examined without
    being evaluated.
    """
    examined, position, witness = 0, None, None
    p2 = p if _same_pattern(p, p2) else p2  # equal sides: one evaluation per candidate
    relevant = None  # built at the first candidate of two or more triples
    stream = _candidate_stream(p, p2, budget, required_sets)
    for position, g in itertools.islice(stream, budget.max_candidates):
        examined += 1
        if len(g.triples) > 1:
            if relevant is None:
                relevant = _relevance(p, p2)
            kept = sum(map(relevant, g.triples))
            if kept < len(g.triples):
                continue
        witness = check(p, p2, g).witness
        if witness is not None:
            break
    status = Status.NO_COUNTEREXAMPLE_WITHIN_BUDGET if witness is None else Status.VIOLATED
    return Verdict(status, witness, candidates_examined=examined, budget=budget, position=position)


def find_subsumption_counterexample(p: Pattern, p2: Pattern, budget: SearchBudget) -> Verdict:
    """Search for a graph on which some solution of p has no extension in p2.

    Candidates are checked in the deterministic stream order; the reported
    witness is the first one.
    """
    required = [leftmost_basic(p).ground_triples()]
    return _search(p, p2, budget, check_subsumed_on, required)


def find_containment_counterexample(p: Pattern, p2: Pattern, budget: SearchBudget) -> Verdict:
    required = [leftmost_basic(p).ground_triples()]
    return _search(p, p2, budget, check_contained_on, required)


def find_equivalence_counterexample(p: Pattern, p2: Pattern, budget: SearchBudget) -> Verdict:
    """Both containment directions are checked on every candidate, so the
    candidate stream must cover graphs where either side could be nonempty."""
    required = [leftmost_basic(p).ground_triples(), leftmost_basic(p2).ground_triples()]
    return _search(p, p2, budget, check_equivalent_on, required)
