"""Ground RDF data model: IRIs, triples, graphs, and solution mappings.

IRIs are bare ASCII identifiers (no angle brackets or namespaces), and the
graph text format is a line-oriented N-Triples subset. IRIs and variables
are interned: one object per name and kind, kept for the whole process, so
they compare and hash by identity in C. Everything here is immutable and
hashable. `subsumed_mapping` is the extension test the
subsumption checks use; the evaluator's hash join yields exactly the unions
of compatible mappings without testing pairs one by one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Mapping as MappingABC

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Syntax error in one of the text formats, with a 1-based position."""

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


def _check_ident(name: str, kind: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.match(name):
        raise ValueError(
            f"invalid {kind} name {name!r}: expected an identifier "
            "([A-Za-z_][A-Za-z0-9_]*)"
        )


@total_ordering
class _Name:
    """One object per name and class, so equality and hashing are the
    interpreter's identity defaults; ordered by name within one class.

    Each class keeps its table of names for the whole process.
    """

    __slots__ = ("name",)
    _kind: str
    _table: dict[str, _Name]

    def __new__(cls, name: str):
        try:
            return cls._table[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            _check_ident(name, cls._kind)
        self = cls._table[name] = object.__new__(cls)
        object.__setattr__(self, "name", name)
        return self

    def __setattr__(self, attr: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __lt__(self, other: _Name) -> bool:
        return self.name < other.name if type(other) is type(self) else NotImplemented


class Iri(_Name):
    """A node / edge label; two IRIs are equal exactly when their names are."""

    __slots__ = ()
    _kind, _table = "IRI", {}

    def __str__(self) -> str:
        return self.name


class Var(_Name):
    """A query variable; rendered with a leading `?` in all text formats."""

    __slots__ = ()  # `name` is stored without the sigil
    _kind, _table = "variable", {}

    def __str__(self) -> str:
        return "?" + self.name


@dataclass(frozen=True, order=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: Iri

    def __post_init__(self) -> None:
        # Graphs and candidate sets hash each triple many times.
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


class Graph:
    """A finite, duplicate-free set of ground triples.

    The indexes and, for serialisation and iteration, the sorted triples
    are built on first use and kept, shared by every evaluation.
    """

    __slots__ = ("triples", "_sorted", "_by_predicate", "_by_pair")

    def __init__(self, triples: Iterable[Triple] = ()):
        self.triples: frozenset[Triple] = frozenset(triples)
        self._sorted: tuple[Triple, ...] | None = None
        self._by_predicate: dict[Iri, list[Triple]] | None = None
        self._by_pair: tuple[dict[tuple[Iri, Iri], list[Triple]], ...] | None = None

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.sorted_triples())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"Graph(<{len(self.triples)} triples>)"

    def sorted_triples(self) -> tuple[Triple, ...]:
        """The triples in lexicographic (s, p, o) order; sorted once per graph."""
        if self._sorted is None:
            names = attrgetter("subject.name", "predicate.name", "object.name")
            self._sorted = tuple(sorted(self.triples, key=names))  # the dataclass order, faster
        return self._sorted

    def predicate_index(self) -> tuple[frozenset[Triple], dict[Iri, list[Triple]]]:
        """All triples, and each predicate's triples, in set order; built once, read-only."""
        if self._by_predicate is None:
            groups = self._by_predicate = {}
            for t in self.triples:
                groups.setdefault(t.predicate, []).append(t)
        return self.triples, self._by_predicate

    def pair_index(self) -> tuple[dict[tuple[Iri, Iri], list[Triple]], ...]:
        """Each (predicate, subject) and each (predicate, object) pair's
        triples, in set order, as two dicts; built once, read-only."""
        if self._by_pair is None:
            self._by_pair = by_subject, by_object = {}, {}
            for t in self.triples:
                by_subject.setdefault((t.predicate, t.subject), []).append(t)
                by_object.setdefault((t.predicate, t.object), []).append(t)
        return self._by_pair

    def iris(self) -> set[Iri]:
        """All IRIs occurring in any position of any triple."""
        out: set[Iri] = set()
        for t in self.triples:
            out.add(t.subject)
            out.add(t.predicate)
            out.add(t.object)
        return out


class Mapping:
    """A partial function from variables to IRIs: the solution object.

    Equality is extensional (same domain, same values); instances are
    hashable so solution sets can deduplicate them. The hash is computed
    once, since joins hash every mapping many times; the join reads the
    bindings dict `_dict` and the name-ordered `_items` directly.
    """

    __slots__ = ("_dict", "_items", "_hash")

    def __init__(self, bindings: MappingABC[Var, Iri] | Iterable[tuple[Var, Iri]] = ()):
        d = dict(bindings)
        self._dict: dict[Var, Iri] = d
        self._items: tuple[tuple[Var, Iri], ...] = tuple(
            sorted(d.items(), key=lambda kv: kv[0].name)
        )
        self._hash = hash(self._items)

    @classmethod
    def from_sorted(cls, items: tuple[tuple[Var, Iri], ...]) -> Mapping:
        """The mapping of distinct (variable, IRI) pairs already in name order."""
        m = object.__new__(cls)
        m._dict, m._items, m._hash = dict(items), items, hash(items)
        return m

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(self._dict)

    def get(self, var: Var) -> Iri | None:
        return self._dict.get(var)

    def __getitem__(self, var: Var) -> Iri:
        return self._dict[var]

    def __contains__(self, var: Var) -> bool:
        return var in self._dict

    def items(self) -> tuple[tuple[Var, Iri], ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._dict)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mapping) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}->{i}" for v, i in self._items)
        return "{" + inner + "}"

    @property
    def sort_key(self) -> tuple[tuple[str, str], ...]:
        """Canonical ordering key; used wherever a deterministic order is needed."""
        return tuple((v.name, i.name) for v, i in self._items)

    def to_jsonable(self) -> dict[str, str]:
        return {str(v): i.name for v, i in self._items}


EMPTY_MAPPING = Mapping()


def subsumed_mapping(m1: Mapping, m2: Mapping) -> bool:
    """True iff m2 extends m1: compatible and Dom(m1) is a subset of Dom(m2)."""
    return all(m2.get(v) == i for v, i in m1.items())


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    One triple per line as `subject predicate object .` with arbitrary
    whitespace between tokens; `#` starts a comment line; blank lines are
    ignored. Variables are rejected: graphs are ground.
    """
    triples: list[Triple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[-1] != ".":
            raise ParseError("expected triple terminated by '.'", lineno)
        if len(tokens) != 4:
            raise ParseError(
                f"expected 'subject predicate object .', got {len(tokens) - 1} terms",
                lineno,
            )
        terms: list[Iri] = []
        for tok in tokens[:3]:
            if tok.startswith("?"):
                raise ParseError(
                    f"variable {tok!r} not allowed in a ground graph", lineno
                )
            if not _IDENT_RE.match(tok):
                raise ParseError(f"invalid token {tok!r}", lineno)
            terms.append(Iri(tok))
        triples.append(Triple(terms[0], terms[1], terms[2]))
    return Graph(triples)


def serialize_graph(g: Graph) -> str:
    """Canonical text form: one triple per line in lexicographic (s, p, o) order."""
    return "".join(
        f"{t.subject.name} {t.predicate.name} {t.object.name} .\n"
        for t in g.sorted_triples()
    )
