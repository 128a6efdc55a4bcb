"""Shared test helpers: shorthand constructors, a leaf lister and seeded random generators.

The random generators stay within desk-scale bounds (pattern depth <= 4,
<= 3 triples per leaf, <= 4 variables, <= 3 constants) so the definitional
and enumeration oracles remain fast.
"""

from __future__ import annotations

import random

from optpat import (
    BasicPattern,
    Graph,
    Iri,
    Leaf,
    Mapping,
    Opt,
    Pattern,
    SolutionSet,
    TilingInstance,
    Triple,
    TriplePattern,
    Var,
)

DEFAULT_VARS = tuple(Var(name) for name in ("v0", "v1", "v2", "v3"))
DEFAULT_CONSTS = tuple(Iri(name) for name in ("a", "b", "c"))


def M(bindings: dict[str, str]) -> Mapping:
    """Mapping from {"?x": "a"} style dicts."""
    return Mapping({Var(k.lstrip("?")): Iri(v) for k, v in bindings.items()})


def leaf_basics(p: Pattern) -> list[BasicPattern]:
    """The leaves' basic patterns, left to right."""
    out: list[BasicPattern] = []
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.basic)
        else:
            stack += (node.right, node.left)
    return out


def rand_graph(rng: random.Random, iris, max_triples: int) -> Graph:
    triples = {
        Triple(rng.choice(iris), rng.choice(iris), rng.choice(iris))
        for _ in range(rng.randint(0, max_triples))
    }
    return Graph(triples)


def rand_basic(
    rng: random.Random,
    variables=DEFAULT_VARS,
    consts=DEFAULT_CONSTS,
    max_triples: int = 3,
) -> BasicPattern:
    terms = list(variables) + list(consts)
    return BasicPattern(
        TriplePattern(rng.choice(terms), rng.choice(terms), rng.choice(terms))
        for _ in range(rng.randint(0, max_triples))
    )


def rand_pattern(
    rng: random.Random,
    depth: int = 4,
    variables=DEFAULT_VARS,
    consts=DEFAULT_CONSTS,
) -> Pattern:
    if depth == 0 or rng.random() < 0.4:
        return Leaf(rand_basic(rng, variables, consts))
    return Opt(
        rand_pattern(rng, depth - 1, variables, consts),
        rand_pattern(rng, depth - 1, variables, consts),
    )


def rand_pattern_nodes(rng: random.Random, max_nodes: int = 9) -> Pattern:
    """Random pattern with a hard bound on AST node count."""

    def build(budget: int) -> tuple[Pattern, int]:
        if budget < 3 or rng.random() < 0.4:
            return Leaf(rand_basic(rng)), 1
        left, ln = build(budget - 2)
        right, rn = build(budget - 1 - ln)
        return Opt(left, right), 1 + ln + rn

    pattern, _ = build(max_nodes)
    return pattern


def rand_mapping(rng: random.Random, variables=DEFAULT_VARS, iris=DEFAULT_CONSTS) -> Mapping:
    return Mapping({v: rng.choice(iris) for v in variables if rng.random() < 0.5})


def rand_solution_set(
    rng: random.Random, variables=DEFAULT_VARS, iris=DEFAULT_CONSTS, max_size: int = 4
) -> SolutionSet:
    return SolutionSet(
        rand_mapping(rng, variables, iris) for _ in range(rng.randint(0, max_size))
    )


def rand_instance(rng: random.Random, max_tiles: int = 3) -> TilingInstance:
    count = rng.randint(1, max_tiles)
    tiles = tuple(f"t{i}" for i in range(1, count + 1))
    pairs = [(x, y) for x in tiles for y in tiles]
    return TilingInstance(
        tiles,
        frozenset(p for p in pairs if rng.random() < 0.6),
        frozenset(p for p in pairs if rng.random() < 0.6),
    )


CHECKERBOARD_JSON = (
    '{"tiles": ["a", "b"],'
    ' "h": [["a", "b"], ["b", "a"]],'
    ' "v": [["a", "b"], ["b", "a"]]}'
)
ONE_TILE_SELF_JSON = '{"tiles": ["t"], "h": [["t", "t"]], "v": [["t", "t"]]}'
ONE_TILE_EMPTY_JSON = '{"tiles": ["t"], "h": [], "v": []}'
