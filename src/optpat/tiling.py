"""Tiling instances, torus (periodic) tiling search and verification,
rectangle tiling search, and untileability certification.

Coordinates are (x, y) with x horizontal and y vertical; the horizontal
compatibility relation constrains (x, y) -> (x+1, y) neighbours and the
vertical relation constrains (x, y) -> (x, y+1). Grids are stored bottom row
first. Only evidence objects are produced: a verified torus labeling, or a
window size no rectangle of which can be tiled (which rules out tiling the
plane, since a plane tiling restricts to every window).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

_TILE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Pair = tuple[str, str]


@dataclass(frozen=True)
class TilingInstance:
    """Tile names plus the horizontal and vertical compatibility relations."""

    tiles: tuple[str, ...]
    h_compat: frozenset[Pair]
    v_compat: frozenset[Pair]

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("instance must have at least one tile")
        if len(set(self.tiles)) != len(self.tiles):
            raise ValueError("duplicate tile name")
        known = set(self.tiles)
        for rel, pairs in (("h", self.h_compat), ("v", self.v_compat)):
            for a, b in pairs:
                if a not in known or b not in known:
                    missing = a if a not in known else b
                    raise ValueError(f"unknown tile name {missing!r} in {rel!r} relation")

    def _incompatible(self, compat: frozenset[Pair]) -> list[Pair]:
        # Row-major over the tile list order, so "the i'th pair" is stable.
        return [(a, b) for a in self.tiles for b in self.tiles if (a, b) not in compat]

    @cached_property
    def _successors(self) -> tuple[list[dict[int, None]], list[dict[int, None]]]:
        """Per tile index, the indices of the tiles that may sit right of it
        and above it: dicts used as sets that keep instance order."""

        def table(compat: frozenset[Pair]) -> list[dict[int, None]]:
            return [
                dict.fromkeys(j for j, b in enumerate(self.tiles) if (a, b) in compat)
                for a in self.tiles
            ]

        return table(self.h_compat), table(self.v_compat)

    def h_incompatible(self) -> list[Pair]:
        return self._incompatible(self.h_compat)

    def v_incompatible(self) -> list[Pair]:
        return self._incompatible(self.v_compat)


@dataclass(frozen=True)
class PeriodicTiling:
    """A p x q torus labeling; rows[y][x] with y counted from the bottom."""

    p: int
    q: int
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("periods must be >= 1")
        if len(self.rows) != self.q or any(len(row) != self.p for row in self.rows):
            raise ValueError("grid shape does not match the declared periods")

    def tile(self, x: int, y: int) -> str:
        """Tile at 0-based cell (x, y)."""
        return self.rows[y][x]


@dataclass(frozen=True)
class RectTiling:
    """A width x height labeling without wraparound; same row convention."""

    width: int
    height: int
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("dimensions must be >= 1")
        if len(self.rows) != self.height or any(len(row) != self.width for row in self.rows):
            raise ValueError("grid shape does not match the declared dimensions")


def _as_pairs(value: object, key: str, tiles: Sequence[str]) -> frozenset[Pair]:
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be an array of [tile, tile] pairs")
    known = set(tiles)
    pairs: set[Pair] = set()
    for entry in value:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(t, str) for t in entry)
        ):
            raise ValueError(f"{key!r} entries must be [tile, tile] pairs")
        a, b = entry
        for t in (a, b):
            if t not in known:
                raise ValueError(f"unknown tile name {t!r} in {key!r}")
        pairs.add((a, b))
    return frozenset(pairs)


def parse_instance(text: str) -> TilingInstance:
    """Parse instance JSON: {"tiles": [...], "h": [[a,b],...], "v": [...]}.

    Tile names must be identifiers so they can later serve as IRIs.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError("instance must be a JSON object")
    unknown = set(obj) - {"tiles", "h", "v"}
    if unknown:
        raise ValueError(f"unexpected instance keys: {sorted(unknown)}")
    tiles = obj.get("tiles")
    if not isinstance(tiles, list) or not tiles or not all(isinstance(t, str) for t in tiles):
        raise ValueError("'tiles' must be a non-empty array of strings")
    for t in tiles:
        if not _TILE_RE.match(t):
            raise ValueError(f"tile name {t!r} is not an identifier")
    if len(set(tiles)) != len(tiles):
        raise ValueError("duplicate tile name")
    h = _as_pairs(obj.get("h", []), "h", tiles)
    v = _as_pairs(obj.get("v", []), "v", tiles)
    return TilingInstance(tuple(tiles), h, v)


def instance_to_jsonable(inst: TilingInstance) -> dict:
    order = {t: i for i, t in enumerate(inst.tiles)}
    key = lambda pair: (order[pair[0]], order[pair[1]])
    return {
        "tiles": list(inst.tiles),
        "h": [list(pair) for pair in sorted(inst.h_compat, key=key)],
        "v": [list(pair) for pair in sorted(inst.v_compat, key=key)],
    }


def periodic_to_jsonable(pt: PeriodicTiling) -> dict:
    return {"p": pt.p, "q": pt.q, "grid": [list(row) for row in pt.rows]}


def periodic_from_jsonable(obj: object) -> PeriodicTiling:
    if not isinstance(obj, dict):
        raise ValueError("periodic tiling must be a JSON object")
    p, q, grid = obj.get("p"), obj.get("q"), obj.get("grid")
    if not isinstance(p, int) or not isinstance(q, int):
        raise ValueError("'p' and 'q' must be integers")
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ValueError("'grid' must be an array of rows")
    rows = []
    for row in grid:
        if not all(isinstance(t, str) for t in row):
            raise ValueError("grid entries must be tile name strings")
        rows.append(tuple(row))
    return PeriodicTiling(p, q, tuple(rows))


def verify_periodic(inst: TilingInstance, pt: PeriodicTiling) -> bool:
    """Check every torus adjacency, including the wraparound seams."""
    known = set(inst.tiles)
    for row in pt.rows:
        for t in row:
            if t not in known:
                raise ValueError(f"grid uses unknown tile {t!r}")
    for y in range(pt.q):
        for x in range(pt.p):
            here = pt.tile(x, y)
            if (here, pt.tile((x + 1) % pt.p, y)) not in inst.h_compat:
                return False
            if (here, pt.tile(x, (y + 1) % pt.q)) not in inst.v_compat:
                return False
    return True


def _backtrack_grid(
    inst: TilingInstance, width: int, height: int, wrap: bool
) -> tuple[tuple[str, ...], ...] | None:
    """Fill cells in row-major order, trying tiles in instance order, over an
    explicit stack of per-cell candidate iterators."""
    right, above = inst._successors
    last_x, last_y = width - 1, height - 1
    cells = [0] * (width * height)

    def candidates(i: int) -> Iterator[int]:
        # Tile indices, in instance order, that fit the cells already filled.
        x, y = i % width, i // width
        if x:
            found = right[cells[i - 1]]
            if y:
                up = above[cells[i - width]]
                found = [t for t in found if t in up]
        else:
            found = above[cells[i - width]] if y else range(len(right))
        if wrap and x == last_x:  # the row's first cell, or this one, is its right neighbour
            found = [t for t in found if (cells[i - last_x] if x else t) in right[t]]
        if wrap and y == last_y:  # the column's bottom cell, or this one, is above it
            found = [t for t in found if (cells[x] if y else t) in above[t]]
        return iter(found)

    tries = [candidates(0)]
    while tries:
        i = len(tries) - 1
        tile = next(tries[i], None)
        if tile is None:
            tries.pop()
            continue
        cells[i] = tile
        if i == len(cells) - 1:
            return tuple(
                tuple(inst.tiles[t] for t in cells[y * width : (y + 1) * width])
                for y in range(height)
            )
        tries.append(candidates(i + 1))
    return None


def find_periodic(inst: TilingInstance, max_p: int, max_q: int) -> PeriodicTiling | None:
    """Search torus labelings by increasing area; deterministic result."""
    if max_p < 1 or max_q < 1:
        raise ValueError("period bounds must be >= 1")
    sizes = sorted(
        ((p, q) for p in range(1, max_p + 1) for q in range(1, max_q + 1)),
        key=lambda pq: (pq[0] * pq[1], pq[0], pq[1]),
    )
    for p, q in sizes:
        rows = _backtrack_grid(inst, p, q, wrap=True)
        if rows is not None:
            pt = PeriodicTiling(p, q, rows)
            assert verify_periodic(inst, pt)
            return pt
    return None


def find_rectangle(inst: TilingInstance, width: int, height: int) -> RectTiling | None:
    """A grid satisfying all internal adjacencies, or None. No border
    conditions: this is the restriction of a plane tiling to a window."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    rows = _backtrack_grid(inst, width, height, wrap=False)
    if rows is None:
        return None
    return RectTiling(width, height, rows)


def certify_untileable(inst: TilingInstance, max_n: int) -> int | None:
    """Smallest n <= max_n such that no n x n rectangle can be tiled.

    Such an n certifies that the instance cannot tile the plane. The first
    failing n is minimal: an untileable window stays untileable inside any
    larger one.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    for n in range(1, max_n + 1):
        if find_rectangle(inst, n, n) is None:
            return n
    return None


def replicate(pt: PeriodicTiling, times_x: int, times_y: int) -> PeriodicTiling:
    """Repeat the torus grid; a verified tiling stays verified."""
    if times_x < 1 or times_y < 1:
        raise ValueError("replication factors must be >= 1")
    rows = tuple(tuple(row) * times_x for row in pt.rows) * times_y
    return PeriodicTiling(pt.p * times_x, pt.q * times_y, rows)


def replicate_to(pt: PeriodicTiling, min_p: int, min_q: int) -> PeriodicTiling:
    """Double periods until both reach the requested minimums."""
    out = pt
    while out.p < min_p:
        out = replicate(out, 2, 1)
    while out.q < min_q:
        out = replicate(out, 1, 2)
    return out
