"""The benchmark's three workloads: seeded inputs, one pass of CLI ops each,
and the checks that judge every op's output without a recording.

A workload is built from `--seed` alone: `build(name, seed, base)` writes the
input files under `base/in` and returns the ops of one pass. Every op is one
`optpat` command line; its artifacts go to `base/out/<op id>`. Ops that need a
file another op writes (for example `classify` on the `Pprime.sp` that
`reduce` wrote) come after that op in the pass.

Why each workload exists, and what it isolates, is in README.md.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 1

# Chains deeper than this overflow the interpreter's default recursion limit
# in the pattern code (ROADMAP item 2). Ops on such a P' are known defects:
# their failure is charged, not reported as a wrong answer. No input here has
# a P' between this bound and the observed crash depth (about 990 leaves).
DEEP_LEAVES = 900

# W1 of ROADMAP.md, verbatim.
W1_PATTERN = "({ ?x p ?y } OPT { ?y q ?z })\n"

TERMS = ("?x", "?y", "?z", "p", "q")


@dataclass
class Result:
    """What one CLI invocation did: exit code, stdout, written artifacts."""

    code: int | None
    stdout: str
    files: dict[str, bytes]
    exc: BaseException | None
    latency: float  # the op's own time, without the reference loops run inside it
    start: float = 0.0  # perf_counter when the op began
    end: float = 0.0  # and when it returned


@dataclass
class Op:
    id: str
    args: list[str]
    out: str
    check: Callable[[Result], str | None]
    known_defect: bool = False
    fixed: bool = False  # same input at every seed, so its recording always applies
    mark: bool = False  # print this op's own trace breakdown
    reps: int = 1  # runs per pass; the op's latency is its median run


@dataclass
class Workload:
    limit_s: float  # an op slower than this fails and is charged this much
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    expected_spans: tuple[str, ...] = ()
    schedule: list[Op] = field(default_factory=list)  # one measured pass, with repeats


def _interleave(chains: list[list[Op]], rng: random.Random) -> list[Op]:
    """Merge chains of ops in a seeded random order that keeps each chain's
    own order. The machine's speed drifts over seconds, so ops of one kind
    must be spread over the whole pass, not bunched into one stretch of it,
    or the percentiles they set would sample the drift instead of the ops."""
    pending = [list(chain) for chain in chains if chain]
    order: list[Op] = []
    while pending:
        i = rng.choices(range(len(pending)), [len(chain) for chain in pending])[0]
        order.append(pending[i].pop(0))
        if not pending[i]:
            pending.pop(i)
    return order


def _spread(order: list[Op], rng: random.Random) -> list[Op]:
    """A measured pass: `order`, plus each op's further runs at seeded random
    places after its first. The machine's speed drifts over seconds, so an
    op's runs are spread over the pass rather than run back to back, where
    they would all see the same stretch of it. A repeated op rewrites the
    same artifacts, so ops that read them are unaffected."""
    schedule = list(order)
    for op in order:
        for _ in range(op.reps - 1):
            first = schedule.index(op)
            schedule.insert(rng.randint(first + 1, len(schedule)), op)
    return schedule


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _text(res: Result, name: str) -> str:
    return res.files[name].decode("utf-8")


def _expect_files(res: Result, names: set[str]) -> str | None:
    if set(res.files) != names:
        return f"artifacts {sorted(res.files)}, expected {sorted(names)}"
    return None


# --- search ----------------------------------------------------------------


def _leaf(rng: random.Random) -> str:
    triples = [" ".join(rng.choice(TERMS) for _ in range(3)) for _ in range(rng.randint(1, 2))]
    return "{ " + " . ".join(triples) + " }"


def _pattern(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    return f"({_pattern(rng, depth - 1)} OPT {_pattern(rng, depth - 1)})"


def _with_all_terms(draw) -> str:
    # Every variable and constant present, so the candidate vocabulary, and
    # with it the size of an exhausted search, is the same for every seed.
    while True:
        text = draw()
        if set(TERMS) <= set(text.replace("(", " ").replace(")", " ").replace("{", " ").replace("}", " ").split()):
            return text


def _search_check(command: str, max_candidates: int) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        lines = res.stdout.splitlines()
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        status = fields.get("status")
        if (status, res.code) not in (
            ("violated", 1),
            ("no_counterexample_within_budget", 0),
        ):
            return f"{command}: status {status!r} with exit code {res.code}"
        examined = int(fields.get("candidates_examined", "-1"))
        if not 0 <= examined <= max_candidates:
            return f"{command}: candidates_examined {examined} outside [0, {max_candidates}]"
        if status != "violated":
            return _expect_files(res, set())
        problem = _expect_files(res, {"counterexample.nt", "counterexample_mapping.json"})
        if problem:
            return problem
        if json.loads(fields["witness_mapping"]) != json.loads(_text(res, "counterexample_mapping.json")):
            return f"{command}: printed mapping differs from counterexample_mapping.json"
        if not _text(res, "counterexample.nt").strip():
            return f"{command}: empty counterexample graph"
        return None

    return check


def _search(seed: int, base: str) -> Workload:
    """W1, three searches that stop part-way through a 3-triple budget, 16
    that exhaust a 2-triple budget, and 160 mostly early-exit random pairs.

    W1 and the 19 budget-exhausting searches are the same at every seed, so
    their recorded outputs check them at every seed, and the costly ops that
    set the tail percentile do not change with it; the seed draws the pairs.
    """
    rng = random.Random(f"search/{seed}")
    inp, out = f"{base}/in", f"{base}/out"
    ops: list[Op] = []

    def add(op_id: str, command: str, left: str, right: str | None, budget: list[str], cap: int,
            fixed: bool = False, reps: int = 1):
        a = _write(f"{inp}/{op_id}-a.sp", left + "\n")
        b = a if right is None else _write(f"{inp}/{op_id}-b.sp", right + "\n")
        ops.append(
            Op(
                op_id,
                ["--out", f"{out}/{op_id}", command, a, b, *budget],
                f"{out}/{op_id}",
                _search_check(command, cap),
                fixed=fixed,
                reps=reps,
            )
        )

    w1 = _write(f"{inp}/w1.sp", W1_PATTERN)
    ops.append(Op("w1", ["--out", f"{out}/w1", "equiv", w1, w1], f"{out}/w1",
                  _search_check("equiv", 100_000), fixed=True, mark=True))
    fixed_rng = random.Random("search/fixed")
    for i in range(3):
        # W1's shape against itself: the 3-triple level is generated in full
        # although the budget stops the search part-way through it.
        left = _with_all_terms(lambda: f"({_leaf(fixed_rng)} OPT {_leaf(fixed_rng)})")
        command = fixed_rng.choice(("subsumes", "contains", "equiv"))
        add(f"deep{i}", command, left, None,
            ["--max-triples", "3", "--max-fresh", "2", "--max-candidates", "2000"], 2000,
            fixed=True, reps=2)
    exhaust = ["--max-triples", "2", "--max-candidates", "100000"]
    drawn = []
    for i in range(6):
        left = _with_all_terms(lambda: _pattern(fixed_rng, 2))
        right = None if fixed_rng.random() < 0.5 else f"({left} OPT {_leaf(fixed_rng)})"
        command = fixed_rng.choice(("subsumes", "contains", "equiv"))
        drawn.append((command, left, right))
        add(f"exhaust{i:02d}", command, left, right, exhaust, 100_000, fixed=True)
    # Ten copies of one of them (about 0.25 s), a cluster of like costs where
    # the tail percentile falls.
    for i in range(10):
        add(f"tail{i}", *drawn[1], exhaust, 100_000, fixed=True, reps=3)
    # Many cheap pairs, so the median op is taken over enough of them that
    # the seed's particular pairs barely move it.
    for i in range(160):
        cap = rng.choice((100, 1000, 10_000))
        command = rng.choice(("subsumes", "contains", "equiv"))
        add(f"pair{i:03d}", command, _pattern(rng, 2), _pattern(rng, 2),
            ["--max-triples", str(rng.choice((1, 2))), "--max-candidates", str(cap)], cap, reps=5)
    return Workload(
        limit_s=40.0,  # about twice the slowest op, W1
        # W1 leaves the heap grown and fragmented, which changes the speed of
        # every later op and of the reference loop; run first, it leaves every
        # other op in the same state at every seed.
        ops=ops[:1] + _interleave([[op] for op in ops[1:]], random.Random(f"search-order/{seed}")),
        warmup=ops[4:5] + ops[20:30],
        expected_spans=(
            "cli", "pattern.parse", "analysis.search", "analysis.check",
            "evaluation.evaluate", "evaluation.match_basic", "evaluation.join",
            "core.serialize_graph",
        ),
    )


# --- tiling instances --------------------------------------------------------


@dataclass
class Instance:
    key: str
    tiles: list[str]
    h: list[list[str]]
    v: list[list[str]]
    period: int | None = None  # known smallest square period, if any

    @property
    def leaves(self) -> int:
        n = len(self.tiles)
        return 2 + n + (n * n - len(self.h)) + (n * n - len(self.v))

    def to_json(self) -> str:
        return json.dumps({"tiles": self.tiles, "h": self.h, "v": self.v}) + "\n"


def _name(rng: random.Random, prefix: str) -> str:
    return f"{prefix}{rng.randrange(16 ** 5):05x}"


def _cyclic(rng: random.Random, k: int) -> Instance:
    """Z_k x Z_k: tile (i, j) steps to (i+1, j) horizontally, (i, j+1) vertically."""
    prefix = _name(rng, "t") + "_"
    tile = lambda i, j: f"{prefix}{i % k}_{j % k}"
    tiles = [tile(i, j) for i in range(k) for j in range(k)]
    h = [[tile(i, j), tile(i + 1, j)] for i in range(k) for j in range(k)]
    v = [[tile(i, j), tile(i, j + 1)] for i in range(k) for j in range(k)]
    return Instance(f"z{k}", tiles, h, v, period=k)


def _random_instance(rng: random.Random, key: str, n: int, density: float) -> Instance:
    tiles = [_name(rng, "u") + f"_{i}" for i in range(n)]
    pairs = [[a, b] for a in tiles for b in tiles]
    count = round(density * n * n)
    return Instance(key, tiles, rng.sample(pairs, count), rng.sample(pairs, count))


def _checkerboard(rng: random.Random, key: str) -> tuple[Instance, int]:
    a = _name(rng, "k")
    b = a + "x"
    pairs = [[a, b], [b, a]]
    return Instance(key, [a, b], pairs, list(pairs), period=2), rng.randrange(2)


def _torus_json(inst: Instance, p: int, q: int, phase: int) -> str:
    grid = [[inst.tiles[(x + y + phase) % 2] for x in range(p)] for y in range(q)]
    return json.dumps({"p": p, "q": q, "grid": grid}) + "\n"


def _verify_torus(inst: Instance, grid: list[list[str]]) -> bool:
    q, p = len(grid), len(grid[0])
    h = {tuple(pair) for pair in inst.h}
    v = {tuple(pair) for pair in inst.v}
    return all(
        (grid[y][x], grid[y][(x + 1) % p]) in h and (grid[y][x], grid[(y + 1) % q][x]) in v
        for y in range(q)
        for x in range(p)
    )


def _manifest_problem(inst: Instance, res: Result, manifest: dict) -> str | None:
    import hashlib

    n = len(inst.tiles)
    counts = {
        "tiles": n,
        "h_incompatible": n * n - len(inst.h),
        "v_incompatible": n * n - len(inst.v),
        "opt_nodes": inst.leaves - 1,
    }
    if manifest.get("counts") != counts:
        return f"manifest counts {manifest.get('counts')}, expected {counts}"
    for name, entry in manifest.get("files", {}).items():
        if name not in res.files:
            return f"manifest lists {name}, which was not written"
        if entry.get("sha256") != hashlib.sha256(res.files[name]).hexdigest():
            return f"manifest sha256 of {name} differs from the written file"
    return None


def _reduce_check(inst: Instance) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"reduce exited {res.code}"
        problem = _expect_files(res, {"P.sp", "Pprime.sp", "manifest.json"})
        if problem:
            return problem
        manifest = json.loads(_text(res, "manifest.json"))
        if set(manifest.get("files", {})) != {"P.sp", "Pprime.sp"}:
            return "manifest does not list P.sp and Pprime.sp"
        if _text(res, "Pprime.sp").count("{") != inst.leaves:
            return f"Pprime.sp does not have {inst.leaves} leaves"
        return _manifest_problem(inst, res, manifest)

    return check


def _classify_check(res: Result) -> str | None:
    expected = "well_designed: false\nweakly_well_designed: true\n"
    if res.code != 0 or res.stdout != expected:
        return f"classify exited {res.code} with {res.stdout!r}"
    return None


def _reduce_ops(inst: Instance, inp: str, out: str) -> tuple[Op, str]:
    path = _write(f"{inp}/{inst.key}.json", inst.to_json())
    op = Op(
        f"{inst.key}-reduce",
        ["--out", f"{out}/{inst.key}-reduce", "reduce", path],
        f"{out}/{inst.key}-reduce",
        _reduce_check(inst),
        known_defect=inst.leaves > DEEP_LEAVES,
    )
    return op, path


# --- witness -----------------------------------------------------------------

# Solutions of P' on the replicated checkerboard witness graph, by torus size.
# They do not depend on tile names or phase, so they hold for every seed.
CHECKERBOARD_SOLUTIONS = {(2, 2): 32, (4, 2): 256, (4, 4): 1024}
# Runs per pass of the ops on a torus or Z_k x Z_k, by size. Ops where the
# percentiles fall run most often, so that their median runs are steady.
WITNESS_REPS = {(2, 2): 12, (3, 3): 2, (4, 2): 4, (4, 4): 1}


def _witness_check(inst: Instance, tiling_json: str) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"witness exited {res.code}"
        problem = _expect_files(res, {"G.nt", "mu.json", "tiling.json"})
        if problem:
            return problem
        report = json.loads(res.stdout)
        if report.get("verified") is not True:
            return "witness did not verify"
        if json.loads(_text(res, "mu.json")) != {"?b": "bSub"}:
            return "mu.json is not {?b -> bSub}"
        if json.loads(_text(res, "tiling.json")) != json.loads(tiling_json):
            return "tiling.json differs from the input tiling"
        return None

    return check


def _on_graph_check(graph_path: str) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 1 or not res.stdout.startswith("status: violated\n"):
            return f"subsumes --on-graph exited {res.code}, expected a violation"
        if 'witness_mapping: {"?b": "bSub"}' not in res.stdout:
            return "violation mapping is not {?b -> bSub}"
        problem = _expect_files(res, {"counterexample.nt", "counterexample_mapping.json"})
        if problem:
            return problem
        with open(graph_path, "rb") as handle:
            if res.files["counterexample.nt"] != handle.read():
                return "counterexample.nt differs from the input graph"
        return None

    return check


def _eval_check(solutions: int) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"eval exited {res.code}"
        rows = res.stdout.splitlines()
        if len(rows) != solutions or len(set(rows)) != solutions:
            return f"eval printed {len(rows)} rows, expected {solutions} distinct"
        if any(json.loads(row).get("?b") not in ("bSub", "bNotSub") for row in rows):
            return "a solution does not bind ?b to a marker"
        return _expect_files(res, set())

    return check


def _pipeline_check(inst: Instance) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"pipeline exited {res.code}"
        manifest = json.loads(res.stdout)
        if manifest.get("verified") is not True:
            return "pipeline did not verify"
        tiling = manifest.get("periodic_tiling") or {}
        if (tiling.get("p"), tiling.get("q")) != (inst.period, inst.period):
            return f"periodic tiling {tiling.get('p')}x{tiling.get('q')}, expected {inst.period}x{inst.period}"
        if not _verify_torus(inst, tiling["grid"]):
            return "pipeline's periodic tiling does not verify"
        names = {"P.sp", "Pprime.sp", "G.nt", "mu.json", "tiling.json", "manifest.json"}
        return _expect_files(res, names) or _manifest_problem(inst, res, manifest)

    return check


def _witness(seed: int, base: str) -> Workload:
    """Checkerboard witnesses checked four ways, and pipeline on Z_k."""
    rng = random.Random(f"witness/{seed}")
    inp, out = f"{base}/in", f"{base}/out"
    chains: list[list[Op]] = []
    # Seeded copies of the small tori give the percentiles enough samples:
    # the median op is one of the 24 2x2 `witness`/`subsumes`/`eval` ops, the
    # tail one of the nine 4x2 ones.
    tori = [(2, 2)] * 8 + [(4, 2)] * 3 + [(4, 4)]
    for i, (p, q) in enumerate(tori):
        inst, phase = _checkerboard(rng, f"cb{p}x{q}-{i:02d}")
        reduce_op, inst_path = _reduce_ops(inst, inp, out)
        reps = WITNESS_REPS[(p, q)]
        reduce_op.reps = reps
        tiling = _torus_json(inst, p, q, phase)
        tiling_path = _write(f"{inp}/{inst.key}-tiling.json", tiling)
        pair_dir = reduce_op.out
        wit_dir = f"{out}/{inst.key}-witness"
        graph = f"{wit_dir}/G.nt"
        chains.append([
            reduce_op,
            Op(f"{inst.key}-witness",
               ["--json", "--out", wit_dir, "witness", inst_path, "--tiling", tiling_path],
               wit_dir, _witness_check(inst, tiling), reps=reps),
            Op(f"{inst.key}-subsumes",
               ["--out", f"{out}/{inst.key}-subsumes", "subsumes", f"{pair_dir}/P.sp",
                f"{pair_dir}/Pprime.sp", "--on-graph", graph],
               f"{out}/{inst.key}-subsumes", _on_graph_check(graph), reps=reps),
            Op(f"{inst.key}-eval",
               ["--out", f"{out}/{inst.key}-eval", "eval", graph, f"{pair_dir}/Pprime.sp"],
               f"{out}/{inst.key}-eval", _eval_check(CHECKERBOARD_SOLUTIONS[(p, q)]),
               mark=(p, q) == (4, 4), reps=reps),
        ])
    for i, k in enumerate([2, 2, 2, 2, 3, 3, 4]):
        inst = _cyclic(rng, k)
        inst.key = f"z{k}-{i}"
        path = _write(f"{inp}/{inst.key}.json", inst.to_json())
        chains.append([Op(f"{inst.key}-pipeline",
                          ["--json", "--out", f"{out}/{inst.key}-pipeline", "pipeline", path],
                          f"{out}/{inst.key}-pipeline", _pipeline_check(inst),
                          reps=WITNESS_REPS[(k, k)])])
    return Workload(
        limit_s=15.0,  # about three times the slowest op, Z_4's pipeline
        ops=_interleave(chains, random.Random(f"witness-order/{seed}")),
        warmup=chains[8],  # the first 4x2 torus
        expected_spans=(
            "cli", "core.parse_graph", "core.serialize_graph", "pattern.parse",
            "pattern.serialize", "analysis.check", "evaluation.evaluate",
            "evaluation.match_basic", "evaluation.join", "tiling.find_periodic",
            "reduction.build_p_prime", "reduction.build_witness", "reduction.verify_witness",
        ),
    )


# --- compile -----------------------------------------------------------------

# (tiles, compatibility density) of the random instances that are compiled.
# Fixed strata keep every seed's pass the same size; the seed draws names and
# compatible pairs. P' sizes run from 15 to 422 leaves; Z_2..Z_6 add 30, 155,
# 498, 1227, 2558. Larger random instances are left out: the slowest op sets
# the latency limit, and the limit is charged for each of the four Z_5/Z_6
# failures in every pass.
RANDOM_STRATA = [
    (3, 0.3), (3, 0.4), (3, 0.5), (4, 0.3), (4, 0.4), (4, 0.5), (5, 0.4), (6, 0.3),
    (6, 0.5), (7, 0.4), (10, 0.3), (16, 0.4), (20, 0.5),
]
# Clusters of like ops where the percentiles fall: copies of Z_k x Z_k, whose
# cost does not depend on the seed (it draws only their tile names). The tail
# falls among the `classify` ops of ten copies of Z_3 (about 0.14 s each).
# The median falls among the `reduce` ops of 22 copies of Z_2 (about 2-3 ms
# each); these skip `classify` and the tile modes, so that as many ops cost
# more than the cluster as cost less and the median falls in its middle.
# Their ops run several times in each pass, so that their median runs are
# steady.
TAIL_K, TAIL_COPIES, TAIL_REPS = 3, 10, 6
MEDIAN_K, MEDIAN_COPIES, MEDIAN_REPS = 2, 22, 15
# Instances up to this many tiles compile in milliseconds; their ops, and
# every tile op, run three times in each pass.
SMALL_TILES = 8


def _periodic_check(inst: Instance, found: dict) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"tile --find-periodic exited {res.code}"
        tiling = json.loads(res.stdout).get("periodic")
        found[inst.key] = tiling is not None
        if tiling is None:
            return f"{inst.key} has a {inst.period}x{inst.period} tiling" if inst.period else None
        if inst.period and (tiling["p"], tiling["q"]) != (inst.period, inst.period):
            return f"periodic tiling {tiling['p']}x{tiling['q']}, expected {inst.period}x{inst.period}"
        if not _verify_torus(inst, tiling["grid"]):
            return "the reported periodic tiling does not verify"
        return None

    return check


def _certify_check(inst: Instance, found: dict) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if res.code != 0:
            return f"tile --certify-untileable exited {res.code}"
        certificate = json.loads(res.stdout).get("untileable_certificate")
        if certificate is not None and found.get(inst.key):
            return "untileability certified for an instance with a periodic tiling"
        return None

    return check


def _compile(seed: int, base: str) -> Workload:
    """reduce, classify, and both tile modes on Z_2..Z_6 and random
    instances; reduce alone on the median cluster."""
    rng = random.Random(f"compile/{seed}")
    inp, out = f"{base}/in", f"{base}/out"
    instances = [_cyclic(rng, k) for k in range(2, 7)]
    instances += [
        _random_instance(rng, f"r{i:02d}-{n}-{round(d * 10)}", n, d)
        for i, (n, d) in enumerate(RANDOM_STRATA)
    ]
    tail = [_cyclic(rng, TAIL_K) for _ in range(TAIL_COPIES)]
    cluster = [_cyclic(rng, MEDIAN_K) for _ in range(MEDIAN_COPIES)]
    for i, inst in enumerate(tail + cluster):
        inst.key += f"-{i:02d}"
    found: dict[str, bool] = {}

    def compile_ops(inst: Instance, reps: int) -> tuple[list[Op], str]:
        reduce_op, path = _reduce_ops(inst, inp, out)
        classify_op = Op(f"{inst.key}-classify", ["classify", f"{reduce_op.out}/Pprime.sp"],
                         f"{out}/{inst.key}-classify", _classify_check,
                         known_defect=inst.leaves > DEEP_LEAVES, reps=reps)
        reduce_op.reps = reps
        return [reduce_op, classify_op], path

    def tile_ops(inst: Instance, path: str) -> list[Op]:
        return [
            Op(f"{inst.key}-periodic", ["--json", "tile", path, "--find-periodic"],
               f"{out}/{inst.key}-periodic", _periodic_check(inst, found), reps=3),
            Op(f"{inst.key}-certify", ["--json", "tile", path, "--certify-untileable"],
               f"{out}/{inst.key}-certify", _certify_check(inst, found), reps=3),
        ]

    chains: list[list[Op]] = []
    for inst in instances + tail:
        if inst in tail:
            reps = TAIL_REPS
        else:
            reps = 3 if len(inst.tiles) <= SMALL_TILES else 1
        ops, path = compile_ops(inst, reps)
        chains.append([*ops, *tile_ops(inst, path)])
    for inst in cluster:
        ops, _ = compile_ops(inst, MEDIAN_REPS)
        chains.append(ops[:1])  # the median falls among these reduce ops
    biggest = max((i for i in instances if i.leaves <= DEEP_LEAVES), key=lambda i: i.leaves)
    return Workload(
        limit_s=3.0,  # about three times the slowest op, Z_4's classify
        ops=_interleave(chains, random.Random(f"compile-order/{seed}")),
        warmup=chains[instances.index(biggest)][:1],
        expected_spans=(
            "cli", "pattern.parse", "pattern.serialize", "pattern.classify",
            "tiling.find_periodic", "tiling.certify_untileable", "tiling.find_rectangle",
            "reduction.build_p_prime",
        ),
    )


BUILDERS = {"search": _search, "witness": _witness, "compile": _compile}


def build(name: str, seed: int, base: str) -> Workload:
    """Write the inputs for one workload and seed under `base`; return its pass."""
    workload = BUILDERS[name](seed, base)
    workload.schedule = _spread(workload.ops, random.Random(f"{name}-repeats/{seed}"))
    return workload
