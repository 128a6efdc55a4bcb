"""Run one workload of the optpat benchmark and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run it from the repository root, the directory holding `src/optpat`. The
benchmark drives the real CLI in this process, `optpat.cli.main(args,
standalone_mode=False)`, with one caller in a closed loop: each op starts
when the previous one has returned. One pass runs every op of the workload
its fixed number of times (`Op.reps`); passes repeat until `--seconds` have
gone by, and only whole passes are measured, so every run weighs the ops
alike. The timing metrics are taken from each op's median run, each run
divided by a reference loop timed at the same moment.

Every op is checked: against the recording in expected.json at the recorded
seed, and by properties that need no recording at any seed. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` passes run untraced, traced and untraced again, each op once,
and the metrics are the per-layer ones from the traced pass. The exit code is 0 when every output
was right, 1 when one was wrong, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
STATE_DIR = ".perfbench"
RECORDING = os.path.join(HERE, "expected.json")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # ops beyond the tail percentile
HARD_CAP_S = 100.0  # no op starts after this much measured time

REFERENCE_ROWS = 6_000
# CPU seconds between reference loops run inside an op, and the seconds on
# either side of an op run whose reference loops make its ref.
SAMPLE_EVERY_S = 0.1
REF_WINDOW_S = 0.3
# About one ref on the machine the limits were chosen on. A failed op is charged
# its workload's limit converted at this rate, so the charge in refs does not
# move with the machine's speed.
NOMINAL_REF_S = 0.003

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "ops_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class OpTimeout(Exception):
    """Raised into an op that has run past its workload's latency limit."""


@dataclass(slots=True)
class Outcome:
    op: workloads.Op
    kind: str  # ok | wrong | failed | slow
    problem: str | None
    latency: float  # charged: the workload's limit, for an op that failed
    digest: dict
    start: float = 0.0
    end: float = 0.0


def _digest(res: workloads.Result) -> dict:
    return {
        "exit": res.code,
        "stdout": hashlib.sha256(res.stdout.encode("utf-8")).hexdigest(),
        "files": {name: hashlib.sha256(data).hexdigest() for name, data in sorted(res.files.items())},
    }


def reference_loop() -> float:
    """Time a fixed piece of interpreter work that shares no code with optpat
    (about 2 ms): a yardstick for the machine's speed at the moment. Like
    optpat's solution sets, it builds and indexes many small dicts, so memory
    contention slows it as it slows the ops; a loop of arithmetic alone
    followed the ops' slowdowns less well."""
    # Without the collector: a collection it set off would traverse the
    # heap of whatever op it interrupted, which times that op, not the machine.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [{"a": i, "b": i % 7, "c": str(i)} for i in range(REFERENCE_ROWS)]
        index: dict[int, list] = {}
        for row in rows:
            index.setdefault(row["b"], []).append(row)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


class Runner:
    """Executes and judges the ops of one workload."""

    def __init__(self, cli, workload: workloads.Workload, recording: dict | None, complete: bool):
        self.cli = cli
        self.workload = workload
        self.recording = recording
        self.complete = complete  # every op is recorded: the run uses the recorded seed
        self.tracer: tracer.Tracer | None = None
        # (when, reference loop seconds, whether inside an op), while measuring
        self.samples: list[tuple[float, float, bool]] | None = None
        self._armed = False
        self._paused = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.signal(signal.SIGPROF, self._on_sample)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            raise OpTimeout()

    def _on_sample(self, signum, frame) -> None:
        # Inside a long op: time the reference loop now, and take its time
        # out of the op's latency.
        if self._armed and self.samples is not None:
            began = time.perf_counter()
            self.samples.append((began, reference_loop(), True))
            self._paused += time.perf_counter() - began

    def sample(self) -> None:
        """Time the reference loop between ops."""
        if self.samples is not None:
            self.samples.append((time.perf_counter(), reference_loop(), False))

    def _invoke(self, args: list[str]):
        if self.tracer is None:
            return self.cli.main(args, standalone_mode=False)
        return self.tracer.call(tracer.ROOT, self.cli.main, args, standalone_mode=False)

    def execute(self, op: workloads.Op) -> workloads.Result:
        shutil.rmtree(op.out, ignore_errors=True)
        out = io.StringIO()
        code, exc = None, None
        start = end = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    self._paused = 0.0
                    self._armed = True
                    signal.setitimer(signal.ITIMER_REAL, self.workload.limit_s)
                    if self.samples is not None:
                        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
                    start = time.perf_counter()
                    code = _exit_code(self._invoke(op.args))
                finally:
                    end = time.perf_counter()
                    self._armed = False
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except SystemExit as e:
            code = _exit_code(e.code)
        except OpTimeout as e:
            exc = e
        except Exception as e:  # noqa: BLE001 - every op's failure is recorded, not fatal
            if hasattr(e, "exit_code"):  # click's usage errors carry an exit code
                code = e.exit_code
            else:
                exc = e
        end = end or time.perf_counter()
        start = start or end
        latency = end - start - self._paused
        files: dict[str, bytes] = {}
        if os.path.isdir(op.out):
            for name in sorted(os.listdir(op.out)):
                path = os.path.join(op.out, name)
                if os.path.isfile(path):
                    with open(path, "rb") as handle:
                        files[name] = handle.read()
        return workloads.Result(code, out.getvalue(), files, exc, latency, start, end)

    def judge(self, op: workloads.Op, res: workloads.Result) -> Outcome:
        digest = _digest(res)
        limit = self.workload.limit_s
        failing = "failed" if op.known_defect else "wrong"
        if isinstance(res.exc, OpTimeout):
            return Outcome(op, "slow", f"exceeded the {limit:g} s limit", limit, digest)
        if res.exc is not None:
            problem = f"raised {type(res.exc).__name__}: {res.exc}"[:300]
            return Outcome(op, failing, problem, limit, digest)
        try:
            problem = op.check(res)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
            problem = f"unreadable output ({type(e).__name__}: {e})"
        recorded = None
        if self.recording is not None and (self.complete or op.fixed):
            recorded = self.recording.get(op.id)
            if problem is None and recorded is None:
                problem = "no recording for this op"
        # A known defect that failed at the recorded seed has no digest; its
        # output is judged by the property checks alone.
        if problem is None and recorded is not None and "exit" in recorded:
            for key in ("exit", "stdout", "files"):
                if recorded[key] != digest[key]:
                    problem = f"{key} differs from the recording"
                    break
        if problem is not None:
            # A known defect that completes must give the right answer.
            kind = failing if res.code != 0 else "wrong"
            return Outcome(op, kind, problem, limit, digest)
        if res.latency > limit:
            return Outcome(op, "slow", f"took {res.latency:.3f} s, limit {limit:g} s", limit, digest)
        return Outcome(op, "ok", None, res.latency, digest)

    def run(self, op: workloads.Op) -> Outcome:
        res = self.execute(op)
        outcome = self.judge(op, res)
        outcome.start, outcome.end = res.start, res.end
        return outcome


def load_recording(workload: str, seed: int) -> tuple[dict, bool]:
    """The recorded outputs, and whether they cover every op at this seed
    (otherwise only the ops whose input is the same at every seed)."""
    with open(RECORDING, encoding="utf-8") as handle:
        data = json.load(handle)
    return data["workloads"][workload], data["seed"] == seed


def import_cli():
    """Import optpat anew; set-up times the import."""
    for module in [m for m in sys.modules if m == "optpat" or m.startswith("optpat.")]:
        del sys.modules[module]
    return importlib.import_module("optpat.cli")


def set_up(name: str, seed: int, recording: dict | None, complete: bool) -> tuple[float, Runner]:
    """Import optpat, write the inputs, and run the warm-up ops."""
    start = time.perf_counter()
    cli = import_cli()
    base = os.path.join(STATE_DIR, name)
    shutil.rmtree(base, ignore_errors=True)
    workload = workloads.build(name, seed, base)
    runner = Runner(cli, workload, recording, complete)
    for op in workload.warmup:
        runner.execute(op)
    return time.perf_counter() - start, runner


def run_pass(runner: Runner, started: float, repeat: bool = True, per_op: list | None = None) -> list[Outcome]:
    """Every op of the workload once, or `op.reps` times, spread over the
    pass, when `repeat` is set. While the runner takes samples, time the
    reference loop after every op run too."""
    outcomes: list[Outcome] = []
    begin = time.perf_counter()
    for op in runner.workload.schedule if repeat else runner.workload.ops:
        if time.perf_counter() - started > HARD_CAP_S:
            break
        snap = runner.tracer.snapshot() if per_op is not None and op.mark else None
        outcomes.append(runner.run(op))
        runner.sample()
        if snap is not None:
            per_op.append((op.id, runner.tracer.since(snap)))
    real = time.perf_counter() - begin
    print(f"pass: {len(outcomes)} op runs, {real:.4f} s real, {sum(o.latency for o in outcomes):.4f} s charged")
    return outcomes


def run_passes(runner: Runner, seconds: float, started: float) -> tuple[list[list[Outcome]], float, list]:
    """Whole passes until `seconds` have gone by; the passes, the peak RSS
    and the reference loop's samples."""
    begin = time.perf_counter()
    runner.samples = []
    passes = [run_pass(runner, started)]
    # Later passes add heap fragmentation, not program state: the peak is
    # taken over set-up and the first pass, so it does not depend on the
    # number of passes.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - begin < seconds and len(passes[-1]) == len(runner.workload.schedule):
        passes.append(run_pass(runner, started))
    samples, runner.samples = runner.samples, None
    return passes, rss_mb, samples


def _rate(outcomes: list[Outcome]) -> float:
    charged = sum(o.latency for o in outcomes)
    return sum(o.kind == "ok" for o in outcomes) / charged if charged else 0.0


def local_refs(outcomes: list[Outcome], samples: list[tuple[float, float, bool]]) -> list[float]:
    """Each op run's ref: the median of the reference loops timed during the
    run and within REF_WINDOW_S of it, so that an op and its ref see the
    machine at the same moment; a long op is measured against the loops run
    inside it."""
    times = [when for when, _, _ in samples]
    refs = []
    for o in outcomes:
        lo = bisect.bisect_left(times, o.start - REF_WINDOW_S)
        hi = bisect.bisect_right(times, o.end + REF_WINDOW_S)
        near = [s for _, s, _ in samples[lo:hi]]
        if not near:  # only if judging the op took longer than the window
            near = [samples[min(lo, len(samples) - 1)][1]]
        refs.append(statistics.median(near))
    return refs


def op_latencies(outcomes: list[Outcome], refs: list[float]) -> dict[str, tuple[float, float] | None]:
    """Each op's latency over all its runs: the median of its runs in ref and
    in seconds, or None if the op failed (in any run, or only too slow in
    all). The machine's cores switch between a fast and a slow speed, so the
    best run of an op depends on whether one of its runs met a fast moment;
    the median of its runs, each in the ref of its own moment, does not."""
    runs: dict[str, list[tuple[Outcome, float]]] = {}
    for o, ref in zip(outcomes, refs):
        runs.setdefault(o.op.id, []).append((o, ref))
    typical: dict[str, tuple[float, float] | None] = {}
    for op_id, mine in runs.items():
        ok = [(o.latency / ref, o.latency) for o, ref in mine if o.kind == "ok"]
        failed = any(o.kind in ("wrong", "failed") for o, _ in mine)
        if ok and not failed:
            typical[op_id] = (statistics.median(r for r, _ in ok), statistics.median(s for _, s in ok))
        else:
            typical[op_id] = None
    return typical


def end_to_end(outcomes: list[Outcome], limit_s: float, setup_s: float, rss_mb: float,
               samples: list[tuple[float, float, bool]]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and lines that report them in seconds."""
    refs = local_refs(outcomes, samples)
    typical = op_latencies(outcomes, refs)
    charge = limit_s / NOMINAL_REF_S
    latencies = sorted(charge if t is None else t[0] for t in typical.values())
    ok = sum(t is not None for t in typical.values())
    n = len(latencies)
    level = max(0.5, 1.0 - TAIL_BEYOND / n)
    rank = max(1, math.ceil(level * n))
    metrics = {
        "setup_s": setup_s,
        "ops_per_kref": 1000 * ok / sum(latencies),
        "latency_p50_ref": statistics.median(latencies),
        "latency_tail_ref": latencies[rank - 1],
        "ops_ok_frac": ok / n,
        "peak_rss_mb": rss_mb,
    }
    seconds = sorted(limit_s if t is None else t[1] for t in typical.values())
    inside = [s for _, s, within in samples if within]
    between = [s for _, s, within in samples if not within]
    slowdown = statistics.median(inside) / statistics.median(between) if inside else float("nan")
    notes = [
        f"ref: per op run, from {len(between)} reference loops between ops and {len(inside)} inside them "
        f"(those {slowdown:.3f}x as slow); median {statistics.median(refs):.6f} s, "
        f"range {min(refs):.6f}-{max(refs):.6f} s; a failed op is charged {limit_s:g} s = {charge:g} ref",
        f"latency_tail_ref is p{100 * level:.2f} of {n} ops, {n - rank} beyond it",
        f"in seconds: ops_per_s {ok / sum(seconds):.6g}, latency_p50_s "
        f"{statistics.median(seconds):.6g}, latency_tail_s {seconds[rank - 1]:.6g}",
    ]
    return metrics, notes


def conditions(args, passes: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "recursionlimit": sys.getrecursionlimit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def report_failures(outcomes: list[Outcome]) -> None:
    seen = Counter((o.kind, o.op.id, o.problem) for o in outcomes if o.kind != "ok")
    for (kind, op_id, problem), count in sorted(seen.items()):
        print(f"{kind} x{count}: {op_id}: {problem}")


def report_trace_agreement(plain: list[Outcome], traced: list[Outcome]) -> bool:
    agree = True
    for a, b in zip(plain, traced):
        # Only a slow run may differ: tracing adds time.
        same_kind = a.kind == b.kind or "slow" in (a.kind, b.kind)
        if not same_kind or a.digest != b.digest:
            print(f"trace mismatch: {a.op.id} was {a.kind} untraced and {b.kind} traced, or printed other output")
            agree = False
    return agree


def report_trace(runner: Runner, plain: list[Outcome], traced: list[Outcome], t: tracer.Tracer, per_op) -> tuple[dict, bool]:
    """Print what the traced pass saw; return its metrics and whether it
    agreed with the untraced pass and observed every expected span."""
    correct = report_trace_agreement(plain, traced)
    metrics, unobserved = tracer.per_layer(t)
    for name in unobserved:
        print(f"not observed: {name} (reported as 0)")
    for binding in t.missing:
        print(f"not observed: binding {binding} is missing")
    expected_missing = [s for s in runner.workload.expected_spans if not t.observed(s)]
    for span in expected_missing:
        print(f"error: span {span} saw no call on a workload that exercises it; "
              "the benchmark's bindings need updating")
        correct = False
    for (span, exc_type), count in sorted(t.errors.items()):
        print(f"errors: {exc_type} x{count} escaped {span}")
    for op_id, op_trace in per_op:
        op_metrics, _ = tracer.per_layer(op_trace)
        keys = [k for k, (v, _, span) in op_metrics.items() if span and op_trace.observed(span)]
        print(f"op {op_id}: " + ", ".join(f"{k}={op_metrics[k][0]:.6g}" for k in keys))
    return metrics, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "optpat", "cli.py")):
        print("error: no src/optpat/cli.py here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    recursion_limit = sys.getrecursionlimit()

    recording, complete = load_recording(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, runner = set_up(args.workload, args.seed, recording, complete)
        setups.append(elapsed)
    setup_s = statistics.median(setups)
    print(f"setup_s: median of {SETUP_REPEATS} set-ups {['%.4f' % s for s in setups]}")

    started = time.perf_counter()
    if args.trace:
        # Untraced, traced, untraced: drift of the machine's speed during the
        # run cancels out of the overhead.
        before = run_pass(runner, started, repeat=False)
        t = tracer.Tracer(ignore=(OpTimeout,))
        t.install(runner.cli.main)
        runner.tracer = t
        per_op: list = []
        traced = run_pass(runner, started, repeat=False, per_op=per_op)
        runner.tracer = None
        t.uninstall()
        after = run_pass(runner, started, repeat=False)
        passes = [before, traced, after]
        outcomes = before + traced + after
        plain_rate = (_rate(before) + _rate(after)) / 2 if after else _rate(before)
        overhead = plain_rate - _rate(traced)
        print(f"tracing overhead: {plain_rate:.6g} ops/s untraced, {_rate(traced):.6g} traced")
        metrics, ok = report_trace(runner, before, traced, t, per_op)
        ok = report_trace_agreement(after, traced) and ok
        metrics["trace.overhead_ops_per_s"] = (overhead, "1/s", "")
        values = {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()}
    else:
        passes, rss_mb, samples = run_passes(runner, args.seconds, started)
        outcomes = [o for p in passes for o in p]
        e2e, notes = end_to_end(outcomes, runner.workload.limit_s, setup_s, rss_mb, samples)
        print("\n".join(notes))
        ok = True
        values = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}
    for name, entry in values.items():
        print(f"{name}: {entry['value']!r} {entry['unit']}")

    report_failures(outcomes)
    if sys.getrecursionlimit() != recursion_limit:
        print(f"error: the recursion limit changed from {recursion_limit} during the run")
        ok = False
    print("conditions: " + json.dumps(conditions(args, len(passes))))
    wrong = sum(o.kind == "wrong" for o in outcomes)
    correct = wrong == 0 and ok
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.kind != "ok" for o in outcomes),
        "metrics": values,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
