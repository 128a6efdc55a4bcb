"""Record the expected output of every op at the default seed.

    python3 perfbench/record.py

Run it from the repository root. It runs one pass of each workload and
writes expected.json: each op's exit code and the sha256 of its stdout and
of every artifact. A known defect that fails gets no digest, only the
exception it raised or the problem its check found. Before an output is
recorded, every violated verdict is re-checked once with the enumeration evaluator
`optpat.evaluation.evaluate_oracle`, which shares no code with the engine, so
the recording does not rest on the engine's word alone. Graphs whose
enumeration exceeds the oracle's cap are listed as not re-checked.

The benchmark itself never imports the oracle; only recording does.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def _mapping(obj: dict):
    from optpat.core import Iri, Mapping, Var

    return Mapping({Var(k.lstrip("?")): Iri(v) for k, v in obj.items()})


def oracle_verdict(op: workloads.Op, res: workloads.Result) -> str:
    """Re-check a violation with the enumeration oracle."""
    from optpat.core import parse_graph, subsumed_mapping
    from optpat.evaluation import OracleBudgetError, evaluate_oracle
    from optpat.pattern import parse_pattern

    command, left, right = op.args[2:5]
    with open(left, encoding="utf-8") as handle:
        p = parse_pattern(handle.read())
    with open(right, encoding="utf-8") as handle:
        p2 = parse_pattern(handle.read())
    g = parse_graph(res.files["counterexample.nt"].decode("utf-8"))
    m = _mapping(json.loads(res.files["counterexample_mapping.json"]))
    try:
        mine, theirs = evaluate_oracle(p, g), evaluate_oracle(p2, g)
    except OracleBudgetError:
        return "over_cap"
    if command == "subsumes":
        holds = m in mine and not any(subsumed_mapping(m, other) for other in theirs.mappings)
    elif command == "contains":
        holds = m in mine and m not in theirs
    else:
        holds = (m in mine) != (m in theirs)
    return "confirmed" if holds else "refuted"


def record(name: str) -> tuple[dict, list[str]]:
    _, runner = run.set_up(name, workloads.DEFAULT_SEED, None, False)
    entries: dict[str, dict] = {}
    problems: list[str] = []
    for op in runner.workload.ops:
        res = runner.execute(op)
        if res.exc is not None:
            if not op.known_defect:
                problems.append(f"{op.id} raised {type(res.exc).__name__} but is not a known defect")
            entries[op.id] = {"raised": type(res.exc).__name__}
            continue
        outcome = runner.judge(op, res)
        if outcome.kind != "ok":
            if not op.known_defect:
                problems.append(f"{op.id}: {outcome.kind}: {outcome.problem}")
            # No digest: once the defect is fixed, the op's correct output is
            # judged by its property checks, not against this failure.
            entries[op.id] = {"failed": outcome.problem}
            continue
        entry = outcome.digest
        if res.code == 1 and "counterexample.nt" in res.files:
            entry["oracle"] = oracle_verdict(op, res)
            if entry["oracle"] == "refuted":
                problems.append(f"{op.id}: the oracle refutes the reported violation")
        entries[op.id] = entry
    return entries, problems


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    data = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    failed = False
    for name in sorted(workloads.BUILDERS):
        entries, problems = record(name)
        data["workloads"][name] = entries
        oracle = [e.get("oracle") for e in entries.values() if "oracle" in e]
        print(f"{name}: {len(entries)} ops, "
              f"{sum(1 for e in entries.values() if 'exit' not in e)} known defects failed, "
              f"{oracle.count('confirmed')} violations confirmed by the oracle, "
              f"{oracle.count('over_cap')} over its cap")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    if failed:
        print("not recorded: fix the problems above first", file=sys.stderr)
        return 1
    with open(run.RECORDING, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(run.RECORDING)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
