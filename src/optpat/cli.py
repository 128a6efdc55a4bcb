"""Command-line front end.

Subcommands: eval, classify, subsumes, contains, equiv, reduce, witness,
tile, pipeline. Global flags (before the subcommand): --json for machine
output, --out for the artifact directory. Every command is deterministic.

Exit codes: 0 success / property holds / nothing found within budget,
1 violated or failed verification, 2 parse/IO/usage errors and internal
failures, 3 no periodic tiling found within bounds (witness, pipeline).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from typing import Callable, NoReturn, TypeVar

import click

from . import analysis, reduction, tiling
from .core import parse_graph, serialize_graph
from .evaluation import evaluate
from .pattern import (
    Opt,
    Pattern,
    is_weakly_well_designed,
    is_well_designed,
    parse_pattern,
    pattern_vars,
    serialize_pattern,
)


def _fail(message: str, code: int = 2) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_text(path: str) -> str:
    """UTF-8 text with universal newlines, as text mode reads it, in fewer system calls."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        _fail(str(exc))
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


T = TypeVar("T")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Parse a file; a parse error exits 2 with the path in the message."""
    try:
        return parse(_read_text(path))
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _write_files(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write UTF-8 files into `out_dir`, made once; their paths, in order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in files]
    for path, data in zip(paths, files.values()):
        with open(path, "wb") as handle:
            handle.write(data.encode("utf-8"))
    return paths


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _report(ctx: click.Context, document, paths: list[str], before=(), after=()) -> None:
    """With --json, the document on stdout and a `wrote` line per path on
    stderr; otherwise the text lines, with the `wrote` lines between them,
    on stdout."""
    if ctx.obj["json"]:
        click.echo(json.dumps(document, indent=2, sort_keys=True))
        for path in paths:
            click.echo(f"wrote {path}", err=True)
    else:
        for line in [*before, *(f"wrote {path}" for path in paths), *after]:
            click.echo(line)


class _Group(click.Group):
    """Reports an unexpected exception as one line with exit 2, so a crash
    never reads as exit 1 ("violated"), with or without standalone mode."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            if isinstance(exc, OSError) and exc.errno == errno.EPIPE:
                raise
            message = " ".join(str(exc).split())
            _fail(f"internal: {type(exc).__name__}" + (f": {message}" if message else ""))


@click.group(cls=_Group)
@click.option("--json", "as_json", is_flag=True, help="Emit machine-readable JSON on stdout.")
@click.option(
    "--out",
    "out_dir",
    type=click.Path(file_okay=False),
    default=".",
    show_default=True,
    help="Directory for written artifacts.",
)
@click.pass_context
def main(ctx: click.Context, as_json: bool, out_dir: str) -> None:
    """Workbench for the OPT fragment of SPARQL."""
    ctx.obj = {"json": as_json, "out": out_dir}


@main.command("eval")
@click.argument("graph_path", type=click.Path(exists=False))
@click.argument("pattern_path", type=click.Path(exists=False))
@click.pass_context
def cmd_eval(ctx: click.Context, graph_path: str, pattern_path: str) -> None:
    """Evaluate a pattern file over a graph file; one solution per row."""
    g = _load(graph_path, parse_graph)
    p = _load(pattern_path, parse_pattern)
    rows = evaluate(p, g).to_jsonable()
    if ctx.obj["json"]:
        click.echo(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            click.echo(json.dumps(row, sort_keys=True))


@main.command("classify")
@click.argument("pattern_path", type=click.Path(exists=False))
@click.pass_context
def cmd_classify(ctx: click.Context, pattern_path: str) -> None:
    """Report the well-designedness class of a pattern file."""
    p = _load(pattern_path, parse_pattern)
    report = {
        "well_designed": is_well_designed(p),
        "weakly_well_designed": is_weakly_well_designed(p),
    }
    if ctx.obj["json"]:
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(f"well_designed: {str(report['well_designed']).lower()}")
        click.echo(f"weakly_well_designed: {str(report['weakly_well_designed']).lower()}")


_NONNEGATIVE = click.IntRange(min=0)
_POSITIVE = click.IntRange(min=1)


def _budget_options(fn):
    fn = click.option("--max-triples", type=_NONNEGATIVE, default=3, show_default=True)(fn)
    fn = click.option(
        "--max-fresh",
        type=_NONNEGATIVE,
        default=None,
        help="Fresh IRIs for the search [default: one per pattern variable].",
    )(fn)
    fn = click.option("--max-candidates", type=_NONNEGATIVE, default=100_000, show_default=True)(fn)
    return fn


def _run_relation_command(
    ctx: click.Context,
    p_path: str,
    p2_path: str,
    on_graph: str | None,
    max_triples: int,
    max_fresh: int | None,
    max_candidates: int,
    check,
    find,
) -> None:
    p = _load(p_path, parse_pattern)
    p2 = _load(p2_path, parse_pattern)
    if on_graph is not None:
        verdict = check(p, p2, _load(on_graph, parse_graph))
    else:
        fresh = max_fresh if max_fresh is not None else len(pattern_vars(p) | pattern_vars(p2))
        verdict = find(p, p2, analysis.SearchBudget(max_triples, fresh, max_candidates))

    lines = [f"status: {verdict.status.value}"]
    if verdict.candidates_examined is not None:
        lines.append(f"candidates_examined: {verdict.candidates_examined}")
    written: list[str] = []
    if verdict.witness is not None:
        graph, mapping = verdict.witness
        bindings = mapping.to_jsonable()
        lines.append(f"witness_mapping: {json.dumps(bindings, sort_keys=True)}")
        files = {"counterexample.nt": serialize_graph(graph)}
        files["counterexample_mapping.json"] = _dumps(bindings)
        written = _write_files(ctx.obj["out"], files)
    # The verdict's JSON repeats the witness graph's text; build it only when printed.
    document = verdict.to_jsonable() if ctx.obj["json"] else None
    _report(ctx, document, written, lines)
    sys.exit(0 if verdict.witness is None else 1)


def _relation_command(name: str, help_text: str, check, find):
    @main.command(name, help=help_text)
    @click.argument("p_path", type=click.Path(exists=False))
    @click.argument("p2_path", type=click.Path(exists=False))
    @click.option(
        "--on-graph",
        type=click.Path(exists=False),
        default=None,
        help="Check on this single graph instead of searching.",
    )
    @_budget_options
    @click.pass_context
    def command(ctx, p_path, p2_path, on_graph, max_triples, max_fresh, max_candidates):
        _run_relation_command(
            ctx, p_path, p2_path, on_graph, max_triples, max_fresh, max_candidates, check, find
        )

    return command


_relation_command(
    "subsumes",
    "Search for a graph where some solution of P has no extension among P2's.",
    analysis.check_subsumed_on,
    analysis.find_subsumption_counterexample,
)
_relation_command(
    "contains",
    "Search for a graph where P has a solution that P2 lacks.",
    analysis.check_contained_on,
    analysis.find_containment_counterexample,
)
_relation_command(
    "equiv",
    "Search for a graph where P and P2 have different solution sets.",
    analysis.check_equivalent_on,
    analysis.find_equivalence_counterexample,
)


def _opt_nodes(p: Pattern) -> int:
    count, stack = 0, [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Opt):
            count += 1
            stack += (node.left, node.right)
    return count


def _reduction_manifest(inst: tiling.TilingInstance, p_prime: Pattern, files: dict[str, str]) -> dict:
    return {
        "instance": tiling.instance_to_jsonable(inst),
        "tile_iris": {t: iri.name for t, iri in reduction.tile_iri_map(inst).items()},
        "counts": {
            "tiles": len(inst.tiles),
            "h_incompatible": len(inst.h_incompatible()),
            "v_incompatible": len(inst.v_incompatible()),
            "opt_nodes": _opt_nodes(p_prime),
        },
        "files": {name: {"sha256": _sha256(data)} for name, data in files.items()},
    }


def _emit_reduction(inst: tiling.TilingInstance) -> tuple[Pattern, Pattern, dict[str, str]]:
    """P and P′, built once per command, and their pretty text files."""
    p, p_prime = reduction.build_p(inst), reduction.build_p_prime(inst)
    files = {"P.sp": serialize_pattern(p, pretty=True)}
    files["Pprime.sp"] = serialize_pattern(p_prime, pretty=True)
    return p, p_prime, files


@main.command("reduce")
@click.argument("instance_path", type=click.Path(exists=False))
@click.pass_context
def cmd_reduce(ctx: click.Context, instance_path: str) -> None:
    """Compile an instance to the pattern pair P.sp / Pprime.sp plus manifest."""
    inst = _load(instance_path, tiling.parse_instance)
    _, p_prime, files = _emit_reduction(inst)
    manifest = _reduction_manifest(inst, p_prime, files)
    files["manifest.json"] = _dumps(manifest)
    paths = _write_files(ctx.obj["out"], files)
    counts = manifest["counts"]
    summary = (
        f"tiles: {counts['tiles']}  h_incompatible: {counts['h_incompatible']}  "
        f"v_incompatible: {counts['v_incompatible']}  opt_nodes: {counts['opt_nodes']}"
    )
    _report(ctx, manifest, paths, after=[summary])


def _obtain_tiling(
    inst: tiling.TilingInstance, tiling_path: str | None, max_period: int
) -> tiling.PeriodicTiling | None:
    if tiling_path is not None:
        try:
            pt = tiling.periodic_from_jsonable(json.loads(_read_text(tiling_path)))
            if not tiling.verify_periodic(inst, pt):
                _fail(f"{tiling_path}: tiling does not verify against the instance")
        except ValueError as exc:
            _fail(f"{tiling_path}: {exc}")
        return pt
    return tiling.find_periodic(inst, max_period, max_period)


def _witness_files(
    inst: tiling.TilingInstance, pt: tiling.PeriodicTiling, p: Pattern, p_prime: Pattern
) -> tuple[dict[str, str], tiling.PeriodicTiling, bool]:
    used = tiling.replicate_to(pt, 2, 2)
    pair = reduction.build_witness(inst, used)
    verified = reduction.verify_witness(p, p_prime, pair)
    files = {
        "G.nt": serialize_graph(pair.graph),
        "mu.json": _dumps(pair.mapping.to_jsonable()),
        "tiling.json": _dumps(tiling.periodic_to_jsonable(used)),
    }
    return files, used, verified


@main.command("witness")
@click.argument("instance_path", type=click.Path(exists=False))
@click.option("--tiling", "tiling_path", type=click.Path(exists=False), default=None,
              help="Use this periodic tiling JSON instead of searching.")
@click.option("--max-period", type=_POSITIVE, default=6, show_default=True)
@click.pass_context
def cmd_witness(ctx: click.Context, instance_path: str, tiling_path: str | None, max_period: int) -> None:
    """Build and verify the non-subsumption witness for an instance."""
    inst = _load(instance_path, tiling.parse_instance)
    pt = _obtain_tiling(inst, tiling_path, max_period)
    if pt is None:
        click.echo(f"no periodic tiling with p <= {max_period}, q <= {max_period}", err=True)
        sys.exit(3)
    p, p_prime = reduction.build_p(inst), reduction.build_p_prime(inst)
    files, used, verified = _witness_files(inst, pt, p, p_prime)
    paths = _write_files(ctx.obj["out"], files)
    document = {
        "verified": verified,
        "p": used.p,
        "q": used.q,
        "files": {name: {"sha256": _sha256(data)} for name, data in files.items()},
    }
    _report(
        ctx,
        document,
        paths,
        before=[f"periodic tiling: p={used.p} q={used.q}"],
        after=[f"verified: {str(verified).lower()}"],
    )
    sys.exit(0 if verified else 1)


@main.command("tile")
@click.argument("instance_path", type=click.Path(exists=False))
@click.option("--find-periodic", "mode_periodic", is_flag=True)
@click.option("--certify-untileable", "mode_certify", is_flag=True)
@click.option("--max-period", type=_POSITIVE, default=6, show_default=True)
@click.option("--max-n", type=_POSITIVE, default=6, show_default=True)
@click.pass_context
def cmd_tile(
    ctx: click.Context,
    instance_path: str,
    mode_periodic: bool,
    mode_certify: bool,
    max_period: int,
    max_n: int,
) -> None:
    """Search for a periodic tiling, or certify untileability."""
    if mode_periodic == mode_certify:
        raise click.UsageError("pass exactly one of --find-periodic / --certify-untileable")
    inst = _load(instance_path, tiling.parse_instance)
    if mode_periodic:
        pt = tiling.find_periodic(inst, max_period, max_period)
        if ctx.obj["json"]:
            click.echo(
                json.dumps(
                    {"periodic": tiling.periodic_to_jsonable(pt) if pt else None},
                    indent=2,
                    sort_keys=True,
                )
            )
        elif pt is None:
            click.echo(f"no periodic tiling with p <= {max_period}, q <= {max_period}")
        else:
            click.echo(f"periodic tiling found: p={pt.p} q={pt.q}")
            click.echo(f"grid: {json.dumps([list(row) for row in pt.rows])}")
    else:
        n = tiling.certify_untileable(inst, max_n)
        if ctx.obj["json"]:
            click.echo(json.dumps({"untileable_certificate": n}, indent=2, sort_keys=True))
        elif n is None:
            click.echo(f"no untileability certificate with n <= {max_n}")
        else:
            click.echo(f"untileable: no {n}x{n} rectangle tiling exists")


@main.command("pipeline")
@click.argument("instance_path", type=click.Path(exists=False))
@click.option("--max-period", type=_POSITIVE, default=6, show_default=True)
@click.option("--max-n", type=_POSITIVE, default=6, show_default=True)
@click.pass_context
def cmd_pipeline(ctx: click.Context, instance_path: str, max_period: int, max_n: int) -> None:
    """Chain reduce, tiling search, witness construction, and verification."""
    inst = _load(instance_path, tiling.parse_instance)
    p, p_prime, files = _emit_reduction(inst)
    pt = tiling.find_periodic(inst, max_period, max_period)
    verified: bool | None = None
    certificate: int | None = None
    used: tiling.PeriodicTiling | None = None
    if pt is not None:
        witness_files, used, verified = _witness_files(inst, pt, p, p_prime)
        files.update(witness_files)
    else:
        certificate = tiling.certify_untileable(inst, max_n)

    manifest = _reduction_manifest(inst, p_prime, files)
    manifest["periodic_tiling"] = tiling.periodic_to_jsonable(used) if used else None
    manifest["untileable_certificate"] = certificate
    manifest["verified"] = verified
    files["manifest.json"] = _dumps(manifest)
    paths = _write_files(ctx.obj["out"], files)

    if pt is None:
        after = [f"no periodic tiling with p <= {max_period}, q <= {max_period}"]
        if certificate is not None:
            after.append(f"untileable: no {certificate}x{certificate} rectangle tiling exists")
    else:
        after = [f"periodic tiling: p={used.p} q={used.q}", f"verified: {str(verified).lower()}"]
    _report(ctx, manifest, paths, after=after)
    if pt is None:
        sys.exit(3)
    sys.exit(0 if verified else 1)


if __name__ == "__main__":
    main()
