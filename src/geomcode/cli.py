"""Batch command-line interface.

Subcommands: construct | analyze | random-code | simulate.  Each command
writes one ``<out>.manifest.json`` beside its ``--out`` file, recording the
command, its full parameter map, the tool version and the SHA-256 of every
file it wrote (for ``construct --labels``, the labels file too), so a run
can be reproduced and verified byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__, constructions
from .alist import read_alist, write_alist
from .constructions import HyperbolicLabel, IncidenceStructure
from .fields import check_field, field_from_string, parse_field_spec
from .gf2 import brouwer_predict
from .metrics import six_cycles, tanner_bounds, tanner_girth
from .sim import (ChannelConfig, LdpcCode, PointStats, SumProductDecoder, noise_sigma,
                  random_regular_h, simulate_point)
from .srpg import (
    AxiomViolation,
    check_gpg_axioms,
    check_strongly_regular,
    feasibility_check,
    spectrum,
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, command: str, params: dict, *also: Path) -> None:
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "outputs": {path.name: _sha256(path) for path in (out, *also)},
    }
    Path(f"{out}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _parse_modulus(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"bad modulus {text!r}; expected comma-separated integers") from None


# family -> the names in .constructions of its builder and of its label
# function, looked up at each call so that a wrapper bound there is called
FAMILIES = {
    "conic": ("build_conic_structure", "conic_labels"),
    "hyperbolic": ("build_hyperbolic_structure", "hyperbolic_labels"),
}


def _build_structure(family: str, field_spec: str, modulus: str | None) -> IncidenceStructure:
    modulus = _parse_modulus(modulus)
    p, k = parse_field_spec(field_spec)
    check_field(p, k, modulus)
    constructions.refuse_oversize(family, p, k)  # before the field's tables are built
    build = getattr(constructions, FAMILIES[family][0])
    return build(field_from_string(field_spec, modulus))


MAX_EBNO_POINTS = 10_000  # a longer grid is refused before it is listed in full


def parse_ebno_grid(text: str) -> tuple[float, ...]:
    """Grid string "start:step:stop", inclusive of stop within half a step.

    Rejects non-finite values, grids with no point, grids whose points
    repeat once rounded (each point keys its own RNG stream), and grids of
    more than MAX_EBNO_POINTS points.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"bad Eb/N0 grid {text!r}; expected start:step:stop")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad Eb/N0 grid {text!r}; values must be numbers") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bad Eb/N0 grid {text!r}; values must be finite")
    if len(values) == 1:
        return (values[0],)
    start, step, stop = values
    if step <= 0:
        raise ValueError("Eb/N0 grid step must be positive")
    vals = []
    i = 0
    while True:
        x = start + i * step
        if x > stop + step / 2:
            break
        vals.append(round(x, 9))
        # rounding keeps the order, so a repeat is the point before it: stop
        # there rather than after the 10^10 points of a grid like 0:1e-10:1
        if len(vals) > 1 and vals[-1] == vals[-2]:
            raise ValueError(f"bad Eb/N0 grid {text!r}; points repeat after rounding to 9 decimals")
        if len(vals) > MAX_EBNO_POINTS:
            raise ValueError(f"bad Eb/N0 grid {text!r}; more than {MAX_EBNO_POINTS:,} points")
        i += 1
    if not vals:
        raise ValueError(f"Eb/N0 grid {text!r} is empty: stop lies below start")
    return tuple(vals)


def build_analysis_report(ic: IncidenceStructure) -> dict:
    """Run every structural check and collect the results in one document."""
    report: dict = {
        "family": ic.family,
        "q": ic.field.q if ic.field is not None else None,
        "v": ic.v,
        "n": ic.n,
        "degenerate": ic.degenerate,
    }
    report["failures"] = _file_stages(ic, report)
    report["checks_passed"] = not report["failures"]
    code = LdpcCode.from_structure(ic, report.get("rank2_MMT"))
    girth = tanner_girth(ic)
    report.update({
        "rank2_M": code.n - code.dimension,
        "dimension": code.dimension, "rate": code.rate,
        "simulable": code.refusal() is None,
        "girth": None if math.isinf(girth) else int(girth),
    })
    return report


def _file_stages(ic: IncidenceStructure, report: dict) -> list[str]:
    """File the result of each stage of the analysis in `report`, in
    dependency order, and return the failures.  A stage runs once its inputs
    are established: the pass ends at a failure that leaves a later stage
    without its input."""
    try:
        params = check_gpg_axioms(ic)
    except AxiomViolation as exc:
        report["axioms"] = {"pass": False, "violated": exc.axiom, "witness": list(exc.witness)}
        return [str(exc)]
    report["axioms"] = {"pass": True}
    report["s"], report["t"] = params.s, params.t
    report["alphas"] = list(params.alphas)
    report["grade"] = params.grade
    if ic.degenerate:
        report["notice"] = ("structure is degenerate (edgeless point graph); "
                            "strong-regularity analysis skipped")
        return []

    try:
        v, k, lam, mu = check_strongly_regular(ic)
    except ValueError as exc:
        report["srg"] = {"error": str(exc)}
        return [str(exc)]
    report["srg"] = {"k": k, "lambda": lam, "mu": mu}
    failures = []

    report["rank2_MMT"] = ic.gram_rank  # the axioms hold, so M M^T = A + (t+1)I
    cyc = six_cycles(ic, params, lam)
    report["six_cycles"] = {"formula": cyc.six_cycle_formula,
                            "enumerated": cyc.six_cycle_enumerated}
    if cyc.six_cycle_formula != cyc.six_cycle_enumerated:
        failures.append("six-cycle formula disagrees with enumeration")

    feas = feasibility_check(v, k, lam, mu, params.s, params.t)
    report["feasibility"] = [{"condition": name, "pass": ok, "detail": detail}
                             for name, ok, detail in feas.conditions]
    if not feas.all_ok:
        failed = ", ".join(name for name, ok, _ in feas.conditions if not ok)
        return [*failures, f"feasibility conditions failed: {failed}"]

    # feasible: the multiplicities are integral and mu > 0
    spec = spectrum(v, k, lam, mu, params.s, params.t)
    report["spectrum"] = {key: getattr(spec, key) for key in
                          ("delta", "u1", "u2", "f1", "f2", "theta0", "theta1", "theta2")}
    pred = brouwer_predict(spec)
    report["rank_prediction"] = {"kind": pred.kind, "value": pred.value, "case": pred.case_tag}
    if pred.kind == "exact" and pred.value != report["rank2_MMT"]:
        failures.append(f"rank prediction {pred.value} != eliminated rank {report['rank2_MMT']}")
    # mu > 0 gives diameter 2, so the point graph is connected and theta0 > theta1
    bounds = tanner_bounds(params.n, params.s + 1, params.t + 1, spec.theta0, spec.theta1)
    report["distance_bounds"] = {
        "bit_oriented": str(bounds.bit_oriented),
        "parity_oriented": str(bounds.parity_oriented),
        "effective": bounds.effective,
        "vacuous": bounds.vacuous,
    }
    return failures


def _cmd_construct(args: argparse.Namespace) -> int:
    ic = _build_structure(args.family, args.field, args.modulus)
    out = Path(args.out)
    labels = [Path(args.labels)] if args.labels else []
    write_alist(ic.matrix, out)
    if labels:
        points, blocks = getattr(constructions, FAMILIES[args.family][1])(ic.field)
        # tuples go out as arrays, a hyperbolic block as {"B": ..., "C": ...}
        blocks = [b._asdict() if isinstance(b, HyperbolicLabel) else b for b in blocks]
        labels[0].write_text(json.dumps(
            {"points": points, "blocks": blocks}, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out, "construct", {
        "family": args.family, "field": args.field, "modulus": args.modulus,
        "labels": args.labels,
    }, *labels)
    print(f"wrote {ic.v}x{ic.n} incidence matrix to {out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.infile:
        ic = IncidenceStructure("file", None, read_alist(args.infile))
        params_for_manifest = {"in": args.infile}
    else:
        ic = _build_structure(args.family, args.field, args.modulus)
        params_for_manifest = {
            "family": args.family, "field": args.field, "modulus": args.modulus,
        }
    report = build_analysis_report(ic)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out, "analyze", params_for_manifest)
    status = "ok" if report["checks_passed"] else "FAILED"
    print(f"analysis {status}: {out}")
    if not report["checks_passed"]:
        print(json.dumps(report["failures"]), file=sys.stderr)
        return 1
    return 0


def _cmd_random_code(args: argparse.Namespace) -> int:
    code = random_regular_h(args.rows, args.cols, args.wcol, args.wrow, args.seed)
    out = Path(args.out)
    write_alist(code.h, out)
    _write_manifest(out, "random-code", {
        "rows": args.rows, "cols": args.cols, "wcol": args.wcol,
        "wrow": args.wrow, "seed": args.seed,
    })
    if not code.four_cycle_free:
        print("warning: retry cap exceeded, matrix contains 4-cycles", file=sys.stderr)
    print(f"wrote {args.rows}x{args.cols} ({args.wcol},{args.wrow})-regular matrix to {out}")
    return 0


def _format_csv(points: list[PointStats]) -> str:
    lines = ["ebn0_db,frames,bit_errors,frame_errors,ber,fer,mean_iters,ci_low,ci_high"]
    for p in points:
        lines.append(
            f"{p.ebn0_db:.6g},{p.frames},{p.bit_errors},{p.frame_errors},"
            f"{p.ber:.6g},{p.fer:.6g},{p.mean_iterations:.6g},"
            f"{p.ci_low:.6g},{p.ci_high:.6g}"
        )
    return "\n".join(lines) + "\n"


def _resolve_threads(value: int | None) -> int:
    """--threads, else every core."""
    if value is None:
        return os.cpu_count() or 1
    if value < 1:
        raise ValueError(f"thread count must be at least 1, got {value}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    grid = parse_ebno_grid(args.ebno)
    cfg = ChannelConfig(
        ebn0_db_list=grid,
        max_iterations=args.max_iters,
        min_frame_errors=args.min_frame_errors,
        max_frames=args.max_frames,
        seed=args.seed,
    )
    workers = min(_resolve_threads(args.threads), len(grid))
    h = read_alist(args.infile)
    # each worker builds one decoder; refused before the rank of h is taken
    constructions.refuse_peak(workers * SumProductDecoder.peak_bytes(h),
                              f"decoding the {h.nrows:,} x {h.cols:,} code in {workers} worker(s)")
    code = LdpcCode.from_structure(IncidenceStructure("file", None, h))
    reason = code.refusal()
    if reason is not None:
        print(f"refusing to simulate: {reason}", file=sys.stderr)
        return 2
    for ebn0 in grid:                   # a point with no finite noise fails before any frame
        noise_sigma(ebn0, code.rate)
    sweep = functools.partial(simulate_point, code, cfg)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(sweep, range(len(grid))))
    else:
        points = list(map(sweep, range(len(grid))))
    out = Path(args.out)
    out.write_text(_format_csv(points), encoding="utf-8")
    _write_manifest(out, "simulate", {
        "in": args.infile, "ebno": args.ebno, "seed": args.seed,
        "max_iters": args.max_iters, "min_frame_errors": args.min_frame_errors,
        "max_frames": args.max_frames,
    })
    print(f"wrote {len(points)} BER points to {out}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomcode",
        description="Quadric incidence geometries and their regular LDPC codes",
    )
    parser.add_argument("--version", action="version", version=f"geomcode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an incidence matrix and write it as alist")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--field", required=True, help='field spec "p" or "p^k"')
    p.add_argument("--modulus", help="comma-separated modulus coefficients, constant term first")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="also write point/block labels as JSON arrays")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="run all structural checks, write a JSON report")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--field", help='field spec "p" or "p^k"')
    p.add_argument("--modulus")
    p.add_argument("--in", dest="infile", help="alist file to analyze instead of a family")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("random-code", help="Gallager-style random regular parity-check matrix")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--wcol", type=int, required=True)
    p.add_argument("--wrow", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_random_code)

    p = sub.add_parser("simulate", help="Monte Carlo BER sweep over an AWGN channel")
    p.add_argument("--in", dest="infile", required=True, help="alist parity-check matrix")
    p.add_argument("--ebno", required=True, help='grid "start:step:stop" in dB, or single value')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--min-frame-errors", type=int, default=100)
    p.add_argument("--max-frames", type=int, default=100_000)
    p.add_argument("--threads", type=int, help="worker processes (default: all cores)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        if args.infile and (args.family or args.field or args.modulus):
            parser.error("analyze takes --in FILE or --family and --field, not both")
        if not args.infile and not (args.family and args.field):
            parser.error("analyze needs either --in FILE or both --family and --field")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
