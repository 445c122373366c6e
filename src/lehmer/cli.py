"""Command-line front end.

Subcommands: eval, deriv, inflect, bound, search, verify, figure-data.
Every command can emit a single JSON record (--json) whose floats carry 17
significant digits; human tables round to 9. Output is byte-deterministic
for fixed flags and seed unless --timestamp is requested.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 scan range
exhausted, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .calculus import fd_second_derivative, first_derivative, second_derivative, tilde_l
from .core import MeanSpec, lehmer, make_spec
from .errors import DomainError, RangeExhaustedError, UsageError
from .inflection import (
    InflectionReport,
    classify_n3_side,
    count_bound,
    find_inflections,
)
from .search import Cluster, LogUniform, SearchConfig, search_multi_inflection
from .verify import _FIG3_VALUES, available_scopes, run_checks


__all__ = [
    "main",
    "entry",
    "cmd_eval",
    "cmd_deriv",
    "cmd_inflect",
    "cmd_bound",
    "cmd_search",
    "cmd_verify",
    "cmd_figure_data",
]

# figure: (values, (lo, hi, step) of the p grid of its curve)
_FIGURES = {
    1: ((0.5, 2.5), (-4.0, 5.0, 0.05)),
    2: ((1.0, 2.0, 3.0), (-10.0, 10.0, 0.05)),
    3: (_FIG3_VALUES, (-500.0, 2500.0, 1.0)),
}


# ---------------------------------------------------------------------------
# serialization


def _float_text(x: float, digits: int = 17) -> str:
    if math.isnan(x) or math.isinf(x):
        return json.dumps(str(x))
    return "%.*g" % (digits, x)


def _write_json(obj, out: io.StringIO, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.write("  " * (indent + 1))
            out.write(json.dumps(str(key)))
            out.write(": ")
            _write_json(val, out, indent + 1)
            out.write(",\n" if k < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.write("[]")
            return
        out.write("[\n")
        for k, val in enumerate(obj):
            out.write("  " * (indent + 1))
            _write_json(val, out, indent + 1)
            out.write(",\n" if k < len(obj) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool):
        out.write("true" if obj else "false")
    elif isinstance(obj, int):
        out.write(str(obj))
    elif isinstance(obj, float):
        out.write(_float_text(obj))
    elif obj is None:
        out.write("null")
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj) -> str:
    out = io.StringIO()
    _write_json(obj, out, 0)
    return out.getvalue() + "\n"


def _human(x: float) -> str:
    return "%.9g" % x


def _record(command: str, inputs: dict, results: dict, warnings: list[str], args) -> dict:
    record = {
        "schema_version": "1",
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": {"warnings": list(warnings)},
    }
    if getattr(args, "timestamp", False):
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    return record


def _emit(args, record: dict, human_lines: list[str], warnings: list[str]) -> None:
    if args.json:
        text = render_json(record)
    else:
        text = "".join(line + "\n" for line in human_lines)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_values(text: str) -> tuple[list[float], list[float] | None]:
    """Inline "v1,v2,..." or "@path" with one value[,weight] per line."""
    if text.startswith("@"):
        path = text[1:]
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise UsageError(f"cannot read value file {path}: {exc}")
        values: list[float] = []
        weights: list[float] = []
        weighted = False
        for lineno, raw in enumerate(lines, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [s.strip() for s in line.split(",")]
            try:
                if len(parts) == 1:
                    values.append(float(parts[0]))
                    weights.append(1.0)
                elif len(parts) == 2:
                    values.append(float(parts[0]))
                    weights.append(float(parts[1]))
                    weighted = True
                else:
                    raise ValueError("expected value or value,weight")
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}")
        if not values:
            raise UsageError(f"{path}: no values found")
        return values, (weights if weighted else None)
    try:
        values = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad value list {text!r}: {exc}")
    if not values:
        raise UsageError("empty value list")
    return values, None


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad weight list {text!r}: {exc}")


def _parse_p_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"p-range must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(s) for s in parts)
    except ValueError as exc:
        raise UsageError(f"bad p-range {text!r}: {exc}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise UsageError("p-range bounds and step must be finite")
    if step <= 0.0:
        raise UsageError("p-range step must be positive")
    if hi < lo:
        raise UsageError("p-range upper bound is below the lower bound")
    if not (hi - lo) / step + 1e-9 < 1e6:  # the count of _range_points, before any is built
        raise UsageError(f"--p-range {text!r} gives more than 1,000,000 points")
    return lo, hi, step


def _range_points(lo: float, hi: float, step: float) -> list[float]:
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _spec_from_args(args) -> MeanSpec:
    values, file_weights = _parse_values(args.values)
    weights = file_weights
    if getattr(args, "weights", None) is not None:
        if file_weights is not None:
            raise UsageError("weights given both inline and in the value file")
        weights = _parse_weights(args.weights)
    return make_spec(values, weights)


def _spec_inputs(spec: MeanSpec) -> dict:
    return {"values": list(spec.values), "weights": list(spec.weights)}


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and reused after.

    parse_args keeps no state between calls, so one parser serves every
    main() in the process; it is not built at import.
    """
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON record instead of text")
    common.add_argument("--output", metavar="PATH", help="write the report to a file instead of stdout")
    common.add_argument("--timestamp", action="store_true",
                        help="include a wall-clock timestamp (off by default so output is reproducible)")
    # only for the commands that read them
    precision = _Parser(add_help=False)
    precision.add_argument("--precision", choices=("standard", "extended", "auto"), default="auto",
                           help="numeric precision policy for curvature computations")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for randomized commands")

    parser = _Parser(prog="lehmer", description="Lehmer mean calculator and inflection-point finder")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate the mean")
    p_eval.add_argument("-x", "--values", required=True, metavar="LIST", help="comma-separated values or @file")
    p_eval.add_argument("-w", "--weights", metavar="LIST", help="comma-separated positive weights")
    p_eval.add_argument("-p", type=float, default=None, help="exponent")
    p_eval.add_argument("--p-range", metavar="LO:HI:STEP", help="evaluate over a grid of exponents")
    p_eval.set_defaults(func=cmd_eval)

    p_deriv = sub.add_parser("deriv", parents=[common, precision], help="first or second derivative in p")
    p_deriv.add_argument("-x", "--values", required=True, metavar="LIST")
    p_deriv.add_argument("-w", "--weights", metavar="LIST")
    p_deriv.add_argument("-p", type=float, required=True)
    p_deriv.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_deriv.add_argument("--check", action="store_true",
                         help="also print a finite-difference oracle value")
    p_deriv.set_defaults(func=cmd_deriv)

    p_inflect = sub.add_parser("inflect", parents=[common, precision], help="locate all inflection points")
    p_inflect.add_argument("-x", "--values", required=True, metavar="LIST")
    p_inflect.add_argument("-w", "--weights", metavar="LIST")
    p_inflect.set_defaults(func=cmd_inflect)

    p_bound = sub.add_parser("bound", parents=[common], help="inflection-count bound for n values")
    p_bound.add_argument("n", type=int)
    p_bound.set_defaults(func=cmd_bound)

    p_search = sub.add_parser("search", parents=[common, precision, seeded],
                              help="search for means with several inflection points")
    p_search.add_argument("-n", type=int, default=4, help="number of values per trial")
    p_search.add_argument("--trials", type=int, default=1000)
    p_search.add_argument("--min-roots", type=int, default=3)
    p_search.add_argument("--distribution", choices=("cluster", "loguniform"), default="cluster")
    p_search.add_argument("--lo", type=float, default=0.1, help="loguniform lower bound")
    p_search.add_argument("--hi", type=float, default=10.0, help="loguniform upper bound")
    p_search.add_argument("--center", type=float, default=1.025, help="cluster center")
    p_search.add_argument("--spread", type=float, default=0.002, help="cluster spread")
    p_search.add_argument("--outlier-lo", type=float, default=0.9)
    p_search.add_argument("--outlier-hi", type=float, default=0.99)
    p_search.add_argument("--pin", metavar="LIST", help="skip sampling and scan exactly these values, with unit weights")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", parents=[common, seeded], help="run randomized property checks")
    p_verify.add_argument("--scope", default="all", help="one of: " + ", ".join(available_scopes()))
    p_verify.add_argument("--samples", type=int, default=None, help="override per-check sample count")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure-data", parents=[common], help="emit CSV curve data for the worked examples")
    p_fig.add_argument("figure", type=int, help="1 (pair), 2 (triple), or 3 (four values, three roots)")
    p_fig.add_argument("--output-dir", default=".", metavar="DIR")
    p_fig.set_defaults(func=cmd_figure_data)

    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args) -> int:
    spec = _spec_from_args(args)
    if args.p is not None and args.p_range:
        raise UsageError("give either -p or --p-range, not both")
    if args.p is None and not args.p_range:
        raise UsageError("one of -p or --p-range is required")
    inputs = _spec_inputs(spec)

    if args.p_range:
        lo, hi, step = _parse_p_range(args.p_range)
        inputs["p_range"] = {"lo": lo, "hi": hi, "step": step}
        rows = [(p, lehmer(spec, p)) for p in _range_points(lo, hi, step)]
        results = {"precision": "standard", "rows": [{"p": p, "value": v} for p, v in rows]}
        record = _record("eval", inputs, results, [], args)
        if args.json:
            _emit(args, record, [], [])
        else:
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["p", "mean"])
            for p, v in rows:
                writer.writerow([_float_text(p), _float_text(v)])
            _emit(args, record, out.getvalue().splitlines(), [])
        return 0

    if not math.isfinite(args.p):
        raise UsageError("exponent must be finite")
    value = lehmer(spec, args.p)
    inputs["p"] = args.p
    results = {"precision": "standard", "p": args.p, "value": value}
    record = _record("eval", inputs, results, [], args)
    _emit(args, record, [_human(value)], [])
    return 0


def cmd_deriv(args) -> int:
    spec = _spec_from_args(args)
    if not math.isfinite(args.p):
        raise UsageError("exponent must be finite")
    if args.order == 1:
        value = first_derivative(spec, args.p)
        precision = "standard"
    else:
        value = second_derivative(spec, args.p, precision=args.precision)
        precision = args.precision
    oracle = None
    if args.check:
        if args.order == 1:
            h = 1e-5 * max(1.0, abs(args.p))
            oracle = (lehmer(spec, args.p + h) - lehmer(spec, args.p - h)) / (2.0 * h)
        else:
            oracle = fd_second_derivative(spec, args.p, h=1e-4, dps=40)
    inputs = _spec_inputs(spec)
    inputs.update({"p": args.p, "order": args.order})
    results = {"precision": precision, "order": args.order, "value": value}
    if oracle is not None:
        results["finite_difference_oracle"] = oracle
    record = _record("deriv", inputs, results, [], args)
    line = _human(value) if oracle is None else f"{_human(value)}  (finite difference: {_human(oracle)})"
    _emit(args, record, [line], [])
    return 0


def _report_payload(report: InflectionReport, side: str | None) -> dict:
    payload = {
        "roots": [
            {
                "p_star": r.p_star,
                "bracket": [r.bracket[0], r.bracket[1]],
                "residual": r.residual,
                "direction": r.direction,
            }
            for r in report.roots
        ],
        "parity_ok": report.parity_ok,
        "bound_j": report.bound_j,
        "scan_range": [report.scan_range[0], report.scan_range[1]],
        "precision_used": report.precision_used,
    }
    if side is not None:
        payload["side"] = side
    return payload


def _report_lines(report: InflectionReport, side: str | None) -> list[str]:
    lines = [
        f"scan range  [{_human(report.scan_range[0])}, {_human(report.scan_range[1])}]",
        f"precision   {report.precision_used}",
        f"bound J     {report.bound_j}",
        f"roots       {len(report.roots)}",
        f"parity ok   {'yes' if report.parity_ok else 'no'}",
    ]
    for k, r in enumerate(report.roots, 1):
        lines.append(
            f"root {k}: p* = {_human(r.p_star)}  bracket [{_human(r.bracket[0])}, {_human(r.bracket[1])}]"
            f"  residual {r.residual:.3g}  {r.direction}"
        )
    if side is not None:
        lines.append(f"side        {side}")
    return lines


def cmd_inflect(args) -> int:
    spec = _spec_from_args(args)
    report = find_inflections(spec, args.precision)
    side = classify_n3_side(spec) if spec.n == 3 and spec.has_unit_weights else None
    inputs = _spec_inputs(spec)
    inputs["scan"] = {"precision_mode": args.precision}
    record = _record("inflect", inputs, _report_payload(report, side), list(report.warnings), args)
    _emit(args, record, _report_lines(report, side), list(report.warnings))
    return 0


def cmd_bound(args) -> int:
    bound = count_bound(args.n)
    record = _record("bound", {"n": args.n}, {"j": bound.j, "n_terms": bound.n_terms}, [], args)
    _emit(args, record, [f"J = {bound.j}  (from {bound.n_terms} terms)"], [])
    return 0


def cmd_search(args) -> int:
    if args.distribution == "cluster":
        distribution = Cluster(center=args.center, spread=args.spread,
                               outlier_lo=args.outlier_lo, outlier_hi=args.outlier_hi)
    else:
        distribution = LogUniform(args.lo, args.hi)
    pinned = None
    if args.pin:
        pinned_values, file_weights = _parse_values(args.pin)
        if file_weights is not None:
            raise UsageError("--pin takes values only; the value file gives weights, which search does not scan")
        pinned = tuple(pinned_values)
    trials_run = 1 if pinned is not None else args.trials
    config = SearchConfig(
        n=len(pinned) if pinned is not None else args.n,
        trials=trials_run,
        seed=args.seed,
        values=distribution,
        min_roots=args.min_roots,
        precision=args.precision,
        pinned_values=pinned,
    )
    hits = search_multi_inflection(config)
    best = max((len(h.report.roots) for h in hits), default=0)
    inputs = {"n": config.n, "trials": trials_run, "seed": args.seed,
              "min_roots": args.min_roots,
              "distribution": {"kind": args.distribution, **dataclasses.asdict(distribution)}}
    if pinned is not None:
        inputs["pinned_values"] = list(pinned)
    warnings: list[str] = []
    hit_payload = []
    for hit in hits:
        hit_payload.append({
            "trial": hit.trial_index,
            "values": list(hit.spec.values),
            "weights": list(hit.spec.weights),
            "roots": [r.p_star for r in hit.report.roots],
            "parity_ok": hit.report.parity_ok,
            "precision_used": hit.report.precision_used,
        })
        warnings.extend(hit.report.warnings)
    results = {"trials": trials_run, "hit_count": len(hit_payload),
               "best_root_count": best, "hits": hit_payload}
    record = _record("search", inputs, results, warnings, args)
    lines = [f"trials={trials_run} hits={len(hit_payload)} best_root_count={best}"]
    for h in hit_payload:
        roots = ", ".join(_human(p) for p in h["roots"])
        values = ", ".join(_human(v) for v in h["values"])
        lines.append(f"trial {h['trial']}: values [{values}] roots [{roots}]")
    _emit(args, record, lines, warnings)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(scope=args.scope, seed=args.seed, samples=args.samples)
    failed = [r for r in results if not r.passed]
    payload = {
        "scope": args.scope,
        "seed": args.seed,
        "passed": not failed,
        "checks": [
            {"name": r.name, "passed": r.passed, "samples": r.samples, "detail": r.detail}
            for r in results
        ],
    }
    record = _record("verify", {"scope": args.scope, "seed": args.seed}, payload, [], args)
    lines = [f"seed = {args.seed}"]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        suffix = f": {r.detail}" if r.detail else ""
        lines.append(f"{mark} {r.name} (samples={r.samples}){suffix}")
    lines.append("all checks passed" if not failed else f"{len(failed)} check(s) failed")
    _emit(args, record, lines, [])
    return 0 if not failed else 4


def _marked_rows(row, points: list[float], roots: list[float]) -> list[tuple]:
    """(p, *row(p), is_root) at the grid points (0) and the roots (1), sorted by p."""
    rows = [(p, *row(p), 0) for p in points] + [(p, *row(p), 1) for p in roots]
    rows.sort(key=lambda r: (r[0], r[-1]))
    return rows


def _write_curve_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_float_text(v) if isinstance(v, float) else str(v) for v in row])


def cmd_figure_data(args) -> int:
    if args.figure not in _FIGURES:
        raise UsageError(f"unknown figure {args.figure}; choose 1, 2, or 3")
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values, p_range = _FIGURES[args.figure]
    spec = make_spec(list(values))
    report = find_inflections(spec)
    roots = [r.p_star for r in report.roots]
    path = out_dir / f"figure{args.figure}.csv"
    rows = _marked_rows(lambda p: (lehmer(spec, p), second_derivative(spec, p)), _range_points(*p_range), roots)
    _write_curve_csv(path, ["p", "mean", "second_derivative", "is_root"], rows)
    files = [str(path)]
    if args.figure == 2:
        k = tilde_l(spec, 1.0)

        def scaled(p: float) -> tuple[float, float]:
            t = tilde_l(spec, p)
            return t, t - k

        tilde_path = out_dir / "figure2_tilde.csv"
        _write_curve_csv(tilde_path, ["p", "scaled_curvature", "scaled_curvature_minus_k", "is_root"],
                         _marked_rows(scaled, _range_points(-2.0, 4.0, 0.01), roots))
        files.append(str(tilde_path))
    warnings = list(report.warnings)
    inputs = {"figure": args.figure, "output_dir": str(out_dir)}
    results = {"files": files, "roots": roots, "precision": "auto"}
    record = _record("figure-data", inputs, results, warnings, args)
    lines = [f"wrote {f}" for f in files]
    lines.append("roots: " + (", ".join(_human(p) for p in roots) if roots else "none"))
    _emit(args, record, lines, warnings)
    return 0


# ---------------------------------------------------------------------------
# entry points


# options whose value can legitimately begin with "-" (negative bounds,
# negative exponent lists); argparse would otherwise read the value as a flag
_DASH_VALUE_LONG = ("--p-range", "--values", "--weights", "--pin")
_DASH_VALUE_SHORT = ("-x", "-w")


def _merge_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if k + 1 < len(argv) and argv[k + 1].startswith("-"):
            if tok in _DASH_VALUE_LONG:
                out.append(f"{tok}={argv[k + 1]}")
                k += 2
                continue
            if tok in _DASH_VALUE_SHORT:
                out.append(tok + argv[k + 1])
                k += 2
                continue
        out.append(tok)
        k += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_dash_values(list(argv)))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RangeExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report is not None:
            found = len(exc.report.roots)
            lo, hi = exc.report.scan_range
            print(f"partial scan over [{_human(lo)}, {_human(hi)}] found {found} root(s)", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
