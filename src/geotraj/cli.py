"""Command-line interface.

Subcommands:
  evaluate  run the full evaluation for one sequence, write the report bundle
  match     build and export the shared visit table only
  drift     aggregate drift samples across report.json files and fit
  synth     generate a synthetic scenario bundle from a spec JSON
  convert   one-shot coordinate conversion for debugging

The output directory from the config can be overridden with --out or the
GEOTRAJ_OUT environment variable (flag wins). Exit code 0 means no error;
failures map to stable per-class codes (see EXIT_CODES).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .config import load_run_config
from .drift import DEFAULT_EPS0, DriftSample, drift_report, fit_drift
from .errors import (AllZeroAbscissa, ConfigError, DegenerateConfiguration,
                     GeotrajError, InsufficientPoints, InsufficientSamples,
                     InvalidSpec, NoCheckpoints, NoFixAvailable,
                     NonConvergence, OutOfDomain, ParseError, SchemaMismatch,
                     UndefinedGap, UnknownCheckpoint)
from .geodesy import (EcefCoord, GeodeticCoord, UtmCoord, ecef_to_geodetic,
                      geodetic_to_ecef, geodetic_to_utm, utm_to_geodetic)

EXIT_CODES: list[tuple[type, int]] = [
    (ConfigError, 2),
    (ParseError, 3),
    (NoFixAvailable, 4),
    (NoCheckpoints, 5),
    (UnknownCheckpoint, 5),
    (InsufficientPoints, 6),
    (DegenerateConfiguration, 6),
    (InsufficientSamples, 6),
    (AllZeroAbscissa, 6),
    (UndefinedGap, 6),
    (SchemaMismatch, 7),
    (OutOfDomain, 8),
    (NonConvergence, 8),
    (InvalidSpec, 9),
    (GeotrajError, 10),
]

ENV_OUTPUT_DIR = "GEOTRAJ_OUT"


def exit_code_for(exc: BaseException) -> int:
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 70


def _resolve_outdir(flag: str | None, config_dir: Path | None) -> Path | None:
    if flag:
        return Path(flag)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env)
    return config_dir


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .report import evaluate_run, format_summary_table, write_report

    config = load_run_config(args.config)
    if args.visit_table:
        table_path = Path(args.visit_table)
        if not table_path.is_file():
            raise ConfigError(f"visit table does not exist: {table_path}")
        config.visit_table = table_path
    report = evaluate_run(config)
    outdir = _resolve_outdir(args.out, config.output_dir)
    write_report(report, outdir)
    print(format_summary_table(report))
    print(f"report written to {outdir}")
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    from .matching import export_visit_table
    from .report import detect_visit_table, load_survey, load_track

    config = load_run_config(args.config)
    cps, _, ctx = load_survey(config)
    method = next(m for m in config.methods if m.label == config.table_label)
    track = load_track(method, config.calibration)
    table = detect_visit_table(config, track, cps, ctx)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(export_visit_table(table), encoding="utf-8")
    print(f"{len(table.visits)} visit(s), {len(table.unmatched_segments)} unmatched "
          f"segment(s), {len(table.unvisited_checkpoints)} unvisited checkpoint(s)")
    print(f"visit table written to {out}")
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    samples: list[DriftSample] = []
    for report_path in args.reports:
        try:
            doc = json.loads(Path(report_path).read_text(encoding="utf-8"))
            for method in doc["methods"]:
                for s in method["drift"]["samples"]:
                    samples.append(DriftSample(
                        method["label"], doc["sequence_id"], s["cp_id"],
                        float(s["dt_s"]), float(s["dx_m"]), float(s["eps_m"])))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatch(f"cannot read report {report_path}: {exc}") from None

    fits = {}
    by_method: dict[str, tuple[list[float], list[float]]] = {}
    for s in samples:
        xs, ys = by_method.setdefault(s.method, ([], []))
        xs.append(s.dt_s if args.axis == "time" else s.dx_m)
        ys.append(s.eps_m)
    for method, (xs, ys) in sorted(by_method.items()):
        try:
            fits[method] = fit_drift(xs, ys, args.eps0)
        except (InsufficientSamples, AllZeroAbscissa) as exc:
            print(f"warning: {method}: no fit ({exc})", file=sys.stderr)

    outdir = _resolve_outdir(args.out, Path("."))
    outdir.mkdir(parents=True, exist_ok=True)
    drift_report(samples, fits, args.axis, outdir / "drift_aggregate.csv",
                 outdir / "drift_aggregate.svg")
    unit = "m/s" if args.axis == "time" else "m/m"
    for method, fit in sorted(fits.items()):
        print(f"{method}: alpha = {fit.alpha:.6g} {unit} over {fit.n} samples "
              f"(eps0 = {fit.eps0} m)")
    print(f"aggregate drift artifacts written to {outdir}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import ScenarioSpec, generate, write_scenario

    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec {args.spec}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"spec {args.spec} is not valid JSON: {exc}") from None
    spec = ScenarioSpec.from_dict(doc)
    if args.seed is not None:
        spec.seed = args.seed
    scenario = generate(spec)
    outdir = _resolve_outdir(args.out, Path("scenario"))
    write_scenario(scenario, outdir, method_label=args.label)
    assert scenario.expected is not None
    s = scenario.expected.summary
    print(f"scenario written to {outdir} (seed {spec.seed})")
    print(f"expected absolute RMSE {s.rmse_absolute:.6f} m over {s.n_points} visits")
    return 0


_UTM_TARGET = re.compile(r"^utm(\d{1,2})(n|s)$")


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        return _convert(args)
    except ValueError as exc:  # a coordinate constructor rejected a value
        raise ConfigError(str(exc)) from None


def _convert(args: argparse.Namespace) -> int:
    values = args.values
    src = args.src.lower()
    dst = args.dst.lower()
    if src == "geodetic":
        if len(values) != 3:
            raise ConfigError("geodetic input needs: lat_deg lon_deg h")
        g = GeodeticCoord.from_degrees(values[0], values[1], values[2])
    elif src == "ecef":
        if len(values) != 3:
            raise ConfigError("ecef input needs: x y z")
        g = ecef_to_geodetic(EcefCoord(values[0], values[1], values[2]))
    elif _UTM_TARGET.match(src):
        if len(values) != 3:
            raise ConfigError("utm input needs: easting northing height")
        m = _UTM_TARGET.match(src)
        assert m is not None
        hemisphere = "north" if m.group(2) == "n" else "south"
        g = utm_to_geodetic(UtmCoord(values[0], values[1], values[2],
                                     int(m.group(1)), hemisphere))
    else:
        raise ConfigError(f"unknown source frame {args.src!r} "
                          "(use geodetic, ecef, or utm<zone><n|s>)")

    m = _UTM_TARGET.match(dst)
    if dst == "geodetic":
        print(f"lat_deg={g.lat_deg!r} lon_deg={g.lon_deg!r} h={g.h!r}")
    elif dst == "ecef":
        e = geodetic_to_ecef(g)
        print(f"x={e.x!r} y={e.y!r} z={e.z!r}")
    elif m:
        u = geodetic_to_utm(g, int(m.group(1)))
        want = "north" if m.group(2) == "n" else "south"
        if u.hemisphere != want:
            raise OutOfDomain(f"point lies on the {u.hemisphere}ern hemisphere")
        print(f"easting={u.easting!r} northing={u.northing!r} height={u.height!r} "
              f"zone={u.zone}{m.group(2)}")
    else:
        raise ConfigError(f"unknown target frame {args.dst!r} "
                          "(use geodetic, ecef, or utm<zone><n|s>)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geotraj",
        description="checkpoint-based geodetic accuracy evaluation for SLAM "
                    "trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a sequence per run config")
    p_eval.add_argument("--config", required=True, help="run config JSON")
    p_eval.add_argument("--visit-table", help="import a shared visit table")
    p_eval.add_argument("--out", help="output directory override")
    p_eval.set_defaults(func=cmd_evaluate)

    p_match = sub.add_parser("match", help="build and export the visit table")
    p_match.add_argument("--config", required=True, help="run config JSON")
    p_match.add_argument("--out", required=True, help="output table JSON path")
    p_match.set_defaults(func=cmd_match)

    p_drift = sub.add_parser("drift", help="aggregate drift fit across reports")
    p_drift.add_argument("--reports", nargs="+", required=True,
                         help="report.json files to aggregate")
    p_drift.add_argument("--axis", choices=["time", "distance"], default="time")
    p_drift.add_argument("--eps0", type=float, default=DEFAULT_EPS0,
                         help="fixed intercept, meters (default %(default)s)")
    p_drift.add_argument("--out", help="output directory")
    p_drift.set_defaults(func=cmd_drift)

    p_synth = sub.add_parser("synth", help="generate a synthetic scenario")
    p_synth.add_argument("--spec", required=True, help="scenario spec JSON")
    p_synth.add_argument("--seed", type=int, help="override the spec seed")
    p_synth.add_argument("--label", default="synthetic", help="method label")
    p_synth.add_argument("--out", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_conv = sub.add_parser("convert", help="convert a single coordinate")
    p_conv.add_argument("--from", dest="src", required=True,
                        help="geodetic | ecef | utm<zone><n|s>")
    p_conv.add_argument("--to", dest="dst", required=True,
                        help="geodetic | ecef | utm<zone><n|s>")
    p_conv.add_argument("values", nargs="+", type=float,
                        help="coordinate components")
    p_conv.set_defaults(func=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeotrajError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
