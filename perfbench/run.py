"""geotraj benchmark: cold `geotraj evaluate` runs on synthetic surveys.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; geotraj is imported from its ``src``. A run

1. sets up: a child process generates the workload's input bundle from
   ``--seed`` with ``geotraj.synth`` and the package writers, ``SETUP_REPS``
   times from scratch; ``setup_s`` is the median, and every repetition must
   write identical bytes;
2. evaluates: one child process per cold ``geotraj evaluate``, one after the
   other, for ``--seconds`` seconds and at least ``MIN_EVALS`` times. Each
   evaluation fails on a non-zero exit, on a ``report.json`` that breaks the
   shipped report schema, or on report bytes that differ from the first;
3. with ``--trace 1``, runs one more set-up and one more evaluation with the
   tracer installed and reports the per-layer metrics instead of the
   end-to-end ones.

The human-readable lines name every metric with its unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every raw sample, the report's sha256 and the oracle deltas of each method
go to ``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jsonschema

import oracle
from layers import EVAL_NAMES, PER_LAYER, SETUP_NAMES, layer_metrics, missing_names
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "geotraj" / "schemas" / "report.schema.json"
WORK = HERE / "_work"
RESULTS = HERE / "results"

WORKLOADS = ("long-dwell-100hz", "replay-4x-100hz", "revisit-grid-10hz")
DEFAULT_SEED = 1
# A second seed, never used while tuning, on which a claimed gain must hold too.
CHECK_SEED = 2
DEFAULT_SECONDS = 13
SETUP_REPS = 3
MIN_EVALS = 2
# Every run ends well inside three minutes, whatever the program's speed.
RUN_BUDGET_S = 165.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "poses_per_s": ("poses/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (no source tree, set-up failed)."""


def child(args: list[str], result: Path, deadline: float, trace: Path | None = None
          ) -> tuple[int, dict, str]:
    """Run perfbench/child.py to completion; returns (exit code, result, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, str(result)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return -9, {}, "timed out"
    doc = json.loads(result.read_text()) if proc.returncode == 0 else {}
    return proc.returncode, doc, proc.stderr.strip()


def setup(name: str, seed: int, work: Path, reps: int, deadline: float,
          tiny: bool, trace: Path | None = None) -> dict:
    args = ["setup", name, str(seed), str(work / "bundle"), "--reps", str(reps)]
    if tiny:
        args.append("--tiny")
    rc, doc, err = child(args, work / "setup.json", deadline, trace)
    if rc != 0:
        raise BenchError(f"set-up of {name} failed with exit code {rc}: {err}")
    return doc


def check_report(out: Path, schema: dict, first: bytes | None) -> tuple[bytes, str]:
    """Report bytes and the reason the evaluation failed ('' if it did not)."""
    path = out / "report.json"
    if not path.is_file():
        return b"", "no report.json"
    data = path.read_bytes()
    try:
        jsonschema.validate(json.loads(data), schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return data, f"report.json breaks the schema: {str(exc).splitlines()[0]}"
    if first is not None and data != first:
        return data, "report bytes differ from the first evaluation"
    return data, ""


def evaluate(config: Path, out: Path, work: Path, deadline: float,
             schema: dict, first: bytes | None, trace: Path | None = None
             ) -> tuple[dict, bytes]:
    rc, doc, err = child(["evaluate", str(config), str(out)], work / "eval.json",
                         deadline, trace)
    rc = doc.get("rc", rc)  # geotraj's exit code once the child itself succeeded
    sample = {"rc": rc, **{k: doc.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
    data = b""
    if rc != 0:
        sample["error"] = err.splitlines()[-1] if err else f"exit code {rc}"
    else:
        data, why = check_report(out, schema, first)
        if why:
            sample["error"] = why
    return sample, data


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    if not (SRC / "geotraj" / "cli.py").is_file():
        raise BenchError(f"no geotraj source tree at {SRC}; run from a checkout root")
    t_run = perf_counter()
    deadline = t_run + RUN_BUDGET_S
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    notes: list[str] = []

    setup_trace = work / "setup_spans.json" if trace else None
    built = setup(name, seed, work, 1 if trace else SETUP_REPS, deadline, tiny,
                  setup_trace)
    bundle = work / "bundle"
    manifest = built["manifest"]
    correct = len(set(built["digests"])) == 1
    if not correct:
        notes.append("set-up wrote different bytes on repetition")
    config = bundle / manifest["config"]

    samples: list[dict] = []
    first = None
    t_eval = perf_counter()
    while len(samples) < MIN_EVALS or perf_counter() - t_eval < seconds:
        last = samples[-1]["wall_s"] if samples and samples[-1]["wall_s"] else 0.0
        if samples and perf_counter() + 1.5 * last > deadline:
            notes.append("evaluation phase cut short by the run budget")
            break
        out = work / f"eval{len(samples)}"
        sample, data = evaluate(config, out, work, deadline, schema, first)
        samples.append(sample)
        if first is None and "error" not in sample:
            first = data
        elif out.exists():
            shutil.rmtree(out)
    ok = [s for s in samples if "error" not in s]
    if not ok:
        raise BenchError(f"every evaluation of {name} failed: {samples[0]['error']}")
    report = json.loads(first)
    expected = {label: json.loads((bundle / path).read_text(encoding="utf-8"))
                for label, path in manifest["oracles"].items()}
    eval_s = statistics.median(s["wall_s"] for s in ok)
    e2e = {
        "setup_s": statistics.median(built["setup_s"]),
        "eval_s": eval_s,
        "poses_per_s": manifest["poses"] / eval_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
    }
    extra = {"fail_ratio": (len(samples) - len(ok)) / len(samples),
             **oracle.worst(expected, report)}
    layers = None
    if trace:
        layers, traced_ok = traced_layers(config, work, deadline, schema, first,
                                          setup_trace, eval_s, report, notes)
        correct = correct and traced_ok
        layers.update(extra)

    result = {
        "workload": name, "seed": seed, "tiny": tiny, "seconds": seconds,
        "trace": trace, "poses": manifest["poses"],
        "report_sha256": hashlib.sha256(first).hexdigest(),
        "setup_samples_s": built["setup_s"], "setup_digests": built["digests"],
        "eval_samples": samples, "eval_sample_count": len(ok),
        "summary_by_method": {m["label"]: m["summary"] for m in report["methods"]},
        "oracle_by_method": {m["label"]: oracle.compare(expected[m["label"]], m)
                             for m in report["methods"] if m["label"] in expected},
        "end_to_end": e2e, "extra": extra, "per_layer": layers, "notes": notes,
        "run_s": perf_counter() - t_run,
        "correct": correct and len(ok) == len(samples),
        "attempted": len(samples), "failed": len(samples) - len(ok),
    }
    RESULTS.mkdir(exist_ok=True)
    tag = "-tiny" if tiny else ""
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}{tag}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return result


def traced_layers(config: Path, work: Path, deadline: float, schema: dict,
                  first: bytes, setup_trace: Path, eval_s: float, report: dict,
                  notes: list[str]) -> tuple[dict, bool]:
    """One traced evaluation; per-layer metrics plus whether its report
    matched the untraced one byte for byte."""
    spans = work / "eval_spans.json"
    out = work / "eval_traced"
    sample, _ = evaluate(config, out, work, deadline, schema, first, spans)
    if "error" in sample:
        notes.append(f"traced evaluation failed: {sample['error']}")
        return {name: 0.0 for name in PER_LAYER}, False
    ev_doc = json.loads(spans.read_text(encoding="utf-8"))
    setup_doc = json.loads(setup_trace.read_text(encoding="utf-8"))
    missing = (missing_names(ev_doc["wrapped"], EVAL_NAMES)
               + missing_names(setup_doc["wrapped"], SETUP_NAMES))
    notes.extend(f"{n}: not a public geotraj function here; reported as 0 calls"
                 for n in missing)
    layers = layer_metrics(summarize(ev_doc), summarize(setup_doc), sample["wall_s"],
                           report)
    layers["report.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                         if p.is_file())
    layers["trace.overhead_pct"] = 100.0 * (sample["wall_s"] - eval_s) / eval_s
    layers["trace.missing_names"] = len(missing)
    return layers, True


def print_result(result: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    print(f"{result['workload']}: seed {result['seed']}, {result['poses']} poses, "
          f"{result['attempted']} evaluations ({result['failed']} failed), "
          f"{len(result['setup_samples_s'])} set-ups, run {result['run_s']:.1f} s")
    if result["trace"]:
        declared = PER_LAYER
        shown = result["per_layer"]
    else:
        declared = END_TO_END
        shown = {**result["end_to_end"], **result["extra"]}
    units = {**END_TO_END, **PER_LAYER}
    for metric, value in shown.items():
        unit, better = units[metric]
        print(f"  {metric:<42} {value:>16.6g} {unit:<8} ({better} is better)")
    for note in result["notes"]:
        print(f"  note: {note}")
    return {k: {"value": shown[k], "unit": unit} for k, (unit, _) in declared.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; check claims on "
                         f"{CHECK_SEED} too)")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for result in results:
        shown = print_result(result)
        if len(results) == 1:
            metrics = shown
        else:
            metrics.update({f"{result['workload']}.{k}": v for k, v in shown.items()})
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
