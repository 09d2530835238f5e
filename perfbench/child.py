"""Child-process entry points; the benchmark runs at most one at a time.

    python3 perfbench/child.py setup WORKLOAD SEED OUTDIR RESULT [--reps N]
                                     [--tiny] [--trace SPANS]
    python3 perfbench/child.py evaluate CONFIG OUTDIR RESULT [--trace SPANS]

``setup`` generates the workload's bundle ``--reps`` times, each time from
scratch, and records each repetition's wall time and the sha256 of the bytes
it wrote. Only the first copy is kept.

``evaluate`` is one cold ``geotraj evaluate``: the wall time runs from
``cli.main`` reading the config to the report bundle being written; the
peak RSS and the CPU time (start-up included) come from the process's own
``getrusage``.

With ``--trace`` the tracer is installed before any workload code runs and
the spans are written to SPANS when the run ends. ``geotraj`` is imported
from the checkout's ``src`` that the parent puts on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def bundle_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def setup(args, tracer) -> dict:
    from workloads import build_bundle

    outdir = Path(args.outdir)
    seconds, digests, manifest = [], [], None
    for rep in range(args.reps):
        target = outdir if rep == 0 else outdir.with_name(f"{outdir.name}.rep{rep}")
        shutil.rmtree(target, ignore_errors=True)
        t0 = perf_counter()
        made = build_bundle(args.workload, args.seed, target, tiny=args.tiny)
        seconds.append(perf_counter() - t0)
        digests.append(bundle_digest(target))
        if rep == 0:
            manifest = made
        else:
            shutil.rmtree(target)
    if tracer is not None:
        tracer.dump(Path(args.trace), sum(seconds))
    return {"setup_s": seconds, "digests": digests, "manifest": manifest}


def evaluate(args, tracer) -> dict:
    from geotraj import cli

    t0 = perf_counter()
    rc = cli.main(["evaluate", "--config", args.config, "--out", args.outdir])
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.dump(Path(args.trace), wall)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> None:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload")
    p_setup.add_argument("seed", type=int)
    p_setup.add_argument("outdir")
    p_setup.add_argument("result")
    p_setup.add_argument("--reps", type=int, default=1)
    p_setup.add_argument("--tiny", action="store_true")
    p_setup.add_argument("--trace")
    p_setup.set_defaults(func=setup)
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("config")
    p_eval.add_argument("outdir")
    p_eval.add_argument("result")
    p_eval.add_argument("--trace")
    p_eval.set_defaults(func=evaluate)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = args.func(args, tracer)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
