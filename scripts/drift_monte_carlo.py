#!/usr/bin/env python3
"""Monte-Carlo check of the drift fit against the random-walk expectation.

Runs N synthetic outage scenarios, pools the per-visit (outage age, error)
samples through the real matching pipeline, fits the fixed-intercept slope,
and compares it with the slope implied by the tracked error variances. Also
emits the pooled scatter (drift_mc.csv, drift_mc_time.svg).
"""

import argparse
import time
from pathlib import Path

import numpy as np

from geotraj.drift import DriftSample, drift_report, fit_drift, outage_coordinates
from geotraj.geodesy import UtmCoord, utm_to_geodetic
from geotraj.lever_arm import apply_lever_arm
from geotraj.matching import detect_dwells, match_visits, visits_from_table
from geotraj.metrics import checkpoint_errors
from geotraj.synth import ScenarioSpec, generate


def run(seeds: int, drift_rate: float, noise: float, eps0: float,
        out: Path) -> None:
    e0, n0, h0 = 513000.0, 5403000.0, 300.0
    line = np.array([[e0 + 90.0 * i, n0, h0] for i in range(5)])
    origin = utm_to_geodetic(UtmCoord(e0, n0, h0, 32))

    t0 = time.monotonic()
    samples: list[DriftSample] = []
    exp_num = exp_den = 0.0
    for seed in range(seeds):
        spec = ScenarioSpec(
            seed=seed,
            waypoints=line,
            dwells=[(f"CP{i + 1:02d}", 8.0) for i in range(5)],
            speed=1.5,
            origin=origin,
            zone=32,
            outage_windows=[(30.0, 260.0)],
            drift_rate=drift_rate,
            noise_sigma=noise,
        )
        sc = generate(spec)
        dws = detect_dwells(apply_lever_arm(sc.truth, np.zeros(3)), 0.05, 5.0)
        table = match_visits(dws, sc.checkpoints, sc.context, 1.0)
        est_track = apply_lever_arm(sc.estimate, np.zeros(3))
        visits, _ = visits_from_table(table, est_track, sc.checkpoints, sc.context)
        errs = checkpoint_errors(visits, sc.checkpoints)
        coords = outage_coordinates(est_track, sc.rtk, visits)
        samples.extend(
            DriftSample("slam", f"mc-seed{seed}", c.checkpoint_id,
                        c.dt_nearest_fix, c.dx_nearest_fix, e.norm)
            for c, e in zip(coords, errs))
        exp_num += float(np.sum(sc.expected.dt_s * (sc.expected.eps_mean_m - eps0)))
        exp_den += float(np.sum(sc.expected.dt_s ** 2))

    alpha_hat = fit_drift([(s.dt_s, s.eps_m) for s in samples], eps0).alpha
    alpha_exp = exp_num / exp_den
    rel = abs(alpha_hat - alpha_exp) / alpha_exp

    out.mkdir(parents=True, exist_ok=True)
    fits = {"slam": fit_drift([(s.dt_s, s.eps_m) for s in samples], eps0)}
    drift_report(samples, fits, "time",
                 out / "drift_mc.csv", out / "drift_mc_time.svg")

    print(f"{seeds} scenarios, {len(samples)} visit samples, "
          f"{time.monotonic() - t0:.1f} s")
    print(f"fitted alpha   {alpha_hat:.6f} m/s")
    print(f"expected alpha {alpha_exp:.6f} m/s  ({100 * rel:.1f}% rel. error)")
    print(f"scatter in {out}/")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--drift-rate", type=float, default=0.02)
    ap.add_argument("--noise", type=float, default=0.02)
    ap.add_argument("--eps0", type=float, default=0.02)
    ap.add_argument("--out", type=Path, default=Path("drift_mc_out"))
    args = ap.parse_args()
    run(args.seeds, args.drift_rate, args.noise, args.eps0, args.out)


if __name__ == "__main__":
    main()
