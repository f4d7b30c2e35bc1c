#!/usr/bin/env python3
"""Scaling experiment: per-attribute minimal-transversal counts on the
n = m diagonal of the single-parameter model, with the fitted
average-bound constants and lower-envelope coverage.

Writes a sweep CSV and prints the fit summary. Defaults reproduce the
committed acceptance-run seeds.
"""

import argparse
import sys

from implbases import (FitError, SweepSpec, almost_sure_lower_exponent,
                       fit_exponent, fit_lower_envelope, render_csv, run_sweep)


def diagonal_sweep(sizes, p, trials, base_seed):
    """The trial records of the n = m diagonal at cell probability `p`:
    one single-cell sweep per size, since a sweep grid crosses every
    object count with every attribute count, and the records' cells
    numbered in size order. Trial seeds derive from the cell parameters,
    so each size's trials are those of that cell in any grid."""
    records = []
    for cell_index, nm in enumerate(sizes):
        for rec in run_sweep(SweepSpec(
                model="single", objects=(nm,), attributes=(nm,),
                p_values=(p,), trials=trials, base_seed=base_seed)):
            rec.cell = cell_index
            records.append(rec)
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="10,15,20,25,30",
                        help="comma-separated n=m grid")
    parser.add_argument("--p", type=float, default=0.5)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20250801)
    parser.add_argument("--calibration-seed", type=int, default=913370001,
                        help="disjoint seed range for the c2 envelope")
    parser.add_argument("--out", default="scaling_sweep.csv")
    args = parser.parse_args()

    sizes = tuple(int(v) for v in args.sizes.split(","))
    records = diagonal_sweep(sizes, args.p, args.trials, args.seed)
    calibration = diagonal_sweep(sizes, args.p, args.trials,
                                 args.calibration_seed)
    for rec in records + calibration:
        if rec.error is not None:
            sys.exit(f"trial failed: {rec.error}")
    spec = SweepSpec(model="single", objects=sizes, attributes=sizes,
                     p_values=(args.p,), trials=args.trials,
                     base_seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(spec, records))
    print(f"wrote {args.out} ({len(records)} trials)")

    try:
        fit = fit_exponent(records)
    except FitError as exc:
        print(f"fit skipped: {exc}")
    else:
        print(f"fit: c={fit.c:.4f} log_k={fit.log_k:.4f} "
              f"max_rel_residual={fit.max_relative_residual:.4f}")
        for cell in fit.cells:
            print(f"  n={cell.attributes:3d} mean={cell.mean_count:10.1f} "
                  f"fitted={cell.fitted_count:10.1f} "
                  f"rel_residual={cell.relative_residual:.4f}")

    c2 = fit_lower_envelope([
        (r.params["attributes"], r.params["objects"], r.params["p"], r.mt_mean)
        for r in calibration])
    above = 0
    for rec in records:
        n, m, p = (rec.params[k] for k in ("attributes", "objects", "p"))
        above += rec.mt_mean > n ** almost_sure_lower_exponent(n, m, p, c2)
    print(f"lower envelope: c2={c2:.4f}, "
          f"{above}/{len(records)} evaluation trials above the bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
