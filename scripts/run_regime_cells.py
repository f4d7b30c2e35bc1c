#!/usr/bin/env python3
"""Regime comparison: base sizes of three multi-parametric cells
(all-rare, polylog-rare + free, mostly-ubiquitous) at one grid point.

Prints per-cell base-size means with one-sided rank tests between
adjacent cells and writes the merged sweep CSV. The all-rare cell is the
single-parameter model at p = 1/ln(n), and the polylog-rare cell swaps
most of its rare columns for free columns at p = f_prob. The rank tests
therefore put first the cell whose column probability has the larger
single-model exponent ``avg_pp_exponent``. At the defaults that is
polylog-rare (4.90 against 3.61 at n = m = 30), and the gap between the
two exponents grows with n. The mostly-ubiquitous cell comes last.
"""

import argparse
import math
import sys

from implbases import SweepSpec, avg_pp_exponent, render_csv, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=30,
                        help="attribute and object count n = m")
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20250808)
    parser.add_argument("--x", type=float, default=2.0)
    parser.add_argument("--f-prob", type=float, default=0.5)
    parser.add_argument("--out", default="regime_cells.csv")
    args = parser.parse_args()

    n = m = args.size
    ln_n = math.log(n)
    cells = [
        ("all-rare",       dict(u_sizes=(0,), r_sizes=(n,))),
        ("polylog-rare",   dict(u_sizes=(0,), r_sizes=(math.ceil(ln_n ** 2),))),
        ("mostly-ubiquitous",
         dict(u_sizes=(n - math.ceil(ln_n),), r_sizes=(math.ceil(ln_n),))),
    ]
    all_records = []
    values = {}
    for cell_index, (label, sizes) in enumerate(cells):
        spec = SweepSpec(model="multi", objects=(m,), attributes=(n,),
                         x=args.x, f_prob=args.f_prob, trials=args.trials,
                         base_seed=args.seed, **sizes)
        records = run_sweep(spec)
        for rec in records:
            if rec.error is not None:
                sys.exit(f"trial failed: {rec.error}")
            rec.cell = cell_index
        all_records.extend(records)
        values[label] = [r.pp_pairs for r in records]
        mean = sum(values[label]) / len(values[label])
        print(f"{label:18s} u={sizes['u_sizes'][0]:2d} r={sizes['r_sizes'][0]:2d} "
              f"mean |base| = {mean:10.1f} "
              f"(min {min(values[label])}, max {max(values[label])})")

    try:
        from scipy import stats
    except ImportError:
        print("scipy not installed; skipping rank tests")
    else:
        order = [label for label, _ in cells]
        try:
            e_rare = avg_pp_exponent(n, m, 1.0 / ln_n)
            e_free = avg_pp_exponent(n, m, args.f_prob)
        except ValueError as exc:
            print(f"single-model exponent undefined ({exc}); "
                  "testing in cell order")
        else:
            print(f"single-model exponents: rare {e_rare:.2f}, "
                  f"free {e_free:.2f}")
            if e_free > e_rare:
                order[:2] = order[1::-1]
        for hi, lo in zip(order, order[1:]):
            res = stats.mannwhitneyu(values[hi], values[lo],
                                     alternative="greater")
            print(f"rank test {hi} > {lo}: U={res.statistic:.1f} "
                  f"p={res.pvalue:.3g}")

    spec = SweepSpec(model="multi", objects=(m,), attributes=(n,),
                     x=args.x, f_prob=args.f_prob, trials=args.trials,
                     base_seed=args.seed, u_sizes=(0,), r_sizes=(n,))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(spec, all_records))
    print(f"wrote {args.out} ({len(all_records)} trials)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
