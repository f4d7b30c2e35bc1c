"""The benchmark's workloads: what one pass runs, its result digest and
the checks on its outputs.

Every workload is a closed loop of passes from one process. Pass k runs
a fixed grid on inputs derived from the workload seed as
``seed + k * PASS_STRIDE``: the same seed gives the same inputs, pass 0
uses the seed itself, and a run covers several independent inputs, so
its figures vary little from seed to seed.

A pass has three steps. ``prepare`` makes its inputs (untimed), ``run``
calls the program (timed), and ``finish`` digests and checks the
outputs (untimed). The program is reached only through public entry
points, looked up as module attributes so that the traced run can
replace them with span-recording wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import implbases.cli as cli_mod
import implbases.sweep as sweep_mod
from implbases.bases import proper_premise_base
from implbases.ctxio import write_burmeister
from implbases.randctx import (MultiParamSpec, SingleParamSpec, gen_multi,
                               gen_single)

PASS_STRIDE = 1_000_003
DIAG_SIZES = (10, 15, 20, 25, 30, 34)
# The first CROSS_CHECK_TRIALS trials of each cell, if their base is at
# most CROSS_CHECK_MAX_PAIRS large, are recomputed through
# proper_premise_base and checked for directness. Checking every trial
# of the 288-trial regime cell took longer than running it.
CROSS_CHECK_MAX_PAIRS = 5000
CROSS_CHECK_TRIALS = 4


@dataclass
class PassResult:
    ops: list                 # canonical result per op; digested
    op_seconds: list[float]   # latency per op
    outputs: int = 0          # proper-premise pairs plus stem implications
    failed: int = 0           # ops that errored or failed a check
    bytes_out: int = 0        # what the CLI wrote
    part_seconds: dict = field(default_factory=dict)  # composite: time per part

    @property
    def digest(self) -> str:
        text = json.dumps(self.ops, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- independent closure arithmetic used by the checks -------------------------


def closure(rows, n: int, x: int) -> int:
    """Attributes shared by every row containing x (all if none does)."""
    out = (1 << n) - 1
    for r in rows:
        if r & x == x:
            out &= r
    return out


def close_once(imps, x: int) -> int:
    out = x
    for p, c in imps:
        if p & ~x == 0:
            out |= c
    return out


def close_fixpoint(imps, x: int) -> int:
    changed = True
    while changed:
        changed = False
        for p, c in imps:
            if p & ~x == 0 and c & ~x:
                x |= c
                changed = True
    return x


def sample_sets(rows, n: int, seed: int, count: int = 8) -> list[int]:
    """Half subsets of random rows (closures are nontrivial) and random
    pairs of attributes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2 == 0 and rows:
            row = rows[rng.randrange(len(rows))]
            out.append(row & rng.getrandbits(n))
        else:
            out.append((1 << rng.randrange(n)) | (1 << rng.randrange(n)))
    return out


def is_direct(rows, n: int, imps, seed: int) -> bool:
    return all(close_once(imps, x) == closure(rows, n, x)
               for x in sample_sets(rows, n, seed))


def is_complete(rows, n: int, imps, seed: int) -> bool:
    return all(close_fixpoint(imps, x) == closure(rows, n, x)
               for x in sample_sets(rows, n, seed))


# -- sweeps ------------------------------------------------------------------


def regenerate(params: dict, seed: int):
    if params["model"] == "single":
        return gen_single(SingleParamSpec(
            params["objects"], params["attributes"], params["p"], seed=seed))
    return gen_multi(MultiParamSpec(
        params["objects"], params["attributes"], params["u_size"],
        params["r_size"], params["x"], params["f_prob"], seed=seed))


def check_record(rec) -> bool:
    """Invariants of one trial: no error row, stem base no larger than
    the proper-premise base, and for the first trials of a cell, on
    small outputs, the count-only sweep path agrees with
    proper_premise_base, whose base is direct."""
    if rec.error is not None:
        return False
    if rec.stem_count is not None and rec.stem_count > rec.pp_premises:
        return False
    if rec.trial < CROSS_CHECK_TRIALS and rec.pp_pairs <= CROSS_CHECK_MAX_PAIRS:
        ctx = regenerate(rec.params, rec.seed)
        base = proper_premise_base(ctx)
        if (base.pair_count, base.premise_count) != (rec.pp_pairs, rec.pp_premises):
            return False
        imps = [(i.premise.mask, i.conclusion.mask) for i in base]
        if not is_direct(ctx.row_masks, ctx.n_attributes, imps, rec.seed):
            return False
    return True


def record_row(rec) -> list:
    return [sorted(rec.params.items()), rec.trial, rec.seed, rec.mt_min,
            rec.mt_mean, rec.mt_max, rec.pp_pairs, rec.pp_premises,
            rec.stem_count, rec.error]


class SweepWorkload:
    """Sweeps through run_sweep/render_csv (and fit_exponent), one
    SweepSpec per cell, as the repository's experiment scripts run them."""

    def __init__(self, cells: list[tuple[dict, int, int]], workers: int = 1,
                 fit: bool = False) -> None:
        # (SweepSpec keywords, trials per pass, offset added to the seed)
        self.cells = cells
        self.workers = workers
        self.fit = fit

    def prepare(self, seed: int, k: int, workdir: str):
        base_seed = seed + k * PASS_STRIDE
        return [sweep_mod.SweepSpec(base_seed=base_seed + offset, trials=trials,
                                    **kw)
                for kw, trials, offset in self.cells]

    def run(self, specs):
        records = []
        for spec in specs:
            recs = sweep_mod.run_sweep(spec, workers=self.workers)
            sweep_mod.render_csv(spec, recs)
            records.extend(recs)
        fit = None
        if self.fit:
            try:
                fit = sweep_mod.fit_exponent(records)
            except sweep_mod.FitError as exc:
                fit = exc
        return records, fit

    def finish(self, specs, state) -> PassResult:
        records, fit = state
        res = PassResult(ops=[record_row(r) for r in records],
                         op_seconds=[((r.gen_ms or 0.0) + (r.dual_ms or 0.0)
                                      + (r.stem_ms or 0.0)) / 1000.0
                                     for r in records])
        for rec in records:
            if check_record(rec):
                res.outputs += rec.pp_pairs + (rec.stem_count or 0)
            else:
                res.failed += 1
        if self.fit:
            if isinstance(fit, Exception) or not math.isfinite(fit.c):
                res.failed += 1
                res.ops.append(["fit", str(fit)])
            else:
                res.ops.append(["fit", fit.c, fit.log_k, fit.c2])
        return res


def _regime_cells(n: int, trials: tuple[int, int, int],
                  seed_offset: int) -> list[tuple[dict, int, int]]:
    """The three cells of scripts/run_regime_cells.py at n = m:
    all-rare, polylog-rare and mostly-ubiquitous, with the given trials
    per pass."""
    ln_n = math.log(n)
    common = dict(model="multi", objects=(n,), attributes=(n,), x=2.0, f_prob=0.5)
    sizes = [(0, n), (0, math.ceil(ln_n ** 2)),
             (n - math.ceil(ln_n), math.ceil(ln_n))]
    return [(dict(common, u_sizes=(u,), r_sizes=(r,)), t, seed_offset)
            for (u, r), t in zip(sizes, trials)]


# -- compute through the CLI -------------------------------------------------


COMPUTE_RUNS = (
    ("ctx30", ("--base", "proper")),
    ("ctx30", ("--base", "proper", "--format", "json")),
    ("ctx20", ("--base", "both")),
)


def parse_listing(text: str, names) -> dict[str, tuple[list, dict]]:
    """Text output of ``compute`` as {kind: (implications as mask pairs,
    summary counts)}."""
    index = {name: i for i, name in enumerate(names)}
    out = {}
    imps = []
    for line in text.splitlines():
        if line.startswith("# base="):
            continue
        if line.startswith("# "):
            kind, _, rest = line[2:].partition(": ")
            counts = {k: int(v) for k, v in (f.split("=") for f in rest.split())}
            out[kind] = (imps, counts)
            imps = []
            continue
        premise, _, conclusion = line.partition("->")
        imps.append((sum(1 << index[a] for a in premise.split()),
                      sum(1 << index[a] for a in conclusion.split())))
    return out


def _read_and_remove(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def _json_imps(base: dict, names) -> list:
    index = {name: i for i, name in enumerate(names)}
    return [(sum(1 << index[a] for a in imp["premise"]),
             sum(1 << index[a] for a in imp["conclusion"]))
            for imp in base["implications"]]


def _consistent(imps, counts: dict) -> bool:
    return (counts["implications"] == len(imps)
            and counts["premises"] == len({p for p, _ in imps})
            and counts["pairs"] == sum(c.bit_count() for _, c in imps))


class ComputeWorkload:
    """``cli.main(["compute", ...])`` in-process on Burmeister files
    written before each pass: a 30x30 context as text and as JSON, and a
    20x20 context with both bases."""

    workers = 1

    def prepare(self, seed: int, k: int, workdir: str):
        base_seed = seed + k * PASS_STRIDE
        ctxs = {"ctx30": gen_single(SingleParamSpec(30, 30, 0.5, seed=base_seed)),
                "ctx20": gen_single(SingleParamSpec(20, 20, 0.5, seed=base_seed))}
        paths = {}
        for key, ctx in ctxs.items():
            # one file per pass: a pass's outputs may be checked after
            # later passes have run
            paths[key] = os.path.join(workdir, f"{key}.{k}.cxt")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(write_burmeister(ctx))
        return ctxs, paths, base_seed

    def run(self, prep):
        """Each invocation's stdout goes to a file, as from a shell, so
        the captured output takes no memory of the process."""
        _, paths, _ = prep
        outs = []
        for i, (key, flags) in enumerate(COMPUTE_RUNS):
            out_path = paths[key] + f".out{i}"
            t0 = time.perf_counter()
            with open(out_path, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                try:
                    code = cli_mod.main(["compute", paths[key], *flags])
                except SystemExit as exc:
                    code = exc.code
            outs.append((code, out_path, time.perf_counter() - t0))
        return outs

    def finish(self, prep, outs) -> PassResult:
        ctxs, _, seed = prep
        outs = [(code, _read_and_remove(path), sec) for code, path, sec in outs]
        res = PassResult(
            ops=[[list(flags), code, hashlib.sha256(text.encode()).hexdigest()]
                 for (_, flags), (code, text, _) in zip(COMPUTE_RUNS, outs)],
            op_seconds=[sec for _, _, sec in outs],
            bytes_out=sum(len(text.encode()) for _, text, _ in outs))
        checks = (self._check_text, self._check_json, self._check_both)
        for (key, _), (code, text, _), check in zip(COMPUTE_RUNS, outs, checks):
            try:
                produced = check(ctxs[key], text, seed) if code == 0 else None
            except (KeyError, ValueError):  # malformed output
                produced = None
            if produced is None:
                res.failed += 1
            else:
                res.outputs += produced
        return res

    @staticmethod
    def _check_text(ctx, text, seed):
        imps, counts = parse_listing(text, ctx.attribute_names)["proper"]
        if not (_consistent(imps, counts)
                and is_direct(ctx.row_masks, ctx.n_attributes, imps, seed)):
            return None
        return counts["pairs"]

    @staticmethod
    def _check_json(ctx, text, seed):
        base = json.loads(text)["bases"]["proper"]
        imps = _json_imps(base, ctx.attribute_names)
        counts = {"implications": base["implication_count"],
                  "premises": base["premise_count"], "pairs": base["pair_count"]}
        if not (_consistent(imps, counts)
                and is_direct(ctx.row_masks, ctx.n_attributes, imps, seed)):
            return None
        return counts["pairs"]

    @staticmethod
    def _check_both(ctx, text, seed):
        listing = parse_listing(text, ctx.attribute_names)
        proper, pcounts = listing["proper"]
        stem, scounts = listing["stem"]
        n, rows = ctx.n_attributes, ctx.row_masks
        if not (_consistent(proper, pcounts) and _consistent(stem, scounts)
                and scounts["implications"] <= pcounts["premises"]
                and is_direct(rows, n, proper, seed)
                and is_complete(rows, n, stem, seed)):
            return None
        return pcounts["pairs"] + scounts["implications"]


class CompositeWorkload:
    """Several workloads' passes run back to back as one pass. Each
    part's time is kept, so that its share of the pass is known."""

    def __init__(self, **parts) -> None:
        self.parts = parts
        self.workers = max(part.workers for part in parts.values())

    def prepare(self, seed: int, k: int, workdir: str):
        return {name: part.prepare(seed, k, workdir)
                for name, part in self.parts.items()}

    def run(self, preps):
        states = {}
        for name, part in self.parts.items():
            t0 = time.perf_counter()
            state = part.run(preps[name])
            states[name] = (state, time.perf_counter() - t0)
        return states

    def finish(self, preps, states) -> PassResult:
        out = PassResult(ops=[], op_seconds=[])
        for name, part in self.parts.items():
            state, seconds = states[name]
            res = part.finish(preps[name], state)
            out.ops += res.ops
            out.op_seconds += res.op_seconds
            out.outputs += res.outputs
            out.failed += res.failed
            out.bytes_out += res.bytes_out
            out.part_seconds[name] = seconds
        return out


# Trials per pass of the composite's sweeps, set from measured part times
# so that every part has a share of the pass that a regression in it can
# move; measured shares (BASELINE.md): compute 0.44 (one run each,
# fixed), stem 0.22, the two rare regime cells 0.19 and the
# mostly-ubiquitous cell 0.14, whose trials cost ~60x less than the rare
# cells' and are mostly per-call overhead and generation.
STEM_TRIALS = 2
REGIME_TRIALS = (3, 3, 288)
REGIME_CELLS = _regime_cells(30, REGIME_TRIALS, seed_offset=7)

WORKLOADS = {
    "diag-proper": SweepWorkload(
        [(dict(model="single", objects=(n,), attributes=(n,), p_values=(0.5,)), 2, 0)
         for n in DIAG_SIZES],
        workers=2, fit=True),
    # The compute path, the stem sweep and the regime cells share one
    # workload so that each run can measure longer (see README). At the
    # default seed 20250801 the regime cells keep their acceptance seed
    # 20250808.
    "compute-stem-regime": CompositeWorkload(
        compute=ComputeWorkload(),
        stem=SweepWorkload(
            [(dict(model="single", objects=(n,), attributes=(n,), p_values=(0.5,),
                   with_stem=True), STEM_TRIALS, 0)
             for n in (16, 20, 22)]),
        regime=SweepWorkload(REGIME_CELLS[:2]),
        regime_ubiquitous=SweepWorkload(REGIME_CELLS[2:])),
}
# names of the composite's parts, whose times the traced run reports
PARTS = tuple(WORKLOADS["compute-stem-regime"].parts)
