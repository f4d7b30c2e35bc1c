"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 7 and 9 share one committed evaluation sweep (base seed
20250801); criterion 9 calibrates its envelope constant on a disjoint
seed range (base seed 913370001); criterion 8 uses base seed 20250808
and criterion 10 uses the committed seed lists 0..99 / 0.
"""

import importlib.util
import math
import os
import random
import subprocess
import sys
import time

import pytest
from scipy import stats

from implbases import (Hypergraph, IndexSet, SingleParamSpec, SweepSpec,
                       attribute_hypergraph, avg_pp_exponent, fit_exponent,
                       fit_lower_envelope, gen_multi, gen_single,
                       minimal_transversals, normalize, proper_premise_base,
                       proper_premises_of, run_sweep, stem_base)
from implbases.randctx import MultiParamSpec

from oracles import (brute_force_proper_premises, brute_force_pseudo_intents,
                     brute_force_transversals, close_fixpoint, close_once,
                     closure, column_mask)

EVAL_SWEEP_SEED = 20250801
CALIBRATION_SWEEP_SEED = 913370001
REGIME_SWEEP_SEED = 20250808
GEN_SINGLE_SEEDS = list(range(100))
GEN_MULTI_SEED = 0


def report(num: int, desc: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'} {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert passed, line


def member_sets(family):
    return {s.members for s in family}


@pytest.fixture(scope="module")
def corpus():
    """Criterion-3 corpus: >= 200 random contexts, |A|<=8, |O|<=10."""
    rng = random.Random(314159)
    contexts = []
    for _ in range(200):
        spec = SingleParamSpec(
            n_objects=rng.randint(1, 10),
            n_attributes=rng.randint(1, 8),
            p=rng.choice([0.3, 0.5, 0.7]),
            seed=rng.randrange(2 ** 32),
        )
        contexts.append(gen_single(spec))
    return contexts


def _load_script(name: str):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the committed acceptance run is the scaling script's own diagonal
_scaling = _load_script("run_scaling_sweep")


def diagonal_sweep(base_seed: int, trials: int = 30):
    records = _scaling.diagonal_sweep((10, 15, 20, 25, 30), 0.5, trials,
                                      base_seed)
    assert all(r.error is None for r in records)
    return records


@pytest.fixture(scope="module")
def eval_sweep():
    return diagonal_sweep(EVAL_SWEEP_SEED)


def test_criterion_01_worked_example_reproduction(toy_context_path):
    from implbases import read_burmeister_file

    t0 = time.monotonic()
    ctx = read_burmeister_file(toy_context_path)
    h1 = attribute_hypergraph(ctx, 0)
    h1_edges = member_sets(h1.edges)
    tr1 = member_sets(s for s in minimal_transversals(h1))
    pp1 = member_sets(proper_premises_of(ctx, 0))
    pp2 = member_sets(proper_premises_of(ctx, 1))
    pp5 = member_sets(proper_premises_of(ctx, 4))
    elapsed = time.monotonic() - t0
    ok = (
        h1_edges == {(0, 2), (0, 4), (0, 1, 2), (0, 1, 3)}
        and tr1 == {(0,), (1, 2, 4), (2, 3, 4)}
        and pp1 == {(1, 2, 4), (2, 3, 4)}
        and pp2 == {(0,), (2, 3)}
        and pp5 == {(0, 2), (0, 3)}
        and elapsed < 1.0
    )
    report(1, "worked example reproduced exactly", ok,
           f"{elapsed * 1000:.0f} ms")


def test_criterion_02_dualization_oracle_equivalence():
    rng = random.Random(271828)
    t0 = time.monotonic()
    checked = 0
    for p in (0.2, 0.5, 0.8):
        for _ in range(170):
            n = rng.randint(1, 12)
            n_edges = rng.randint(0, 12)
            masks = [sum(1 << v for v in range(n) if rng.random() < p)
                     for _ in range(n_edges)]
            h = Hypergraph.from_masks(n, masks)
            if minimal_transversals(h) != brute_force_transversals(h):
                report(2, "dualization oracle equivalence", False,
                       f"mismatch at n={n} masks={masks}")
            checked += 1
    elapsed = time.monotonic() - t0
    report(2, "dualization matches brute force", checked >= 500 and elapsed < 60,
           f"{checked} hypergraphs in {elapsed:.1f} s")


def test_criterion_03_proper_premise_oracle_equivalence(corpus):
    checked = 0
    for ctx in corpus:
        for a in range(ctx.n_attributes):
            fast = proper_premises_of(ctx, a)
            slow = brute_force_proper_premises(ctx, a)
            if fast != slow:
                report(3, "proper premise oracle equivalence", False,
                       f"mismatch at attribute {a}")
            checked += 1
    report(3, "proper premises match brute force", True,
           f"{len(corpus)} contexts, {checked} attributes")


def test_criterion_04_directness(corpus):
    checked = 0
    for ctx in corpus:
        base = proper_premise_base(ctx)
        for mask in range(1 << ctx.n_attributes):
            x = IndexSet.from_mask(ctx.n_attributes, mask)
            if close_once(base, x) != closure(ctx, x):
                report(4, "canonical direct base directness", False,
                       f"mask {mask}")
            checked += 1
    report(4, "single-pass closure equals context closure", True,
           f"{checked} subsets")


def test_criterion_05_stem_base_correctness(corpus):
    for ctx in corpus:
        stem = stem_base(ctx)
        premises = sorted((i.premise for i in stem), key=lambda s: s.members)
        if premises != brute_force_pseudo_intents(ctx):
            report(5, "stem base correctness", False, "premise set mismatch")
        for mask in range(1 << ctx.n_attributes):
            x = IndexSet.from_mask(ctx.n_attributes, mask)
            if close_fixpoint(stem, x) != closure(ctx, x):
                report(5, "stem base correctness", False,
                       f"incomplete at mask {mask}")
        proper = proper_premise_base(ctx)
        if not (len(stem) <= proper.premise_count):
            report(5, "stem base correctness", False,
                   f"|stem|={len(stem)} > |proper|={proper.premise_count}")
    report(5, "stem premises = pseudo-intents, complete, not larger than proper",
           True, f"{len(corpus)} contexts")


def test_criterion_06_duality_identity():
    rng = random.Random(161803)
    for _ in range(200):
        n = rng.randint(1, 8)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
        h = Hypergraph.from_masks(n, masks)
        tr_tr = minimal_transversals(
            Hypergraph(n, minimal_transversals(h)))
        if tr_tr != list(normalize(h).edges):
            report(6, "transversal duality identity", False,
                   f"n={n} masks={masks}")
    report(6, "Tr(Tr(h)) = normalize(h)", True, "200 hypergraphs")


def test_criterion_07_quasi_polynomial_trend(eval_sweep):
    t0 = time.monotonic()
    by_n = {}
    for rec in eval_sweep:
        by_n.setdefault(rec.params["attributes"], []).append(rec.mt_mean)
    ns = sorted(by_n)
    means = [sum(by_n[n]) / len(by_n[n]) for n in ns]

    nondecreasing = all(means[i] <= means[i + 1] for i in range(len(means) - 1))

    fit = fit_exponent(eval_sweep)
    fit_ok = math.isfinite(fit.c) and fit.max_relative_residual < 0.5

    ln_means = [math.log(v) for v in means]
    diffs = [ln_means[i + 1] - ln_means[i] for i in range(len(ln_means) - 1)]
    shrinking = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))

    elapsed = time.monotonic() - t0
    report(7, "per-attribute transversal counts grow quasi-polynomially",
           nondecreasing and fit_ok and shrinking and elapsed < 600,
           f"means={[round(v, 1) for v in means]}, c={fit.c:.3f}, "
           f"max_rel_resid={fit.max_relative_residual:.3f}, "
           f"ln-diffs={[round(d, 3) for d in diffs]}")


def test_criterion_08_regime_ordering():
    """Mean base sizes of the three multi-model cells must follow the
    order that the single-model bound predicts, one-sided rank test at
    significance 0.05 on per-trial values of adjacent cells.

    The all-rare cell (u=0, r=n) is the single model at p = 1/ln(n), and
    the polylog-rare cell trades most of those rare columns for free
    columns at p = f_prob. So the cell whose column probability has the
    larger ``avg_pp_exponent`` is expected to have the larger base. The
    mostly-ubiquitous cell, whose near-full columns give near-edgeless
    hypergraphs, is expected to be the smallest.
    """
    n = m = 30
    trials = 30
    f_prob = 0.5
    ln_n = math.log(n)
    cells = {
        "all-rare": dict(u_sizes=(0,), r_sizes=(n,)),
        "polylog-rare": dict(u_sizes=(0,), r_sizes=(math.ceil(ln_n ** 2),)),
        "mostly-ubiquitous": dict(u_sizes=(n - math.ceil(ln_n),),
                                  r_sizes=(math.ceil(ln_n),)),
    }
    records = {}
    values = {}
    for name, sizes in cells.items():
        spec = SweepSpec(model="multi", objects=(m,), attributes=(n,),
                         x=2.0, f_prob=f_prob, trials=trials,
                         base_seed=REGIME_SWEEP_SEED, **sizes)
        records[name] = run_sweep(spec)
        assert all(r.error is None for r in records[name])
        values[name] = [r.pp_pairs for r in records[name]]

    single_rare = all(
        gen_multi(MultiParamSpec(m, n, u_size=0, r_size=n, f_prob=f_prob,
                                 seed=r.seed)).row_masks
        == gen_single(SingleParamSpec(m, n, 1.0 / ln_n, seed=r.seed)).row_masks
        for r in records["all-rare"])
    report(8, "all-rare cell is the single model at p = 1/ln(n)", single_rare,
           f"{trials} trial seeds")

    e_rare = avg_pp_exponent(n, m, 1.0 / ln_n)
    e_free = avg_pp_exponent(n, m, f_prob)
    rare_pair = (["polylog-rare", "all-rare"] if e_free > e_rare
                 else ["all-rare", "polylog-rare"])
    order = rare_pair + ["mostly-ubiquitous"]

    means = {name: sum(v) / len(v) for name, v in values.items()}
    pairs = list(zip(order, order[1:]))
    pvalues = [stats.mannwhitneyu(values[hi], values[lo],
                                  alternative="greater").pvalue
               for hi, lo in pairs]
    ok = (all(means[hi] > means[lo] for hi, lo in pairs)
          and all(p < 0.05 for p in pvalues))
    report(8, "regime cell means order " + " > ".join(order), ok,
           f"exponents: rare={e_rare:.2f} free={e_free:.2f}; means: "
           + " ".join(f"{name}={means[name]:.0f}" for name in order)
           + "; rank-test p: "
           + ", ".join(f"{hi}>{lo} {p:.3g}" for (hi, lo), p in zip(pairs, pvalues)))


def test_criterion_09_lower_bound_sanity(eval_sweep):
    calibration = diagonal_sweep(CALIBRATION_SWEEP_SEED)
    calib_trials = [(r.params["attributes"], r.params["objects"],
                     r.params["p"], r.mt_mean) for r in calibration]
    c2 = fit_lower_envelope(calib_trials)
    above = 0
    for rec in eval_sweep:
        n = rec.params["attributes"]
        mq = rec.params["objects"] * (1.0 - rec.params["p"])
        bound = n ** (math.log(mq) / math.log(1.0 / rec.params["p"])
                      + c2 * math.log(math.log(mq)))
        above += rec.mt_mean > bound
    ratio = above / len(eval_sweep)
    report(9, "per-trial counts exceed the fitted almost-sure lower bound",
           ratio >= 0.95, f"c2={c2:.3f}, {above}/{len(eval_sweep)} above")


def test_criterion_10_generator_statistics():
    p, n_cells = 0.5, 100 * 100
    sigma3 = 3 * math.sqrt(p * (1 - p) / n_cells)
    good = 0
    for seed in GEN_SINGLE_SEEDS:
        ctx = gen_single(SingleParamSpec(100, 100, p, seed=seed))
        density = sum(r.bit_count() for r in ctx.row_masks) / n_cells
        good += abs(density - p) <= sigma3
    single_ok = good >= 99

    n_attr, n_obj = 100, 1000
    ctx = gen_multi(MultiParamSpec(n_obj, n_attr, u_size=0, r_size=n_attr,
                                   seed=GEN_MULTI_SEED))
    p_r = 1 / math.log(n_attr)
    sigma3_col = 3 * math.sqrt(p_r * (1 - p_r) / n_obj)
    bad_cols = sum(
        1 for a in range(n_attr)
        if abs(column_mask(ctx, a).bit_count() / n_obj - p_r) > sigma3_col)
    multi_ok = bad_cols == 0
    report(10, "generator densities within 3 binomial sigma",
           single_ok and multi_ok,
           f"single: {good}/100 seeds, multi all-R: {bad_cols} bad columns")


def test_criterion_11_cli_determinism(toy_context_path, tmp_path):
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "implbases", *args],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    commands = [
        ("compute", toy_context_path, "--base", "both"),
        ("gen", "--model", "single", "--objects", "12", "--attributes", "9",
         "--p", "0.4", "--seed", "31"),
        ("gen", "--model", "multi", "--objects", "12", "--attributes", "9",
         "--u-size", "2", "--r-size", "3", "--x", "2", "--seed", "31"),
        ("bounds", "--attributes", "40", "--objects", "40", "--p", "0.5"),
        ("sweep", "--model", "single", "--objects", "6,8", "--attributes",
         "6,8", "--p", "0.5", "--trials", "2", "--seed", "13"),
    ]
    for args in commands:
        if run(*args) != run(*args):
            report(11, "CLI byte determinism", False, " ".join(args[:2]))

    sweep_args = ("sweep", "--model", "single", "--objects", "6,8",
                  "--attributes", "6,8", "--p", "0.5", "--trials", "2",
                  "--seed", "13")
    single_worker = run(*sweep_args, "--workers", "1")
    many_workers = run(*sweep_args, "--workers", "4")

    csv_path = tmp_path / "sweep.csv"
    csv_path.write_bytes(single_worker)
    fit_a = run("fit", str(csv_path))
    fit_b = run("fit", str(csv_path))

    report(11, "identical flags give identical bytes",
           single_worker == many_workers and fit_a == fit_b,
           f"{len(commands) + 2} command pairs compared")
