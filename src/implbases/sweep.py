"""Seeded parameter sweeps and scaling-law fits.

A sweep enumerates a parameter grid, runs seeded trials per cell, and
emits one CSV row per trial plus per-cell mean footer rows. With N > 1
workers the trials run in N processes, this one and N - 1 children it
forks, which send their records back over pipes; the records still come
back in (cell, trial) order, so the output bytes do not depend on N.
Trial seeds derive from the cell's parameters (not its position), so
editing the grid never changes the data of cells that stay in it.
A trial builds no implication base: ``bases.premise_counts`` gives its
transversal counts, premise pairs and distinct premises from the
per-attribute premise lists.
Output is byte-deterministic for a given spec; wall times are measured
but only written when explicitly requested, since they are the one
nondeterministic field. A grid that the random model or an overflowing
bound refuses in any cell is refused whole, before any trial runs. A
trial refused by a size guard becomes an error row with blank metrics,
decided before any work; the bound columns stay blank where the bound is
not defined. Nothing else makes an error row: an exception inside a
trial propagates. It is a bug, unless it is the random model's
``SampleTooLarge`` for a sample that cannot be allocated, which the CLI
prints as a refusal.

``fit_exponent`` fits the free constants of the theoretical bound to
sweep output: the average-bound constant c (with a multiplicative
leading constant, fitted in log space by least squares on cell means)
and the lower-envelope constant c2 (the smallest implied value over the
calibration trials).

Owners: the random model refuses a cell's values (the seed included)
and ``bounds`` the bound's inputs, both asked about every cell through
``_cell_bounds``; ``SweepSpec`` restates only that c and c2 are finite,
for grids where no cell evaluates a bound. The size guards' one check
and text are ``size_guard_refusal``'s, which ``compute`` also prints,
and the worker count's are ``check_workers``'s.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .bases import premise_counts, stem_base
from .bounds import (_avg_terms, _log_terms, base_size_log10, bound_defined,
                     check_finite, context_exponents)
from .randctx import (_unsigned_zero, check_sample_size,
                      effective_probabilities, gen_multi, gen_single,
                      spec_from_cell)

CSV_SCHEMA = 1

DEFAULT_MAX_PROPER_ATTRIBUTES = 64
DEFAULT_MAX_STEM_ATTRIBUTES = 24


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep.

    For the single model the grid is objects x attributes x p_values;
    for the multi model it is objects x attributes x u_sizes x r_sizes
    with shared x and f_prob.
    """

    model: str
    objects: tuple[int, ...]
    attributes: tuple[int, ...]
    p_values: tuple[float, ...] = (0.5,)
    u_sizes: tuple[int, ...] = (0,)
    r_sizes: tuple[int, ...] = (0,)
    x: float = 2.0
    f_prob: float = 0.5
    trials: int = 1
    base_seed: int = 0
    with_stem: bool = False
    c: float = 1.0
    c2: float = 0.0
    max_proper_attributes: int = DEFAULT_MAX_PROPER_ATTRIBUTES
    max_stem_attributes: int = DEFAULT_MAX_STEM_ATTRIBUTES

    def __post_init__(self) -> None:
        if self.model not in ("single", "multi"):
            raise ValueError(f"model must be 'single' or 'multi', got {self.model!r}")
        if not self.cells():
            raise ValueError("grid must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        check_finite("c", self.c)
        check_finite("c2", self.c2)
        seen = set()
        for cell in self.cells():  # model and bound refusals, before any trial
            _cell_bounds(self, cell)
            # a repeated cell would rerun its trial seeds as another cell
            key = tuple(cell.values())
            if key in seen:
                raise ValueError("grid repeats a cell: " + ", ".join(
                    f"{k}={v!r}" for k, v in cell.items() if k != "model"))
            seen.add(key)

    def cells(self) -> list[dict]:
        """Grid cells in deterministic enumeration order (the last
        parameter varies fastest). A signed zero in ``p``, ``x`` or
        ``f_prob`` is read as +0.0: it is the same cell, so it gets the
        same trial seeds and the same CSV text."""
        if self.model == "single":
            return [{"model": "single", "objects": m, "attributes": n,
                     "p": _unsigned_zero(p)}
                    for m, n, p in product(self.objects, self.attributes,
                                           self.p_values)]
        x, f_prob = _unsigned_zero(self.x), _unsigned_zero(self.f_prob)
        return [{"model": "multi", "objects": m, "attributes": n,
                 "u_size": u, "r_size": r, "x": x, "f_prob": f_prob}
                for m, n, u, r in product(self.objects, self.attributes,
                                          self.u_sizes, self.r_sizes)]


@dataclass
class TrialRecord:
    cell: int
    trial: int
    seed: int
    params: dict
    mt_min: int | None = None
    mt_mean: float | None = None
    mt_max: int | None = None
    pp_pairs: int | None = None
    pp_premises: int | None = None
    stem_count: int | None = None
    avg_exponent: float | None = None
    lower_exponent: float | None = None
    total_log10: float | None = None
    gen_ms: float | None = None
    dual_ms: float | None = None
    stem_ms: float | None = None
    error: str | None = None


def derive_trial_seed(base_seed: int, cell_params: dict, trial: int) -> int:
    """Stable 64-bit seed from (base seed, cell parameters, trial index).

    Keyed on the cell's parameter values so that growing the grid leaves
    existing cells' trials untouched.
    """
    canonical = ";".join(f"{k}={cell_params[k]!r}" for k in sorted(cell_params))
    digest = hashlib.sha256(canonical.encode()).digest()
    cell_key = int.from_bytes(digest[:8], "big")
    seq = np.random.SeedSequence(base_seed, spawn_key=(cell_key, trial))
    return int(seq.generate_state(1, np.uint64)[0])


def size_guard_refusal(n_attributes: int, max_proper_attributes: int | None,
                       max_stem_attributes: int | None) -> str | None:
    """The refusal of the first size guard that ``n_attributes``
    exceeds, or None; a guard of None (a base not computed) is skipped."""
    for base, guard in (("proper-premise", max_proper_attributes),
                        ("stem-base", max_stem_attributes)):
        if guard is not None and n_attributes > guard:
            return (f"refusing {base} computation for {n_attributes} "
                    f"attributes (guard {guard})")
    return None


def _cell_bounds(spec: SweepSpec, cell: dict) -> tuple[float | None, ...]:
    """A cell's (avg_exponent, lower_exponent, total_log10), all None
    unless the cell is the single model at one p (all column
    probabilities equal) where ``bound_defined``. Raises ``ValueError``
    where the model (seed and a count too large to sample included) or
    the bound refuses the cell."""
    model_spec = spec_from_cell(cell, spec.base_seed)
    n, m = cell["attributes"], cell["objects"]
    check_sample_size(m, n)
    probs = ({model_spec.p} if cell["model"] == "single"
             else set(effective_probabilities(model_spec)))
    p = probs.pop() if len(probs) == 1 else None
    if p is None or not bound_defined(n, m, p):
        return None, None, None
    avg, lower = context_exponents(n, m, p, spec.c, spec.c2)
    return avg, lower, base_size_log10(avg, n)


def run_trial(spec: SweepSpec, cell_index: int, cell_params: dict,
              trial: int) -> TrialRecord:
    """One trial's record. Every refusal is decided before any work: a
    trial that a size guard refuses is an error row with blank metrics,
    and the bound columns come from ``_cell_bounds``."""
    seed = derive_trial_seed(spec.base_seed, cell_params, trial)
    rec = TrialRecord(cell=cell_index, trial=trial, seed=seed, params=cell_params)
    rec.error = size_guard_refusal(
        cell_params["attributes"], spec.max_proper_attributes,
        spec.max_stem_attributes if spec.with_stem else None)
    if rec.error is not None:
        return rec
    single = cell_params["model"] == "single"
    model_spec = spec_from_cell(cell_params, seed)
    t0 = time.monotonic()
    ctx = (gen_single if single else gen_multi)(model_spec)
    t1 = time.monotonic()
    counts, rec.pp_pairs, rec.pp_premises = premise_counts(ctx)
    t2 = time.monotonic()
    rec.gen_ms = (t1 - t0) * 1000.0
    rec.dual_ms = (t2 - t1) * 1000.0
    rec.mt_min = min(counts) if counts else 0
    rec.mt_max = max(counts) if counts else 0
    rec.mt_mean = sum(counts) / len(counts) if counts else 0.0
    if spec.with_stem:
        t3 = time.monotonic()
        rec.stem_count = len(stem_base(ctx))
        rec.stem_ms = (time.monotonic() - t3) * 1000.0
    rec.avg_exponent, rec.lower_exponent, rec.total_log10 = _cell_bounds(
        spec, cell_params)
    return rec


def check_workers(workers: int) -> None:
    """Refuses a worker count below one: the one check and text of that
    refusal, which the CLI asks before it opens ``--out``."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[TrialRecord]:
    """All trial records, ordered by (cell index, trial index).

    With ``workers`` = N > 1 and more than one trial, this process runs
    every N-th trial from the first, and N - 1 forked children run the
    rest, every N-th from the second, third, ... trial (N is cut to the
    trial count). The records come back in (cell, trial) order, so they
    do not depend on ``workers``. An exception inside a trial is
    re-raised here with its type and text, and every child has exited
    before this returns or raises. With one worker, one trial, or no
    ``os.fork``, no child is forked: this process runs every trial, one
    after another.
    """
    check_workers(workers)
    jobs = [(ci, params, t) for ci, params in enumerate(spec.cells())
            for t in range(spec.trials)]
    if not hasattr(os, "fork"):
        workers = 1
    # run_trial is looked up per call, so a wrapped run_trial serves
    # this process's share as well as the children's
    return _fork_map(lambda job: run_trial(spec, *job), jobs,
                     min(workers, len(jobs)))


def _fork_map(fn: Callable, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, computed by this process
    (``items[0::workers]``) and ``workers - 1`` forked children (child k
    runs ``items[k::workers]``), each of which sends its results back
    pickled over a pipe of its own; with one worker, that is the plain
    loop, with no child and no pipe. Fork, not spawn: the children inherit
    ``fn`` unpickled, and a spawned process costs 20-30x more, a large
    share of a short sweep. The BLAS threads numpy starts stop themselves
    at fork, so unless the caller runs threads of its own, no other
    thread runs while this forks. Every read end is closed, and every
    child reaped (killed first unless all results came back), before
    this returns or raises."""
    children: list[tuple[int, int]] = []  # (pid, read end), in share order
    payloads: list[bytes] = []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child_share(fn, items[k::workers], read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        shares = [[fn(item) for item in items[::workers]]]
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())  # to EOF: the child has exited
    finally:
        statuses = []  # exit codes; minus the signal number if killed
        for pid, read_fd in children:
            os.close(read_fd)
            if len(payloads) < len(children):  # raising: stop the rest
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), status, payload in zip(children, statuses, payloads):
        if status != 0 or not payload:
            raise RuntimeError(f"sweep worker process {pid} ended with exit "
                               f"status {status} and sent no result")
        ok, value, child_traceback = pickle.loads(payload)
        if not ok:
            raise value from RuntimeError(
                f"in sweep worker process {pid}:\n{child_traceback}")
        shares.append(value)
    results = [None] * len(items)
    for k, share in enumerate(shares):
        results[k::workers] = share
    return results


def _child_share(fn: Callable, share: list, read_fd: int,
                 write_fd: int) -> NoReturn:
    """A forked child's whole life: sends ``(True, results, None)``, or
    ``(False, exception, traceback text)`` for an ``Exception`` the share
    raised, pickled to ``write_fd``, then ends in ``os._exit``, whatever
    is raised, so that it never unwinds into the caller's stack or runs
    its exit handlers; on anything else (``SystemExit``,
    ``KeyboardInterrupt``) it sends nothing and exits with status 1. An
    exception that does not survive pickling is sent as a
    ``RuntimeError`` with its type name and text."""
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, [fn(item) for item in share], None))
        except Exception as exc:
            import traceback
            child_traceback = traceback.format_exc()
            try:
                payload = pickle.dumps((False, exc, child_traceback))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, RuntimeError(
                    f"{type(exc).__name__}: {exc}"), child_traceback))
        with open(write_fd, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


# -- CSV rendering -------------------------------------------------------------


MEAN_FIELDS = ("mt_min", "mt_mean", "mt_max", "pp_pairs", "pp_premises",
               "stem_count")  # averaged in a cell's footer row
TIMING_FIELDS = ("gen_ms", "dual_ms", "stem_ms")  # written on request
_RECORD_FIELDS = [f.name for f in fields(TrialRecord)]
_PARAMS = _RECORD_FIELDS.index("params")
# a trial's position, its cell's parameters, then its results: the
# record's fields after ``params``, in their order
RESULT_COLUMNS = _RECORD_FIELDS[_PARAMS + 1:]
CSV_COLUMNS = ["row", *_RECORD_FIELDS[:_PARAMS], "model", "objects",
               "attributes", "p", "u_size", "r_size", "x", "f_prob",
               *RESULT_COLUMNS]


def record_fields(rec: TrialRecord, timings: bool = False) -> dict:
    """Output fields of one record: its position, cell parameters and
    results, plus wall times on request. The one mapping behind CSV
    rows (trial and cell-mean) and sweep JSON entries."""
    names = [name for name in RESULT_COLUMNS
             if timings or name not in TIMING_FIELDS]
    return {"cell": rec.cell, "trial": rec.trial, "seed": rec.seed,
            **rec.params, **{name: getattr(rec, name) for name in names}}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(spec: SweepSpec, records: Sequence[TrialRecord],
               include_timings: bool = False) -> str:
    """Schema-versioned CSV: '#' header comments, one row per trial,
    per-cell mean footer rows. LF line endings throughout."""
    buf = io.StringIO()
    buf.write(f"# schema={CSV_SCHEMA}\n")
    buf.write(f"# model={spec.model}\n")
    buf.write(f"# base_seed={spec.base_seed}\n")
    buf.write(f"# trials={spec.trials}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)

    def write_row(kind: str, rec: TrialRecord, timings: bool) -> None:
        values = {"row": kind, **record_fields(rec, timings)}
        writer.writerow([_fmt(values.get(c)) for c in CSV_COLUMNS])

    by_cell: dict[int, list[TrialRecord]] = {}
    for rec in records:
        write_row("trial", rec, include_timings)
        by_cell.setdefault(rec.cell, []).append(rec)

    for cell in sorted(by_cell):
        good = [r for r in by_cell[cell] if r.error is None]
        if not good:
            continue

        def mean(attr: str) -> float | None:
            vals = [getattr(r, attr) for r in good]
            if any(v is None for v in vals):
                return None
            return sum(vals) / len(vals)

        # bound columns depend on the cell only: take the first trial's
        write_row("cell_mean", replace(
            good[0], trial=len(good), seed=None,
            **{name: mean(name) for name in MEAN_FIELDS}), False)
    return buf.getvalue()


def parse_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV as dicts; '#' comment lines skipped. Raises
    ``ValueError`` unless the ``# schema=`` line names this schema."""
    lines = text.split("\n")
    schema = next((l[len("# schema="):] for l in lines
                   if l.startswith("# schema=")), "missing")
    if schema != str(CSV_SCHEMA):
        raise ValueError(
            f"sweep CSV schema is {schema}, expected {CSV_SCHEMA}")
    lines = [l for l in lines if l and not l.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


# -- fitting --------------------------------------------------------------------


class FitError(ValueError):
    """Fit cannot be performed (too few cells or singular design)."""


@dataclass
class CellStat:
    attributes: int
    objects: int
    p: float
    mean_count: float
    fitted_count: float = 0.0
    residual_ln: float = 0.0
    relative_residual: float = 0.0


@dataclass
class FitResult:
    c: float
    log_k: float            # natural log of the multiplicative constant
    c2: float | None        # lower-envelope constant; None without trial data
    cells: list[CellStat] = field(default_factory=list)

    @property
    def max_relative_residual(self) -> float:
        return max((s.relative_residual for s in self.cells), default=0.0)


def _bound_terms(n: int, m_objects: int, p: float) -> tuple[float, float]:
    """Fixed term A and c-coefficient B of ln(bound) = A + c*B: the two
    terms of `avg_pp_exponent` times ln(n)."""
    try:
        fixed, lnln = _avg_terms(n, m_objects, p)
    except ValueError as exc:  # a cell that the bound does not cover
        raise FitError(str(exc)) from None
    ln_n = math.log(n)
    return fixed * ln_n, lnln * ln_n


def fit_exponent(rows: Iterable[dict | TrialRecord]) -> FitResult:
    """Least-squares fit of the average-bound constants to sweep data.

    Model: ln(mean per-attribute count) = log_k + A(n, m, p) + c * B(n, m, p)
    with A, B the fixed and c-linear parts of `avg_pp_exponent` times
    ln(n), built from the terms in `bounds`. Trial records and CSV rows
    pass one filter: single-model trial rows without an error whose
    mt_mean is not blank. Also computes the lower-envelope constant c2
    as the minimum implied value over individual trials, so the
    corresponding lower bound sits at or below every calibration trial.
    """
    trials: list[tuple[int, int, float, float]] = []  # (n, m, p, mt_mean)
    for row in rows:
        if isinstance(row, TrialRecord):
            row = {"row": "trial", **record_fields(row)}
        if (row.get("row") != "trial" or row.get("error")
                or row.get("model") != "single"
                or row.get("mt_mean") in ("", None)):
            continue
        trials.append((int(row["attributes"]), int(row["objects"]),
                       float(row["p"]), float(row["mt_mean"])))
    cells: dict[tuple[int, int, float], list[float]] = {}
    for n, m, p, count in trials:
        cells.setdefault((n, m, p), []).append(count)
    if len(cells) < 3:
        raise FitError(
            f"singular fit: need >= 3 distinct grid cells, got {len(cells)}")

    keys = sorted(cells)
    means = [sum(cells[key]) / len(cells[key]) for key in keys]
    a_terms, b_terms, y = [], [], []
    for (n, m, p), mean_count in zip(keys, means):
        a_t, b_t = _bound_terms(n, m, p)
        if mean_count <= 0:
            raise FitError("cell mean count must be positive to fit in log space")
        a_terms.append(a_t)
        b_terms.append(b_t)
        y.append(math.log(mean_count))
    design = np.column_stack([np.ones(len(keys)), np.array(b_terms)])
    target = np.array(y) - np.array(a_terms)
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 2:
        raise FitError("singular fit: design matrix is rank-deficient")
    log_k, c = float(solution[0]), float(solution[1])

    stats = []
    for i, ((n, m, p), mean_count) in enumerate(zip(keys, means)):
        fitted_ln = log_k + a_terms[i] + c * b_terms[i]
        fitted = math.exp(fitted_ln)
        stats.append(CellStat(
            attributes=n, objects=m, p=p, mean_count=mean_count,
            fitted_count=fitted,
            residual_ln=y[i] - fitted_ln,
            relative_residual=abs(fitted - mean_count) / mean_count,
        ))

    c2 = fit_lower_envelope(trials)
    return FitResult(c=c, log_k=log_k, c2=c2, cells=stats)


def fit_lower_envelope(
        trials: Sequence[tuple[int, int, float, float]]) -> float | None:
    """Smallest implied c2 over per-trial counts: with this constant the
    lower bound n^(log_{1/p}(mq) + c2*lnln(mq)) does not exceed any
    calibration trial."""
    implied = []
    for n, m, p, count in trials:
        if not bound_defined(n, m, p) or count <= 0:
            continue
        log_base, lnln = _log_terms(n, m, p)
        implied.append((math.log(count) / math.log(n) - log_base) / lnln)
    return min(implied) if implied else None
