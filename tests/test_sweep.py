import dataclasses
import math
import os
import sys
import warnings

import pytest

from implbases import (FitError, FormalContext, SingleParamSpec, SweepSpec,
                       almost_sure_lower_exponent, avg_pp_exponent,
                       base_size_log10, derive_trial_seed, fit_exponent,
                       fit_lower_envelope, gen_multi, gen_single, parse_csv,
                       proper_premise_base, render_csv, run_sweep)
import implbases.sweep as sweep_mod
from implbases.bases import dualize_attribute, premise_counts
from implbases.randctx import spec_from_cell
from implbases.sweep import CSV_COLUMNS, TIMING_FIELDS, TrialRecord


def small_spec(**overrides):
    kwargs = dict(model="single", objects=(5,), attributes=(5,),
                  p_values=(0.5,), trials=1, base_seed=7)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(model="other")
    with pytest.raises(ValueError):
        small_spec(objects=())
    with pytest.raises(ValueError):
        small_spec(trials=0)


def test_single_cell_schema():
    spec = small_spec()
    records = run_sweep(spec)
    assert len(records) == 1
    csv_text = render_csv(spec, records)
    rows = parse_csv(csv_text)
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 2  # one trial row + one footer
    assert rows[0]["row"] == "trial"
    assert rows[1]["row"] == "cell_mean"
    assert csv_text.startswith("# schema=1\n")


def test_csv_byte_deterministic_and_worker_independent():
    spec = small_spec(objects=(5, 8), attributes=(5, 6), trials=3)
    a = render_csv(spec, run_sweep(spec, workers=1))
    b = render_csv(spec, run_sweep(spec, workers=4))
    c = render_csv(spec, run_sweep(spec, workers=1))
    assert a == b == c


def test_timings_excluded_by_default_included_on_request():
    spec = small_spec()
    records = run_sweep(spec)
    assert records[0].gen_ms is not None  # measured in memory
    plain = parse_csv(render_csv(spec, records))
    assert plain[0]["gen_ms"] == ""
    timed = parse_csv(render_csv(spec, records, include_timings=True))
    assert float(timed[0]["gen_ms"]) >= 0.0


def test_trial_seeds_keyed_on_cell_parameters():
    """Growing the grid must not change the data of existing cells."""
    short = SweepSpec(model="single", objects=(10,), attributes=(10, 15),
                      p_values=(0.5,), trials=2, base_seed=3)
    longer = SweepSpec(model="single", objects=(10, 20), attributes=(10, 15, 20),
                       p_values=(0.3, 0.5), trials=2, base_seed=3)
    by_key_short = {(r.params["objects"], r.params["attributes"],
                     r.params["p"], r.trial): r.seed for r in run_sweep(short)}
    by_key_long = {(r.params["objects"], r.params["attributes"],
                    r.params["p"], r.trial): r.seed for r in run_sweep(longer)}
    for key, seed in by_key_short.items():
        assert by_key_long[key] == seed


def test_derive_trial_seed_stable_values():
    params = {"model": "single", "objects": 10, "attributes": 10, "p": 0.5}
    a = derive_trial_seed(1, params, 0)
    assert a == derive_trial_seed(1, params, 0)
    assert a != derive_trial_seed(1, params, 1)
    assert a != derive_trial_seed(2, params, 0)


def test_records_sorted_and_counts_consistent():
    spec = small_spec(objects=(5, 6), trials=2)
    records = run_sweep(spec)
    assert [(r.cell, r.trial) for r in records] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    for r in records:
        assert r.error is None
        assert r.stem_count is None  # stem off by default
        assert r.mt_min <= r.mt_mean <= r.mt_max
        assert r.pp_premises <= r.pp_pairs


def test_stem_toggle_and_invariant():
    spec = small_spec(with_stem=True, trials=3)
    for r in run_sweep(spec):
        assert r.error is None
        assert r.stem_count is not None
        assert r.stem_count <= r.pp_premises


def test_guard_produces_error_row_and_sweep_continues():
    spec = SweepSpec(model="single", objects=(5,), attributes=(5, 30),
                     p_values=(0.5,), trials=1, base_seed=1,
                     max_proper_attributes=20)
    records = run_sweep(spec)
    assert records[0].error is None
    assert records[1].error is not None and "guard" in records[1].error
    rows = parse_csv(render_csv(spec, records))
    error_rows = [r for r in rows if r["error"]]
    assert len(error_rows) == 1
    assert error_rows[0]["mt_mean"] == ""


def test_multi_model_sweep():
    spec = SweepSpec(model="multi", objects=(8,), attributes=(6,),
                     u_sizes=(0, 2), r_sizes=(0, 3), x=2.0, f_prob=0.5,
                     trials=2, base_seed=11)
    records = run_sweep(spec)
    assert len(records) == 8
    assert all(r.error is None for r in records)
    # bound columns apply where the context is the single model at one p:
    # here only u = r = 0 (ubiquitous p = 0.75, rare p = 1/ln 6 differ from 0.5)
    assert [r.avg_exponent is not None for r in records] == [True] * 2 + [False] * 6


def test_multi_cells_that_are_the_single_model_carry_its_bounds():
    n, m, f_prob, c, c2 = 8, 20, 0.5, 1.3, -0.2
    spec = SweepSpec(model="multi", objects=(m,), attributes=(n,),
                     u_sizes=(0,), r_sizes=(0, n), f_prob=f_prob, c=c, c2=c2,
                     trials=1, base_seed=4)
    free, rare = run_sweep(spec)
    for rec, p in ((free, f_prob), (rare, 1 / math.log(n))):
        assert rec.avg_exponent == avg_pp_exponent(n, m, p, c)
        assert rec.lower_exponent == almost_sure_lower_exponent(n, m, p, c2)
        assert rec.total_log10 == base_size_log10(rec.avg_exponent, n)


def test_theoretical_exponent_columns():
    spec = small_spec(objects=(20,), attributes=(10,), trials=1)
    rec = run_sweep(spec)[0]
    assert rec.avg_exponent == pytest.approx(
        math.log2(10) + math.log(math.log(10)), abs=1e-12)
    assert rec.lower_exponent == pytest.approx(math.log2(10), abs=1e-12)
    # degenerate-dense cell leaves bound columns empty instead of failing
    spec = small_spec(objects=(5,), attributes=(5,), p_values=(0.9,))
    rec = run_sweep(spec)[0]
    assert rec.error is None and rec.avg_exponent is None


# -- fitting -----------------------------------------------------------------------


def synthetic_rows(c, log_k=0.0, p=0.5):
    rows = []
    for nm in (10, 15, 20, 25, 30):
        mq = nm * (1 - p)
        exponent = (math.log(mq) / math.log(1 / p)
                    + c * math.log(math.log(mq)))
        count = math.exp(log_k) * nm ** exponent
        rows.append({"row": "trial", "error": "", "model": "single",
                     "attributes": str(nm), "objects": str(nm), "p": repr(p),
                     "mt_mean": repr(count)})
    return rows


def test_fit_round_trip_recovers_constant():
    result = fit_exponent(synthetic_rows(c=2.0))
    assert result.c == pytest.approx(2.0, abs=1e-6)
    assert result.log_k == pytest.approx(0.0, abs=1e-6)
    assert result.max_relative_residual < 1e-9


def test_fit_round_trip_with_leading_constant():
    result = fit_exponent(synthetic_rows(c=-1.25, log_k=0.7))
    assert result.c == pytest.approx(-1.25, abs=1e-6)
    assert result.log_k == pytest.approx(0.7, abs=1e-6)


def test_fit_requires_three_distinct_cells():
    rows = synthetic_rows(c=1.0)[:2]
    with pytest.raises(FitError):
        fit_exponent(rows)
    # constant rows: many trials of one cell is still a single cell
    with pytest.raises(FitError):
        fit_exponent(synthetic_rows(c=1.0)[:1] * 10)


def test_fit_skips_error_and_footer_rows():
    rows = synthetic_rows(c=1.5)
    rows.append({"row": "cell_mean", "error": "", "model": "single",
                 "attributes": "99", "objects": "99", "p": "0.5",
                 "mt_mean": "123456.0"})
    rows.append({"row": "trial", "error": "boom", "model": "single",
                 "attributes": "40", "objects": "40", "p": "0.5",
                 "mt_mean": ""})
    result = fit_exponent(rows)
    assert result.c == pytest.approx(1.5, abs=1e-6)


def test_fit_accepts_trial_records():
    spec = SweepSpec(model="single", objects=(10, 14, 18), attributes=(10, 14, 18),
                     p_values=(0.5,), trials=2, base_seed=77)
    result = fit_exponent(run_sweep(spec))
    assert math.isfinite(result.c) and math.isfinite(result.log_k)
    assert result.c2 is not None


def test_lower_envelope_sits_below_all_calibration_trials():
    trials = [(nm, nm, 0.5, count)
              for nm, count in ((10, 12.0), (15, 60.0), (20, 220.0))]
    c2 = fit_lower_envelope(trials)
    for n, m, p, count in trials:
        mq = m * (1 - p)
        bound = n ** (math.log(mq) / math.log(1 / p)
                      + c2 * math.log(math.log(mq)))
        assert bound <= count * (1 + 1e-9)
    # at least one trial sits exactly on the envelope
    assert any(
        abs(n ** (math.log(m * (1 - p)) / math.log(1 / p)
                  + c2 * math.log(math.log(m * (1 - p)))) - count) < 1e-6
        for n, m, p, count in trials)


def test_lower_envelope_empty_when_no_usable_trials():
    assert fit_lower_envelope([(10, 4, 0.5, 3.0)]) is None
    assert fit_lower_envelope([(1, 10, 0.5, 3.0)]) is None  # no bound at n = 1


def test_run_trial_lets_bugs_propagate(monkeypatch):
    """Only refusals (ValueError) become error rows; anything else is a
    bug and must surface."""

    def broken(ctx):
        raise RuntimeError("stem base bug")

    monkeypatch.setattr(sweep_mod, "stem_base", broken)
    spec = small_spec(with_stem=True)
    with pytest.raises(RuntimeError, match="stem base bug"):
        sweep_mod.run_trial(spec, 0, spec.cells()[0], 0)


@pytest.mark.parametrize("overrides", [
    dict(attributes=(8,), max_proper_attributes=6),
    dict(attributes=(8,), with_stem=True, max_stem_attributes=6),
])
def test_size_guards_refuse_before_any_work(overrides, monkeypatch):
    """A refused trial generates and dualizes nothing, and its row
    carries the refusal with every metric blank."""

    def no_work(*args):
        raise AssertionError("a refused trial did work")

    for name in ("gen_single", "premise_counts", "stem_base"):
        monkeypatch.setattr(sweep_mod, name, no_work)
    spec = small_spec(objects=(10,), **overrides)
    rec = sweep_mod.run_trial(spec, 0, spec.cells()[0], 0)
    assert rec.error.startswith("refusing ") and "guard 6" in rec.error
    fields = sweep_mod.record_fields(rec, timings=True)
    assert all(fields[name] is None for name in sweep_mod.RESULT_COLUMNS
               if name != "error")


def test_fit_refuses_a_one_attribute_cell():
    rows = [{"row": "trial", "error": "", "model": "single",
             "attributes": str(n), "objects": "10", "p": "0.5",
             "mt_mean": "1.0"} for n in (1, 6, 7)]
    with pytest.raises(FitError, match=r"^n_attributes must be >= 2, got 1$"):
        fit_exponent(rows)


def assert_counts_match_the_base(rec, ctx):
    """The count-only trial path against the full base and the raw
    per-attribute transversal counts."""
    n = ctx.n_attributes
    raw = [len(dualize_attribute(ctx.row_masks, n, a)) for a in range(n)]
    base = proper_premise_base(ctx)
    assert (rec.mt_min, rec.mt_max) == (min(raw), max(raw))
    assert rec.mt_mean == sum(raw) / n
    assert rec.pp_pairs == base.pair_count
    assert rec.pp_premises == base.premise_count


def test_trial_counts_match_proper_premise_base():
    spec = small_spec(objects=(9,), attributes=(8,), trials=3)
    for rec in run_sweep(spec):
        assert_counts_match_the_base(rec, gen_single(SingleParamSpec(
            n_objects=9, n_attributes=8, p=0.5, seed=rec.seed)))


@pytest.mark.parametrize("u, r", [(0, 12), (0, 7), (9, 3)])
def test_multi_model_trial_counts_match_the_base(u, r):
    # all-rare, polylog-rare (r = ceil(ln^2 n)) and mostly-ubiquitous
    # (u = n - ceil(ln n)) cells at n = m = 12: skewed columns, many
    # shared premises
    spec = SweepSpec(model="multi", objects=(12,), attributes=(12,),
                     u_sizes=(u,), r_sizes=(r,), trials=3, base_seed=3)
    for rec in run_sweep(spec):
        ctx = gen_multi(spec_from_cell(rec.params, rec.seed))
        assert_counts_match_the_base(rec, ctx)


@pytest.mark.parametrize("rows", [
    [[1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0]],  # all three
    [[1, 1, 0], [1, 1, 0], [1, 1, 0]],   # identical rows, full and empty
    [[0, 0, 0], [0, 0, 0]],              # every column empty
    [[1, 1, 1], [1, 1, 1]],              # every column full
    [[1, 0, 1, 1, 0], [0, 1, 1, 1, 0], [1, 1, 1, 0, 0], [0, 1, 1, 1, 0]],
])
def test_trial_counts_on_full_empty_columns_and_duplicate_rows(rows, monkeypatch):
    ctx = FormalContext(rows)
    monkeypatch.setattr(sweep_mod, "gen_single", lambda spec: ctx)
    spec = small_spec(objects=(ctx.n_objects,), attributes=(ctx.n_attributes,))
    rec = sweep_mod.run_trial(spec, 0, spec.cells()[0], 0)
    assert rec.error is None
    assert_counts_match_the_base(rec, ctx)


@pytest.mark.parametrize("n", [63, 64, 65, 70])
@pytest.mark.parametrize("m", [3, 4])
def test_trial_counts_on_masks_at_and_past_64_bits(n, m, monkeypatch):
    # rows 0-2 miss every third attribute, row 3 every fifth: premises
    # of one and two attributes, shared between attributes, and the top
    # attribute is in some row, so its bit (2**63 at n = 64) is a premise
    rows = [[a % 3 != o for a in range(n)] for o in range(min(m, 3))]
    rows += [[a % 5 != 0 for a in range(n)]] * (m - 3)
    assert any(row[-1] for row in rows)
    ctx = FormalContext(rows)
    monkeypatch.setattr(sweep_mod, "gen_single", lambda spec: ctx)
    spec = small_spec(objects=(m,), attributes=(n,), max_proper_attributes=n)
    rec = sweep_mod.run_trial(spec, 0, spec.cells()[0], 0)
    assert rec.error is None
    assert rec.pp_premises < rec.pp_pairs
    assert_counts_match_the_base(rec, ctx)


def test_premise_counts_of_a_context_without_attributes():
    ctx = FormalContext([[], [], []], n_attributes=0)
    assert premise_counts(ctx) == ([], 0, 0)


def test_fit_recovers_the_bound_columns_constants():
    """Counts placed exactly on `avg_pp_exponent` (the sweep's
    avg_exponent column) give back its c and no leading constant, and a
    trial exactly on `almost_sure_lower_exponent` gives back its c2."""
    for p in (0.3, 0.7):
        rows = [{"row": "trial", "error": "", "model": "single",
                 "attributes": str(n), "objects": str(m), "p": repr(p),
                 "mt_mean": repr(n ** avg_pp_exponent(n, m, p, 0.8))}
                for n in (10, 20, 40) for m in (20, 60)]
        result = fit_exponent(rows)
        assert result.c == pytest.approx(0.8, abs=1e-9)
        assert result.log_k == pytest.approx(0.0, abs=1e-9)
    for p in (0.3, 0.7):
        count = 20 ** almost_sure_lower_exponent(20, 30, p, -0.4)
        assert fit_lower_envelope([(20, 30, p, count)]) == pytest.approx(
            -0.4, abs=1e-9)


def test_fit_refuses_a_cell_at_p_zero():
    """log_{1/p} has no base at p = 0: a refusal, not a ZeroDivisionError."""
    rows = [{"row": "trial", "error": "", "model": "single",
             "attributes": str(n), "objects": "10", "p": "0.0",
             "mt_mean": "1.0"} for n in (5, 6, 7)]
    with pytest.raises(FitError, match=r"^p must be in \(0, 1\), got 0\.0$"):
        fit_exponent(rows)


def test_spec_refuses_negative_seed():
    with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
        small_spec(base_seed=-1)
    assert small_spec(base_seed=0).base_seed == 0


@pytest.mark.parametrize("overrides, message", [
    (dict(objects=(-3,)), "counts must be >= 0"),
    (dict(p_values=(1.5,)), "p must be in [0, 1], got 1.5"),
    (dict(p_values=(float("nan"),)), "p must be in [0, 1], got nan"),
    (dict(model="multi", u_sizes=(-1,)), "class sizes must be >= 0"),
    (dict(model="multi", attributes=(2, 5), r_sizes=(1,)),
     "rare attributes require n_attributes >= 3 (1/ln n must be < 1)"),
    (dict(model="multi", u_sizes=(2,), x=float("nan")), "x must be >= 0"),
])
def test_spec_refuses_a_grid_the_model_refuses(overrides, message):
    with pytest.raises(ValueError) as info:
        small_spec(**overrides)
    assert str(info.value) == message


@pytest.mark.parametrize("overrides, shown", [
    (dict(objects=(5, 5)), "objects=5, attributes=5, p=0.5"),
    (dict(attributes=(4, 5, 4)), "objects=5, attributes=4, p=0.5"),
    (dict(p_values=(0.5, 0.3, 0.5)), "objects=5, attributes=5, p=0.5"),
    (dict(p_values=(0.0, -0.0)), "objects=5, attributes=5, p=0.0"),
    (dict(model="multi", u_sizes=(1, 1)),
     "objects=5, attributes=5, u_size=1, r_size=0, x=2.0, f_prob=0.5"),
    (dict(model="multi", r_sizes=(0, 2, 2)),
     "objects=5, attributes=5, u_size=0, r_size=2, x=2.0, f_prob=0.5"),
])
def test_spec_refuses_a_grid_that_repeats_a_cell(overrides, shown):
    """Its trials would share their seeds with the first copy's."""
    with pytest.raises(ValueError) as info:
        small_spec(**overrides)
    assert str(info.value) == f"grid repeats a cell: {shown}"


@pytest.mark.parametrize("overrides", [
    dict(u_sizes=(1, 1), r_sizes=(0, 0), x=2.0),
    dict(model="multi", p_values=(0.5, 0.5)),
])
def test_an_axis_the_model_does_not_read_is_not_checked(overrides):
    assert len(small_spec(**overrides).cells()) == 1


def test_spec_from_cell_matches_hand_built_specs():
    """Every cell of the SINGLE and MULTI sweep grids pinned in
    test_output_bytes.py maps to the spec written out by hand."""
    from implbases.randctx import MultiParamSpec, SingleParamSpec, spec_from_cell

    single = SweepSpec(model="single", objects=(6, 8), attributes=(6, 7),
                       p_values=(0.3, 0.5), trials=2, base_seed=11)
    hand = [SingleParamSpec(n_objects=m, n_attributes=n, p=p, seed=s)
            for m in (6, 8) for n in (6, 7) for p in (0.3, 0.5) for s in (0, 5)]
    assert [spec_from_cell(cell, s) for cell in single.cells()
            for s in (0, 5)] == hand
    multi = SweepSpec(model="multi", objects=(10,), attributes=(8,),
                      u_sizes=(0, 2), r_sizes=(0, 3), trials=2, base_seed=13)
    hand = [MultiParamSpec(n_objects=10, n_attributes=8, u_size=u, r_size=r,
                           x=2.0, f_prob=0.5, seed=s)
            for u in (0, 2) for r in (0, 3) for s in (0, 5)]
    assert [spec_from_cell(cell, s) for cell in multi.cells()
            for s in (0, 5)] == hand


# 2 x 2 cells x 2 trials: 8 jobs
POOL_GRID = dict(objects=(5, 8), attributes=(5, 6), trials=2, with_stem=True)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if sys.platform == "linux" else []


@pytest.fixture
def leaves_nothing():
    """After the test: no child process is left, and no file descriptor
    stays open (on Linux)."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


def assert_same_records(serial, pooled):
    assert len(pooled) == len(serial)
    for a, b in zip(serial, pooled):
        for f in dataclasses.fields(TrialRecord):
            if f.name in TIMING_FIELDS:
                assert getattr(b, f.name) is not None  # measured where it ran
            else:
                assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_pooled_records_equal_serial_records(leaves_nothing):
    spec = small_spec(**POOL_GRID)
    serial = run_sweep(spec, workers=1)
    assert len(serial) == 8
    assert_same_records(serial, run_sweep(spec, workers=2))


@pytest.mark.parametrize("workers, trials", [
    (2, 7), (3, 7), (5, 7),  # uneven shares
    (3, 2), (5, 3),          # more workers than trials
])
def test_pooled_records_equal_serial_records_for_any_share(
        workers, trials, leaves_nothing):
    spec = small_spec(trials=trials, with_stem=True)
    assert_same_records(run_sweep(spec, workers=1),
                        run_sweep(spec, workers=workers))


def log_trial_pids(monkeypatch, log):
    """Makes every trial append "pid cell trial" to ``log``."""
    real = sweep_mod.run_trial

    def logged(spec, cell_index, cell_params, trial):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {cell_index} {trial}\n")
        return real(spec, cell_index, cell_params, trial)

    monkeypatch.setattr(sweep_mod, "run_trial", logged)


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_trials_split_between_caller_and_children(
        workers, monkeypatch, tmp_path, leaves_nothing):
    """This process runs jobs[0::N]; N - 1 children run the rest."""
    log = tmp_path / "pids"
    log_trial_pids(monkeypatch, log)
    spec = small_spec(**POOL_GRID)
    run_sweep(spec, workers=workers)
    entries = [line.split(" ", 1)
               for line in log.read_text(encoding="ascii").splitlines()]
    jobs = [f"{ci} {t}" for ci in range(len(spec.cells()))
            for t in range(spec.trials)]
    assert [job for pid, job in entries
            if pid == str(os.getpid())] == jobs[0::workers]
    assert sorted(job for _, job in entries) == sorted(jobs)
    assert len({pid for pid, _ in entries}) == workers


def fail_in(where, exc, monkeypatch):
    """Makes every trial raise ``exc`` in the caller (``where`` is
    "caller") or in the forked children ("child"); the others run."""
    caller = os.getpid()
    real = sweep_mod.run_trial

    def failing(*args):
        if (os.getpid() == caller) == (where == "caller"):
            raise exc
        return real(*args)

    monkeypatch.setattr(sweep_mod, "run_trial", failing)


def test_pooled_trial_exception_propagates_with_its_type(monkeypatch,
                                                          leaves_nothing):
    def broken(model_spec):
        raise RuntimeError("generator bug")

    monkeypatch.setattr(sweep_mod, "gen_single", broken)
    with pytest.raises(RuntimeError, match="^generator bug$"):
        run_sweep(small_spec(**POOL_GRID), workers=2)


@pytest.mark.parametrize("where", ["caller", "child"])
def test_exception_in_either_share_propagates_with_its_type(
        where, monkeypatch, leaves_nothing):
    fail_in(where, LookupError("trial bug"), monkeypatch)
    with pytest.raises(LookupError, match="^trial bug$"):
        run_sweep(small_spec(**POOL_GRID), workers=3)


class CarriesALambda(Exception):
    def __init__(self, text):
        super().__init__(text)
        self.hook = lambda: None  # no pickle


class TakesTwoArguments(Exception):
    def __init__(self, first, second):  # pickles, but does not unpickle
        super().__init__(f"{first} and {second}")


@pytest.mark.parametrize("exc, text", [
    (CarriesALambda("no pickle"), "CarriesALambda: no pickle"),
    (TakesTwoArguments("one", "two"), "TakesTwoArguments: one and two"),
])
def test_child_exception_that_does_not_pickle_comes_back_as_runtime_error(
        exc, text, monkeypatch, leaves_nothing):
    fail_in("child", exc, monkeypatch)
    with pytest.raises(RuntimeError, match=f"^{text}$"):
        run_sweep(small_spec(**POOL_GRID), workers=2)


def test_child_that_exits_without_a_result_raises_one_error(monkeypatch,
                                                            leaves_nothing):
    caller = os.getpid()
    real = sweep_mod.run_trial

    def exiting(*args):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(sweep_mod, "run_trial", exiting)
    with pytest.raises(RuntimeError, match=(
            r"^sweep worker process \d+ ended with exit status 3 "
            r"and sent no result$")):
        run_sweep(small_spec(**POOL_GRID), workers=2)


def test_system_exit_in_a_child_never_returns_into_the_caller(
        monkeypatch, tmp_path, leaves_nothing):
    """A child ends in os._exit whatever its trial raises, so only this
    process runs the code after run_sweep."""
    fail_in("child", SystemExit(4), monkeypatch)
    log = tmp_path / "after"
    with pytest.raises(BaseException) as raised:  # whatever unwinds to here
        run_sweep(small_spec(**POOL_GRID), workers=2)
    with open(log, "a", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")
    assert raised.type is RuntimeError
    assert "with exit status 1 and sent no result" in str(raised.value)
    assert log.read_text(encoding="ascii").split() == [str(os.getpid())]


def test_without_fork_every_trial_runs_in_this_process(
        monkeypatch, tmp_path, leaves_nothing):
    spec = small_spec(**POOL_GRID)
    serial = run_sweep(spec, workers=1)
    log = tmp_path / "pids"
    log_trial_pids(monkeypatch, log)
    monkeypatch.delattr(os, "fork")
    assert_same_records(serial, run_sweep(spec, workers=3))
    pids = {line.split(" ", 1)[0]
            for line in log.read_text(encoding="ascii").splitlines()}
    assert pids == {str(os.getpid())}


def test_pooled_sweep_warns_nothing():
    """Python 3.12+ warns when a process that runs threads forks; the
    sweep starts no thread, and numpy's BLAS threads stop at fork."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(small_spec(**POOL_GRID), workers=2)
    assert [str(w.message) for w in caught] == []


def test_run_sweep_refuses_fewer_than_one_worker():
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
            run_sweep(small_spec(), workers=workers)
