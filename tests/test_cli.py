import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implbases import (FormalContext, SingleParamSpec, gen_single, parse_csv,
                       proper_premise_base, read_burmeister_file, stem_base,
                       write_burmeister)
from implbases.cli import _JSON_PIECE, _write_bases_json

from conftest import attribute_names, implication_bases
from oracles import bases_json


def run_cli(*args, expect_code=0):
    proc = subprocess.run([sys.executable, "-m", "implbases", *args],
                          capture_output=True)
    assert proc.returncode == expect_code, (
        args, proc.returncode, proc.stderr.decode())
    return proc


def test_compute_proper_listing(toy_context_path):
    out = run_cli("compute", toy_context_path).stdout.decode()
    lines = out.strip().split("\n")
    assert "a2 a3 a5 -> a1" in lines
    assert "a3 a4 a5 -> a1" in lines
    assert "a3 a4 -> a2" in lines
    assert lines[-1].startswith("# proper: implications=")


def test_compute_both_bases(toy_context_path):
    out = run_cli("compute", toy_context_path, "--base", "both").stdout.decode()
    assert "# base=proper" in out and "# base=stem" in out
    assert "# stem: implications=6" in out


def test_compute_json(toy_context_path):
    out = run_cli("compute", toy_context_path, "--format", "json").stdout
    payload = json.loads(out)
    assert payload["attributes"] == 5
    imps = payload["bases"]["proper"]["implications"]
    assert {"premise": ["a2", "a3", "a5"], "conclusion": ["a1"]} in imps


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_reads_a_csv_matrix_as_its_burmeister_file(fmt, tmp_path):
    cxt, csv = tmp_path / "g.cxt", tmp_path / "g.csv"
    run_cli("gen", "--objects", "12", "--attributes", "9", "--p", "0.4",
            "--seed", "11", "--out", str(cxt))
    ctx = read_burmeister_file(str(cxt))
    csv.write_text("".join(
        ",".join(str(row >> a & 1) for a in range(ctx.n_attributes)) + "\n"
        for row in ctx.row_masks))
    outs = [run_cli("compute", str(path), "--base", "both",
                    "--format", fmt).stdout for path in (cxt, csv)]
    assert outs[0] == outs[1]
    assert b"proper" in outs[0] and b"stem" in outs[0]


def test_compute_full_relation_empty_premise(tmp_path):
    path = tmp_path / "full.cxt"
    path.write_text("B\n\n3\n3\n\no1\no2\no3\na1\na2\na3\nXXX\nXXX\nXXX\n")
    out = run_cli("compute", str(path)).stdout.decode()
    assert out.splitlines()[0] == "-> a1 a2 a3"


def test_compute_parse_error_exit(tmp_path):
    path = tmp_path / "bad.cxt"
    path.write_text("B\n\n2\n2\n\no1\no2\na1\na2\nX?\n..\n")
    proc = run_cli("compute", str(path), expect_code=2)
    assert b"line 10" in proc.stderr and b"column 2" in proc.stderr


def test_compute_empty_context_file_rejected(tmp_path):
    path = tmp_path / "empty.cxt"
    path.write_text("B\n\n0\n0\n\n")
    proc = run_cli("compute", str(path), expect_code=2)
    assert b"empty" in proc.stderr


def test_compute_missing_file(tmp_path):
    run_cli("compute", str(tmp_path / "nope.cxt"), expect_code=2)


def test_compute_stem_size_guard(tmp_path):
    rows = "\n".join("." * 25 for _ in range(2))
    names = "\n".join(f"o{i}" for i in range(2)) + "\n" + \
        "\n".join(f"a{i}" for i in range(25))
    path = tmp_path / "wide.cxt"
    path.write_text(f"B\n\n2\n25\n\n{names}\n{rows}\n")
    proc = run_cli("compute", str(path), "--base", "stem", expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        "error: refusing stem-base computation for 25 attributes (guard 24)\n")
    # overridable
    run_cli("compute", str(path), "--base", "stem", "--max-stem-attrs", "25")


@pytest.mark.parametrize("lines", [0, 1])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_compute_into_a_closed_pipe_ends_quietly(fmt, lines, tmp_path):
    """A reader that stops after one line (``| head -1``), or before the
    first, ends the listing of a 24,000-implication base with exit 1
    and nothing on stderr: no traceback, and no second error when the
    bytes still buffered are flushed at exit."""
    path = tmp_path / "g30.cxt"
    path.write_text(write_burmeister(
        gen_single(SingleParamSpec(30, 30, 0.5, seed=7))))
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "implbases", "compute", str(path),
             "--format", fmt], stdout=subprocess.PIPE, stderr=err)
        for _ in range(lines):
            assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert (tmp_path / "err").read_bytes() == b""


def _listing_order(implication):
    """The text listing's sort key of a JSON implication."""
    return [[int(name[1:]) for name in implication[side]]
            for side in ("premise", "conclusion")]


def test_compute_past_64_attributes_text_and_json_agree(tmp_path):
    # masks wider than 64 bits on the whole compute path: the proper-premise
    # base, its sort key, the text listing and the hand-written JSON
    ctx = gen_single(SingleParamSpec(n_objects=5, n_attributes=66, p=0.6,
                                     seed=3))
    path = tmp_path / "wide.cxt"
    path.write_text(write_burmeister(ctx))
    flags = (str(path), "--base", "both", "--max-proper-attrs", "66",
             "--max-stem-attrs", "66")
    text = run_cli("compute", *flags).stdout.decode()
    out = run_cli("compute", *flags, "--format", "json").stdout.decode()
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    bases = json.loads(out)["bases"]
    base = proper_premise_base(ctx)
    assert max(p | c for p, c in base.mask_pairs()) >> 64
    listed, footers = {}, {}
    for line in text.splitlines():
        if line.startswith("# base="):
            kind = line[len("# base="):]
            listed[kind] = []
        elif line.startswith("# "):
            footers[kind] = line
        else:
            premise, conclusion = line.split("->")
            listed[kind].append({"premise": premise.split(),
                                 "conclusion": conclusion.split()})
    assert list(listed) == list(footers) == ["proper", "stem"]
    assert footers["proper"] == (
        f"# proper: implications={len(base)} premises={base.premise_count} "
        f"pairs={base.pair_count} attributes=66 objects=5")
    # the text lists both bases sorted; the JSON keeps each base's order,
    # which for the proper-premise base is the same
    assert bases["proper"]["implications"] == listed["proper"]
    for kind, implications in listed.items():
        b = bases[kind]
        assert sorted(b["implications"], key=_listing_order) == implications
        assert footers[kind] == (
            f"# {kind}: implications={b['implication_count']} "
            f"premises={b['premise_count']} pairs={b['pair_count']} "
            "attributes=66 objects=5")


def test_gen_p_zero_all_blank():
    out = run_cli("gen", "--model", "single", "--objects", "3",
                  "--attributes", "3", "--p", "0", "--seed", "1").stdout.decode()
    body = out.split("\n")
    assert body.count("...") == 3


def test_gen_deterministic_bytes():
    args = ("gen", "--model", "single", "--objects", "6", "--attributes", "4",
            "--p", "0.5", "--seed", "99")
    assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.mark.parametrize("args", [
    ("--p", "{z}"),
    ("--model", "multi", "--u-size", "1", "--r-size", "2", "--x", "{z}",
     "--f-prob", "{z}"),
])
def test_gen_signed_zero_writes_the_bytes_of_zero(args):
    # -0 is the value 0: the same header lines and the same context
    def gen(zero):
        return run_cli("gen", "--objects", "6", "--attributes", "6",
                       "--seed", "5",
                       *(a.format(z=zero) for a in args)).stdout
    out = gen("0")
    assert b"-0.0" not in out
    assert gen("-0") == out


def test_gen_multi_header_records_probabilities():
    import math

    out = run_cli("gen", "--model", "multi", "--r-size", "5",
                  "--attributes", "10", "--objects", "20", "--x", "2",
                  "--seed", "7").stdout.decode()
    probs_line = next(l for l in out.split("\n") if "column_probs=" in l)
    probs = [float(v) for v in probs_line.split("=", 1)[1].split(",")]
    assert probs[:5] == [1 / math.log(10)] * 5
    assert probs[5:] == [0.5] * 5


def test_gen_output_round_trips(tmp_path):
    path = tmp_path / "gen.cxt"
    run_cli("gen", "--objects", "4", "--attributes", "3", "--p", "0.5",
            "--seed", "3", "--out", str(path))
    run_cli("compute", str(path))


def test_gen_usage_errors():
    run_cli("gen", "--objects", "3", "--attributes", "3", "--p", "1.5",
            expect_code=2)
    run_cli("gen", "--model", "multi", "--objects", "3", "--attributes", "2",
            "--r-size", "1", expect_code=2)


def test_bounds_row_values():
    out = run_cli("bounds", "--attributes", "50", "--objects", "50",
                  "--p", "0.5", "--c", "1").stdout.decode()
    row = next(l for l in out.split("\n") if l.startswith("avg_pp_exponent"))
    assert float(row.split("=")[1]) == pytest.approx(5.81288836566178, abs=1e-9)
    lower = next(l for l in out.split("\n") if l.startswith("lower_exponent"))
    assert float(lower.split("=")[1]) == pytest.approx(4.643856189774724, abs=1e-9)


def test_bounds_degenerate_labeled_zero_exit():
    out = run_cli("bounds", "--attributes", "50", "--objects", "50",
                  "--p", "0.99").stdout.decode()
    assert "degenerate-dense" in out


def test_bounds_p_out_of_range_usage_error():
    run_cli("bounds", "--attributes", "50", "--objects", "50", "--p", "1.0",
            expect_code=2)


def test_bounds_regime_row():
    out = run_cli("bounds", "--attributes", "100", "--objects", "30",
                  "--p", "0.5", "--u-size", "0", "--r-size", "100").stdout.decode()
    assert "regime = exponential" in out


def test_bounds_json_format():
    out = run_cli("bounds", "--attributes", "50", "--objects", "50",
                  "--p", "0.5", "--format", "json").stdout
    payload = json.loads(out)
    assert "avg_pp_exponent" in payload


def test_sweep_csv_deterministic(tmp_path):
    args = ("sweep", "--model", "single", "--objects", "5,8", "--attributes",
            "5", "--p", "0.5", "--trials", "2", "--seed", "42")
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b
    c = run_cli(*args, "--workers", "3").stdout
    assert a == c


def test_sweep_error_rows_nonzero_exit():
    proc = run_cli("sweep", "--model", "single", "--objects", "5",
                   "--attributes", "5,30", "--p", "0.5", "--trials", "1",
                   "--seed", "1", "--max-proper-attrs", "10", expect_code=1)
    assert b"guard" in proc.stdout


def test_sweep_json_format():
    out = run_cli("sweep", "--model", "single", "--objects", "5",
                  "--attributes", "5", "--p", "0.5", "--trials", "1",
                  "--seed", "2", "--format", "json").stdout
    payload = json.loads(out)
    assert payload[0]["mt_mean"] is not None


def test_fit_end_to_end(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    run_cli("sweep", "--model", "single", "--objects", "10,14,18",
            "--attributes", "10,14,18", "--p", "0.5", "--trials", "2",
            "--seed", "5", "--out", str(csv_path))
    out = run_cli("fit", str(csv_path)).stdout.decode()
    assert out.startswith("c = ")
    assert "c2 = " in out and "max_relative_residual" in out


def test_fit_singular_reported(tmp_path):
    csv_path = tmp_path / "one_cell.csv"
    run_cli("sweep", "--model", "single", "--objects", "6", "--attributes", "6",
            "--p", "0.5", "--trials", "3", "--seed", "5", "--out", str(csv_path))
    proc = run_cli("fit", str(csv_path), expect_code=1)
    assert b"singular" in proc.stderr


def test_usage_error_on_unknown_command():
    run_cli("frobnicate", expect_code=2)


def assert_one_error_line(proc):
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert proc.stdout == b""


@pytest.mark.parametrize("attributes", ["1", "0"])
def test_bounds_too_few_attributes_usage_error(attributes):
    proc = run_cli("bounds", "--attributes", attributes, "--objects", "10",
                   "--p", "0.5", expect_code=2)
    assert_one_error_line(proc)


@pytest.mark.parametrize("command", ["compute", "fit"])
def test_directory_argument_rejected(command, tmp_path):
    assert_one_error_line(run_cli(command, str(tmp_path), expect_code=2))


@pytest.mark.parametrize("command", ["compute", "fit"])
def test_non_utf8_file_rejected(command, tmp_path):
    path = tmp_path / "latin1.cxt"
    path.write_bytes(b"B\n\n1\n1\n\n\xe9t\xe9\na1\nX\n")
    proc = run_cli(command, str(path), expect_code=2)
    assert_one_error_line(proc)
    assert b"UTF-8" in proc.stderr


@pytest.mark.parametrize("header", ["", "# schema=2\n"])
def test_fit_rejects_missing_or_unknown_schema(header, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    run_cli("sweep", "--model", "single", "--objects", "10,14,18",
            "--attributes", "10,14,18", "--p", "0.5", "--trials", "1",
            "--seed", "5", "--out", str(csv_path))
    text = csv_path.read_text().replace("# schema=1\n", header)
    csv_path.write_text(text)
    proc = run_cli("fit", str(csv_path), expect_code=2)
    assert_one_error_line(proc)
    assert b"schema" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--attributes", "1", "--objects", "2", "--p", "0.5"),
     "n_attributes must be >= 2, got 1"),
    (("--attributes", "0", "--objects", "10", "--p", "0.9"),
     "n_attributes must be >= 2, got 0"),
    (("--attributes", "10", "--objects", "-5", "--p", "0.5"),
     "counts must be >= 0"),
    (("--attributes", "1", "--objects", "10", "--p", "0.5"),
     "n_attributes must be >= 2, got 1"),
    (("--attributes", "10", "--objects", "-5", "--p", "0.5",
      "--u-size", "0", "--r-size", "3"), "counts must be >= 0"),
])
def test_bounds_refuses_counts_also_when_degenerate_dense(args, message):
    proc = run_cli("bounds", *args, expect_code=2)
    assert_one_error_line(proc)
    assert proc.stderr.decode() == f"error: {message}\n"


def test_bounds_zero_objects_is_degenerate_dense():
    out = run_cli("bounds", "--attributes", "10", "--objects", "0",
                  "--p", "0.5").stdout.decode()
    assert out == "".join(f"{name} = degenerate-dense (objects*q=0.0 < 3)\n"
                          for name in ("avg_pp_exponent", "lower_exponent",
                                       "total_base_log10"))


def test_fit_refusal_stderr_lines(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    run_cli("sweep", "--objects", "5,10", "--attributes", "6,8", "--p", "0.5",
            "--seed", "5", "--out", str(csv_path))
    proc = run_cli("fit", str(csv_path), expect_code=1)
    assert proc.stderr.decode().splitlines() == [
        "error: objects * q must be >= 3.0 (ln ln guard), got 2.5"]
    text = csv_path.read_text()
    for header, schema in (("", "missing"), ("# schema=2\n", "2")):
        csv_path.write_text(text.replace("# schema=1\n", header))
        proc = run_cli("fit", str(csv_path), expect_code=2)
        assert proc.stderr.decode().splitlines() == [
            f"error: {csv_path}: sweep CSV schema is {schema}, expected 1"]


def test_sweep_negative_seed_usage_error():
    proc = run_cli("sweep", "--objects", "6", "--attributes", "5",
                   "--seed", "-1", expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: seed must be a non-negative integer\n"


def test_fit_malformed_value_usage_error(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    run_cli("sweep", "--objects", "10", "--attributes", "8,10,12",
            "--p", "0.5", "--seed", "5", "--out", str(csv_path))
    lines = csv_path.read_text().split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("trial,"))
    cells = lines[first].split(",")
    cells[6] = "ten"  # the attributes column
    lines[first] = ",".join(cells)
    csv_path.write_text("\n".join(lines))
    proc = run_cli("fit", str(csv_path), expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: {csv_path}: invalid literal for int() with base 10: 'ten'\n")


@pytest.mark.parametrize("args, message", [
    (("gen", "--objects", "3", "--attributes", "3", "--p", "1.5"),
     "p must be in [0, 1], got 1.5"),
    (("gen", "--model", "multi", "--objects", "3", "--attributes", "3",
      "--f-prob", "1.5"), "f_prob must be in [0, 1], got 1.5"),
    (("sweep", "--model", "multi", "--objects", "3", "--attributes", "3",
      "--f-prob", "1.5"), "f_prob must be in [0, 1], got 1.5"),
    (("bounds", "--attributes", "10", "--objects", "10", "--p", "0.5",
      "--u-size", "0", "--r-size", "3", "--f-prob", "1.5"),
     "f_prob must be in [0, 1], got 1.5"),
])
def test_probability_refused_by_the_model(args, message):
    proc = run_cli(*args, expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: {message}\n"


@pytest.mark.parametrize("attributes, objects, p", [
    ("50", "50", "0.5"), ("10", "200", "0.3"), ("7", "9", "0.6")])
def test_bounds_totals_are_base_size_of_the_exponents(attributes, objects, p):
    from implbases import base_size_log10

    out = run_cli("bounds", "--attributes", attributes, "--objects", objects,
                  "--p", p, "--c", "1.5", "--c2", "-0.5").stdout.decode()
    rows = dict(line.split(" = ") for line in out.splitlines())
    n = int(attributes)
    assert float(rows["total_base_log10"]) == base_size_log10(
        float(rows["avg_pp_exponent"]), n)
    assert float(rows["lower_total_log10"]) == base_size_log10(
        float(rows["lower_exponent"]), n)


def test_gen_nan_x_usage_error():
    proc = run_cli("gen", "--model", "multi", "--objects", "6", "--attributes",
                   "4", "--u-size", "2", "--x", "nan", "--seed", "1",
                   expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: x must be >= 0\n"


@pytest.mark.parametrize("args, message", [
    (("--objects", "-3", "--attributes", "5"), "counts must be >= 0"),
    (("--objects", "6", "--attributes", "5", "--p", "1.5"),
     "p must be in [0, 1], got 1.5"),
    (("--objects", "6", "--attributes", "5", "--p", "nan"),
     "p must be in [0, 1], got nan"),
    (("--model", "multi", "--objects", "6", "--attributes", "5",
      "--u-size", "-1"), "class sizes must be >= 0"),
    # only the n = 2 cell is refused; the n = 5 cell alone would run
    (("--model", "multi", "--objects", "6", "--attributes", "2,5",
      "--r-size", "1"),
     "rare attributes require n_attributes >= 3 (1/ln n must be < 1)"),
    (("--model", "multi", "--objects", "6", "--attributes", "5",
      "--u-size", "2", "--x", "nan"), "x must be >= 0"),
])
def test_sweep_refuses_a_grid_the_model_refuses(args, message):
    proc = run_cli("sweep", *args, expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: {message}\n"


@pytest.mark.parametrize("args, shown", [
    (("--objects", "5,5", "--attributes", "5"),
     "objects=5, attributes=5, p=0.5"),
    (("--objects", "5", "--attributes", "5", "--p", "0.5,0.5"),
     "objects=5, attributes=5, p=0.5"),
    (("--model", "multi", "--objects", "5", "--attributes", "5",
      "--u-size", "1,1"),
     "objects=5, attributes=5, u_size=1, r_size=0, x=2.0, f_prob=0.5"),
])
def test_sweep_refuses_a_repeated_cell_before_out(args, shown, tmp_path):
    out = tmp_path / "dup.csv"
    proc = run_cli("sweep", *args, "--out", str(out), expect_code=2)
    assert_one_error_line(proc)
    assert proc.stderr.decode() == f"error: grid repeats a cell: {shown}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ("gen", "--objects", "6", "--attributes", "5", "--seed", "1"),
    ("sweep", "--objects", "6", "--attributes", "5", "--seed", "1"),
    ("sweep", "--objects", "6", "--attributes", "5", "--seed", "1",
     "--format", "json"),
])
def test_unwritable_out_usage_error(command, tmp_path):
    for out, reason in ((tmp_path / "missing" / "out.txt",
                         "No such file or directory"),
                        (tmp_path, "Is a directory")):
        proc = run_cli(*command, "--out", str(out), expect_code=2)
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: {out}: {reason}\n"


def test_sweep_refuses_unwritable_out_before_any_trial(tmp_path):
    # one trial at n = m = 60 runs for hours; the refusal must come first
    out = tmp_path / "missing" / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "implbases", "sweep", "--objects", "60",
         "--attributes", "60", "--p", "0.5", "--out", str(out)],
        capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: {out}: No such file or directory\n")


@pytest.mark.parametrize("objects", ["10", "4"])
def test_sweep_one_attribute_is_a_clean_row(objects):
    """n = 1 has counts but no bound, in the bound's domain (10 * q = 5)
    or not (4 * q = 2): a clean row with blank bound columns, exit 0."""
    proc = run_cli("sweep", "--objects", objects, "--attributes", "1",
                   "--p", "0.5", "--seed", "1")
    assert proc.stderr == b""
    trial, footer = parse_csv(proc.stdout.decode())
    assert (trial["row"], footer["row"]) == ("trial", "cell_mean")
    assert trial["error"] == "" and trial["mt_mean"] != ""
    assert trial["avg_exponent"] == trial["lower_exponent"] == ""


def test_p_below_float_resolution_of_q_is_not_refused():
    """1 - 1e-20 rounds to 1.0; the bounds read p itself."""
    proc = run_cli("bounds", "--attributes", "10", "--objects", "50",
                   "--p", "1e-20")
    assert proc.stderr == b"" and b"error" not in proc.stdout
    proc = run_cli("sweep", "--objects", "50", "--attributes", "5",
                   "--p", "1e-20")
    assert proc.stderr == b""
    rows = parse_csv(proc.stdout.decode())
    assert [r["error"] for r in rows] == ["", ""]
    assert all(r["avg_exponent"] != "" for r in rows)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_refused_before_out_and_trials(workers, tmp_path):
    # one trial at n = m = 60 runs for hours; the refusal must come first
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "implbases", "sweep", "--objects", "60",
         "--attributes", "60", "--p", "0.5", "--workers", workers,
         "--out", str(out)],
        capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: workers must be >= 1, got {workers}\n"
    assert not out.exists()


def test_importing_the_cli_loads_no_process_pool():
    """Neither importing the CLI nor a sweep on several workers loads
    the standard library's process pools: the sweep forks its own."""
    code = ("import sys, implbases.cli\n"
            "from implbases import SweepSpec, run_sweep\n"
            "def pools():\n"
            "    print(sorted(m for m in ('multiprocessing', "
            "'concurrent.futures') if m in sys.modules))\n"
            "pools()\n"
            "run_sweep(SweepSpec(model='single', objects=(5,), "
            "attributes=(5,), trials=3), workers=2)\n"
            "pools()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n[]\n"


@pytest.mark.parametrize("args, message", [
    (("--c", "nan"), "c must be finite, got nan"),
    (("--c", "inf"), "c must be finite, got inf"),
    (("--c2=-inf",), "c2 must be finite, got -inf"),
    (("--c", "nan", "--c2", "inf"), "c must be finite, got nan"),
])
def test_non_finite_bound_constant_refused(args, message, tmp_path):
    for objects in ("10", "2"):  # in the bound's domain and degenerate-dense
        proc = run_cli("bounds", "--attributes", "10", "--objects", objects,
                       "--p", "0.5", *args, expect_code=2)
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: {message}\n"
    # one trial at n = m = 60 runs for hours; the refusal must come first
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "implbases", "sweep", "--objects", "60",
         "--attributes", "4,5,60", *args, "--out", str(out)],
        capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("attributes, args, message", [
    ("10", ("--c", "1e308"), "avg_pp_exponent must be finite, got inf"),
    ("10", ("--c2=-1e308",), "lower_exponent must be finite, got -inf"),
    ("1000", ("--c", "5e307"), "base_size_log10 must be finite, got inf"),
])
def test_overflowing_bound_refused(attributes, args, message, tmp_path):
    """A finite constant so large that a bound overflows is refused like
    a non-finite one: `bounds` prints one line, and a sweep is refused
    before --out is opened or any trial runs."""
    proc = run_cli("bounds", "--attributes", attributes, "--objects", "1000",
                   "--p", "0.5", *args, expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: {message}\n"
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "implbases", "sweep", "--objects", "1000",
         "--attributes", f"3,{attributes}", "--p", "0.5", *args,
         "--out", str(out)],
        capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: {message}\n"
    assert not out.exists()


BIG_COUNT = "1" + "0" * 400  # an integer that no float holds


def test_object_count_too_large_for_a_float_refused(tmp_path):
    proc = run_cli("bounds", "--attributes", "10", "--objects", BIG_COUNT,
                   "--p", "0.5", expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: n_objects is too large for a float\n"
    # in the bound's domain, and in cells where no bound is defined
    for attributes, p in (("10", "0.5"), ("1", "0.5"), ("10", "0")):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--objects", BIG_COUNT, "--attributes",
                       attributes, "--p", p, "--out", str(out), expect_code=2)
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            "error: n_objects is too large for a float\n")
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ("gen", "--objects", BIG_COUNT, "--attributes", "3"),
    ("gen", "--model", "multi", "--objects", BIG_COUNT, "--attributes", "5",
     "--u-size", "2"),
    ("sweep", "--model", "multi", "--objects", BIG_COUNT, "--attributes", "5",
     "--u-size", "2"),
])
def test_random_model_refuses_an_object_count_too_large_for_a_float(
        args, tmp_path):
    """The model's spec refuses the count, before any column is sampled
    and before ``--out`` is opened."""
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", str(out), expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: n_objects is too large for a float\n"
    assert not out.exists()


@pytest.mark.parametrize("p, shown", [
    ("0", "0.0"), ("1", "1.0"), ("1.5", "1.5"), ("nan", "nan")])
@pytest.mark.parametrize("context", [
    ("--attributes", "10", "--objects", "50"),  # in the bound's domain
    ("--attributes", "10", "--objects", "2"),  # degenerate-dense at any p
    ("--attributes", "10", "--objects", "50", "--u-size", "0",
     "--r-size", "3"),
])
def test_bounds_p_outside_the_open_interval_refused(p, shown, context):
    proc = run_cli("bounds", *context, "--p", p, expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == f"error: p must be in (0, 1), got {shown}\n"


def test_bounds_p_not_a_number_is_argparse_usage_error():
    proc = run_cli("bounds", "--attributes", "10", "--objects", "50",
                   "--p", "abc", expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines()[-1] == (
        "implbases bounds: error: argument --p: invalid float value: 'abc'")


def _fit_stderr(tmp_path, *sweep_args):
    csv_path = tmp_path / "sweep.csv"
    run_cli("sweep", *sweep_args, "--seed", "5", "--out", str(csv_path))
    return run_cli("fit", str(csv_path), expect_code=1).stderr.decode()


def _p_zero_texts(tmp_path, toy_context_path):
    fit = _fit_stderr(tmp_path, "--objects", "10", "--attributes", "5,6,7",
                      "--p", "0")
    bounds = run_cli("bounds", "--attributes", "5", "--objects", "10",
                     "--p", "0", expect_code=2).stderr.decode()
    return fit, bounds


def _ln_ln_guard_texts(tmp_path, toy_context_path):
    from implbases import avg_pp_exponent

    fit = _fit_stderr(tmp_path, "--objects", "5,10", "--attributes", "6,8",
                      "--p", "0.5")
    with pytest.raises(ValueError) as info:
        avg_pp_exponent(6, 5, 0.5)  # the first cell of the fit
    return fit, f"error: {info.value}\n"


def _size_guard_texts(tmp_path, toy_context_path):
    compute = run_cli("compute", toy_context_path, "--max-proper-attrs", "3",
                      expect_code=2).stderr.decode()
    rows = parse_csv(run_cli("sweep", "--objects", "5", "--attributes", "5",
                             "--max-proper-attrs", "3",
                             expect_code=1).stdout.decode())
    return compute, f"error: {rows[0]['error']}\n"


@pytest.mark.parametrize("texts", [
    _p_zero_texts, _ln_ln_guard_texts, _size_guard_texts])
def test_one_refusal_one_text(texts, tmp_path, toy_context_path):
    """Each refusal has one owner: where two commands refuse the same
    input, they print the same line."""
    first, second = texts(tmp_path, toy_context_path)
    assert first == second
    assert len(first.splitlines()) == 1 and first.startswith("error: ")


@pytest.mark.parametrize("args", [
    ("--p", "{}", "--trials", "2"),
    ("--model", "multi", "--u-size", "2", "--x", "{}"),
    ("--model", "multi", "--u-size", "2", "--f-prob", "{}"),
])
def test_a_signed_zero_is_the_same_sweep_cell(args):
    """-0 and 0 are one value: the same cell, trial seeds and bytes."""
    plus, minus = (run_cli("sweep", "--objects", "5", "--attributes", "5",
                           *(arg.format(zero) for arg in args)).stdout
                   for zero in ("0", "-0"))
    assert minus == plus and b"-0.0" not in minus


# Attribute names that JSON must escape: a quote, a backslash, a tab,
# letters outside ASCII (one outside the BMP) and inner spaces.
AWKWARD_NAMES = ('say "hi"', "back\\slash", "tab\there", "Größe", "日本 語",
                 "emoji \U0001F600", " two  words ")


def _burmeister(names, rows) -> str:
    objects = [f"o{i}" for i in range(len(rows))]
    return "\n".join(["B", "", str(len(rows)), str(len(names)), "",
                      *objects, *names, *rows]) + "\n"


# name -> (attribute names, rows)
JSON_CONTEXTS = {
    # column 1 is full (its premise is empty, its hypergraph edgeless)
    # and column 4 empty (it follows from every set no object has)
    "awkward": (AWKWARD_NAMES, ["XX.X..X", ".XXX.X.", "XX...X.", ".X.X.XX",
                                "XXX..X.", ".X....X"]),
    # a contranominal scale: every set is closed, so both bases are empty
    "contranominal": (AWKWARD_NAMES[:3], [".XX", "X.X", "XX."]),
    # the stem base of a full relation is one implication -> everything,
    # and its proper base one empty premise per attribute
    "full": (AWKWARD_NAMES[3:], ["XXXX", "XXXX"]),
}


@pytest.mark.parametrize("base", ["proper", "stem", "both"])
@pytest.mark.parametrize("context", sorted(JSON_CONTEXTS))
def test_compute_json_is_the_json_module_rendering(context, base, tmp_path):
    """``compute --format json`` writes exactly what the json module
    writes for the same payload at ``indent=2, sort_keys=True``."""
    names, rows = JSON_CONTEXTS[context]
    path = tmp_path / "ctx.cxt"
    path.write_text(_burmeister(names, rows), encoding="utf-8")
    out = run_cli("compute", str(path), "--base", base,
                  "--format", "json").stdout.decode("ascii")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    kinds = ["proper", "stem"] if base == "both" else [base]
    assert sorted(payload["bases"]) == kinds
    listed = {name for kind in kinds
              for imp in payload["bases"][kind]["implications"]
              for name in imp["premise"] + imp["conclusion"]}
    assert listed <= set(names)
    if context == "awkward":
        assert listed == set(names)
        if "proper" in kinds:
            assert {"premise": [], "conclusion": [names[1]]} in (
                payload["bases"]["proper"]["implications"])
    if context == "contranominal":
        assert all(payload["bases"][kind]["implications"] == []
                   for kind in kinds)


def _json_of(ctx, results) -> str:
    out = io.StringIO()
    _write_bases_json(out, ctx, results)
    return out.getvalue()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_json_renderer_writes_the_json_module_text(data):
    """On made bases, repeated and empty premises, awkward names and 0
    to 70 attributes among them, the renderer writes what the json
    module writes for the whole payload."""
    proper = data.draw(implication_bases())
    n = proper.n_attributes
    ctx = FormalContext.from_row_masks(
        2, n, [0, (1 << n) - 1], attribute_names=data.draw(attribute_names(n)))
    kinds = data.draw(st.sampled_from([("proper",), ("stem",),
                                       ("proper", "stem")]))
    results = {kind: base for kind, base in zip(
        kinds, (proper, data.draw(implication_bases(n))))}
    assert _json_of(ctx, results) == bases_json(ctx, results)


@pytest.mark.parametrize("n", [63, 64, 65, 70])
def test_json_renderer_over_several_pieces_at_the_dtype_switch(n):
    # more implications than one piece holds, on both mask dtypes
    ctx = gen_single(SingleParamSpec(6, n, 0.6, seed=n))
    results = {"proper": proper_premise_base(ctx), "stem": stem_base(ctx)}
    assert len(results["proper"]) > _JSON_PIECE
    assert _json_of(ctx, results) == bases_json(ctx, results)


INDEX_OVERFLOW_COUNT = "1" + "0" * 300  # a float holds it, an index does not


@pytest.mark.parametrize("args", [
    ("gen", "--objects", INDEX_OVERFLOW_COUNT, "--attributes", "3"),
    ("gen", "--objects", str(sys.maxsize + 1), "--attributes", "0"),
    ("gen", "--model", "multi", "--objects", INDEX_OVERFLOW_COUNT,
     "--attributes", "5", "--u-size", "2"),
    ("sweep", "--objects", INDEX_OVERFLOW_COUNT, "--attributes", "3"),
    ("sweep", "--objects", f"10,{sys.maxsize + 1}", "--attributes", "3"),
    ("sweep", "--model", "multi", "--objects", INDEX_OVERFLOW_COUNT,
     "--attributes", "5", "--u-size", "2"),
])
def test_object_count_too_large_to_sample_refused(args, tmp_path):
    """A count above sys.maxsize is refused with one line, before any
    column is sampled and before ``--out`` is opened; the bounds, which
    only compute with it, still take it."""
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", str(out), expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: n_objects is too large to sample\n"
    assert not out.exists()


# at most sys.maxsize, but 3 attributes x 8 bytes per object are more
UNINDEXABLE_SAMPLE = "1000000000000000000"


@pytest.mark.parametrize("args", [
    ("gen", "--objects", UNINDEXABLE_SAMPLE, "--attributes", "3"),
    ("gen", "--model", "multi", "--objects", UNINDEXABLE_SAMPLE,
     "--attributes", "5", "--u-size", "2"),
    ("sweep", "--objects", UNINDEXABLE_SAMPLE, "--attributes", "3"),
    ("sweep", "--objects", f"10,{UNINDEXABLE_SAMPLE}", "--attributes", "3"),
])
def test_sample_too_large_to_index_refused(args, tmp_path):
    """A count in an index's range whose attribute x object matrix is
    not is refused with the same one line, before numpy is asked for
    the matrix and before ``--out`` is opened."""
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", str(out), expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: n_objects is too large to sample\n"
    assert not out.exists()


def test_bounds_take_an_object_count_too_large_to_sample():
    proc = run_cli("bounds", "--attributes", "10", "--objects",
                   INDEX_OVERFLOW_COUNT, "--p", "0.5", "--u-size", "2",
                   "--r-size", "3")
    assert proc.stderr == b""
    assert b"regime = quasi-polynomial\n" in proc.stdout


# an index reaches the sample's 3 x 10^17 draws, but they are 2.4e18
# bytes, more than the address space: numpy refuses at once
UNALLOCATABLE_SAMPLE = "100000000000000000"


@pytest.mark.parametrize("args", [
    ("gen", "--objects", UNALLOCATABLE_SAMPLE, "--attributes", "3"),
    ("sweep", "--objects", UNALLOCATABLE_SAMPLE, "--attributes", "3",
     "--workers", "1"),
    ("sweep", "--objects", UNALLOCATABLE_SAMPLE, "--attributes", "3",
     "--trials", "2", "--workers", "2"),
    # the second cell's trial runs in the forked child
    ("sweep", "--objects", f"10,{UNALLOCATABLE_SAMPLE}", "--attributes", "3",
     "--workers", "2"),
])
def test_sample_too_large_to_allocate_refused(args, tmp_path):
    """A sample that an index reaches but memory cannot hold is the
    random model's refusal, with the same one line and no traceback.
    ``gen`` refuses it before ``--out`` is opened; ``sweep`` has opened
    ``--out`` before its trials run and leaves it empty."""
    out = tmp_path / "out"
    proc = run_cli(*args, "--out", str(out), expect_code=2)
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: n_objects is too large to sample\n"
    if args[0] == "gen":
        assert not out.exists()
    else:
        assert out.read_bytes() == b""


@pytest.mark.parametrize("exc", [ValueError("a trial bug"),
                                 MemoryError("a trial bug")])
def test_sweep_lets_other_trial_exceptions_propagate(exc, monkeypatch,
                                                     tmp_path):
    """Only the sampler's refusal of an unallocatable sample becomes an
    ``error:`` line; any other exception inside a trial, a
    ``ValueError`` or a ``MemoryError`` of the search included, is a bug
    and propagates out of the CLI."""
    import implbases.cli as cli
    import implbases.sweep as sweep_mod

    def broken(ctx):
        raise exc

    monkeypatch.setattr(sweep_mod, "premise_counts", broken)
    with pytest.raises(type(exc), match="^a trial bug$"):
        cli.main(["sweep", "--objects", "5", "--attributes", "3",
                  "--out", str(tmp_path / "out.csv")])
