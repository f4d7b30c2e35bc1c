"""Benchmark entry point: one workload, one run.

    python3 perfbench/run.py --workload diag-proper            # end-to-end
    python3 perfbench/run.py --workload diag-proper --trace 1  # per-layer
    python3 perfbench/run.py --workload all                    # every workload

Runs the workload's passes in a worker process for --seconds, timing
set-up in fresh interpreters between passes (with --trace 1, half the
time untraced and half traced, in two workers, and no set-up timing).
Checks every pass's outputs
and, at the default seed, its result digest against digests.json. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from stats import median, ratio, tail_percentile  # noqa: E402

WORKLOADS = ("diag-proper", "compute-stem-regime")
DEFAULT_SEEDS = {"diag-proper": 20250801, "compute-stem-regime": 20250801}
# Seed for checking a claim on inputs not used while the change was written.
HELD_OUT_SEED = 20251017
SETUP_SPAWNS = 12
# Pass times are reported at the speed of a host on which the worker's
# fixed reference work takes this long (about as long as on the host the
# benchmark was built on); see host_speed.
REFERENCE_S = 0.1
# parts of compute-stem-regime (workloads.PARTS), whose times the traced
# run reports on every workload
PARTS = ("compute", "stem", "regime", "regime_ubiquitous")
TIME_LIMIT = 170.0  # one run must end within 180 s


def run_worker(workload: str, seed: int, seconds: float, workdir: str,
               traced: bool, setup_spawns: int, env: dict,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--workdir", workdir,
           "--setup-spawns", str(setup_spawns)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def digest_failures(recorded: list[str], digests: list[str],
                    ops: list[int]) -> int:
    """Ops in passes whose digest differs from the recorded one; passes
    beyond the recording are checked by invariants only."""
    return sum(n for want, got, n in zip(recorded, digests, ops) if want != got)


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            env: dict, deadline: float, units: dict) -> tuple[dict, list[str]]:
    recorded = load_digests()[workload]
    phases = [False, True] if trace else [False]
    phase_seconds = seconds / len(phases)
    spawns = 0 if trace else SETUP_SPAWNS
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        results = [run_worker(workload, seed, phase_seconds, workdir, traced,
                              spawns, env, deadline) for traced in phases]
    attempted = sum(sum(r["ops"]) for r in results)
    failed = sum(r["failed"] for r in results)
    if seed == recorded["seed"]:
        failed += sum(digest_failures(recorded["passes"], r["digests"], r["ops"])
                      for r in results)
    plain = results[0]
    passes = plain["pass_seconds"]
    wall = sum(passes)
    speed = host_speed(plain)
    notes = [f"passes={len(passes)} ops={attempted} failed={failed} "
             f"outputs/pass={median(plain['outputs']):.0f}",
             f"pass time as measured: mean {wall / len(passes):.4g} s, "
             f"median {median(passes):.4g} s; reference work mean "
             f"{sum(plain['ref_seconds']) / len(passes):.4g} s, "
             f"so times are scaled by {speed:.4g}"]
    tail = tail_percentile(plain["op_seconds"])
    parts = part_seconds(plain["part_seconds"])
    if parts:
        total = sum(parts.values())
        notes.append("part share of the pass: " + " ".join(
            f"{name} {seconds / total:.3f}" for name, seconds in parts.items()))
    notes.append(f"op latency: median {median(plain['op_seconds']) * 1e3:.2f} ms"
                 + (f", p{tail[0]:g} {tail[1] * 1e3:.2f} ms"
                    if tail and tail[0] > 50 else ", too few samples for a tail")
                 + f" (n={len(plain['op_seconds'])})")
    if trace:
        traced = results[1]
        n = min(len(passes), len(traced["pass_seconds"]))
        metrics = dict(traced["layers"])
        metrics["sweep.cpu_per_wall"] = ratio(plain["cpu_seconds"], wall)
        metrics["trace_overhead_ratio"] = ratio(
            sum(traced["pass_seconds"][:n]) * host_speed(traced, n),
            sum(passes[:n]) * host_speed(plain, n))
        metrics.update({f"part.{name}_s": parts.get(name, 0.0) for name in PARTS})
    else:
        metrics = {
            "setup_s": median(plain["setup_seconds"]),
            "wall_s": wall / len(passes) * speed,
            "us_per_output": ratio(wall * 1e6, sum(plain["outputs"])) * speed,
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, notes


def host_speed(phase: dict, passes: int | None = None) -> float:
    """REFERENCE_S over the mean time of the reference work measured
    around the phase's (first) passes: the factor that scales a time
    measured on this host, at its speed during the passes, to a host
    where the reference work takes REFERENCE_S."""
    refs = phase["ref_seconds"][:passes]
    return REFERENCE_S * len(refs) / sum(refs)


def part_seconds(per_pass: list[dict]) -> dict[str, float]:
    """Mean seconds per pass of each part of a composite workload
    (empty for the others), from the untraced passes."""
    names = per_pass[0] if per_pass else {}
    return {name: sum(p[name] for p in per_pass) / len(per_pass)
            for name in names}


def print_table(workload: str, seed: int, result: dict, notes: list[str]) -> None:
    err = sys.stderr
    print(f"== {workload} seed={seed} correct={result['correct']}", file=err)
    for note in notes:
        print(f"   {note}", file=err)
    for name, m in result["metrics"].items():
        print(f"   {name:40s} {m['value']:14.6g} {m['unit']}", file=err)


def machine_facts() -> str:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh
                       if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def main() -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "implbases" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'implbases'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(machine_facts(), file=sys.stderr)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        deadline = time.monotonic() + TIME_LIMIT
        try:
            result, notes = run_one(name, seed, args.seconds, bool(args.trace),
                                    env, deadline, units)
        except (RuntimeError, subprocess.TimeoutExpired, OSError,
                json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        print_table(name, seed, result, notes)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        combined["metrics"].update({prefix + k: v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
