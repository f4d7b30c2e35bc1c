"""One phase of one workload in a fresh interpreter: passes until the
time is up, untraced or traced. Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload diag-proper --seed 20250801 \
        --seconds 10 --workdir DIR [--traced] [--setup-spawns N]

With --setup-spawns, the untraced phase also times N fresh interpreters
that import implbases and build the CLI parser, two after each pass
(the rest after the last), so that set-up is sampled across the run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import implbases  # noqa: E402
import implbases.cli as cli_mod  # noqa: E402
import implbases.sweep as sweep_mod  # noqa: E402
from implbases.bases import attribute_hypergraph  # noqa: E402
from implbases.hypergraph import minimal_transversals, normalize  # noqa: E402

from stats import ratio  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import DIAG_SIZES, WORKLOADS  # noqa: E402

# per-layer time metric -> span names whose self time it sums
LAYER_SPANS = {
    "randctx.gen_s": ("implbases.sweep.gen_single", "implbases.sweep.gen_multi"),
    "hypergraph.dual_s": ("hypergraph.dual",),
    "bases.stem_s": ("implbases.sweep.stem_base", "implbases.cli.stem_base"),
    "bases.proper_base_s": ("implbases.cli.proper_premise_base",),
    "bases.format_s": ("implbases.cli.format_implications",),
    "ctxio.read_s": ("implbases.cli.read_context_file",),
    "cli.self_s": ("implbases.cli.main",),
    "sweep.trial_s": ("implbases.sweep.run_trial", "implbases.sweep.run_sweep"),
    "sweep.render_s": ("implbases.sweep.render_csv",),
    "sweep.fit_s": ("implbases.sweep.fit_exponent",),
}
SETUP_CODE = "import implbases.cli; implbases.cli.build_parser()"
SETUP_PER_PASS = 2
# peak_rss_mb is read after the program calls of the first RSS_PASSES
# passes, whose outputs are checked only then: the checks (parsing the
# CLI's output, rebuilding bases) do not count, the peak is the largest
# of several inputs, which varies less from seed to seed than one input,
# and the passes after them, as many as the host's speed allows, do not
# move it.
RSS_PASSES = 4
COUNTERS = ("randctx.cells_sampled", "hypergraph.transversals",
            "hypergraph.edges_in", "hypergraph.edges_min",
            "bases.stem_implications", "bases.pp_pairs", "bases.pp_premises",
            "ctxio.bytes_in", "cli.bytes_out", "sweep.csv_bytes")


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process so far (the sweep's pool is threads)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> int:
    """Fixed pure-Python work of the program's kind (bit-mask Berge
    dualization of a seeded 18-vertex hypergraph) that calls no program
    code, so that no change to the program moves its time: timed around
    every pass, it tracks the host's speed, which on the build host
    shifted by up to 1.6x for minutes at a time (BASELINE.md)."""
    rng = random.Random(20250801)
    n = 18
    edges = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(28)]
    found = [0]
    for e in edges:
        grown = set()
        for t in found:
            if t & e:
                grown.add(t)
            else:
                grown.update(t | 1 << v for v in range(n) if e >> v & 1)
        found = []
        for t in sorted(grown, key=int.bit_count):
            if all(f & ~t for f in found):
                found.append(t)
    return len(found)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def time_setup() -> float:
    """Wall time for a fresh interpreter to import implbases and build
    the CLI parser. The caches it reads are warm: this process has
    imported the same modules."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=HERE.parent,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


class LayerProbe:
    """Traced-phase bookkeeping: installs the span wrappers and turns each
    pass's spans and captured results into per-layer totals."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.times = dict.fromkeys(LAYER_SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.dual_by_n: dict[int, list[float]] = {}  # n -> [seconds, transversals]
        self.bare_dual_s = 0.0  # denominator of bases.overhead_ratio only
        self._lock = threading.Lock()  # hooks run on the sweep's pool threads
        self.contexts: list = []      # contexts whose edges get counted
        self.proper_contexts: list = []

    def install(self) -> None:
        t = self.tracer
        for attr in ("run_sweep", "render_csv", "fit_exponent", "run_trial",
                     "gen_single", "gen_multi", "stem_base"):
            t.wrap(sweep_mod, attr, getattr(self, f"_on_{attr}", None))
        for attr in ("main", "read_context_file", "proper_premise_base",
                     "stem_base", "format_implications"):
            t.wrap(cli_mod, attr, getattr(self, f"_on_cli_{attr}", None))

    def _count(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    # result hooks, named _on_<attr> / _on_cli_<attr>
    def _on_render_csv(self, index, text, args):
        self._count("sweep.csv_bytes", len(text.encode()))

    def _on_gen_single(self, index, ctx, args):
        self.contexts.append(ctx)
        self._count("randctx.cells_sampled", ctx.n_objects * ctx.n_attributes)

    _on_gen_multi = _on_gen_single

    def _on_stem_base(self, index, base, args):
        self._count("bases.stem_implications", len(base))

    _on_cli_stem_base = _on_stem_base

    def _on_run_trial(self, index, rec, args):
        # run_trial times its dualization as dual_ms, right after
        # generation; it becomes a hypergraph child span of the trial
        if rec.dual_ms is None:
            return
        gens = [s for s in self.tracer.children(index) if "gen_" in s.name]
        start = gens[-1].end if gens else self.tracer.spans[index].start
        seconds = rec.dual_ms / 1000.0
        self.tracer.add("hypergraph.dual", start, start + seconds, index)
        n = rec.params["attributes"]
        self._add_dual(n, seconds, round(rec.mt_mean * n))

    def _on_cli_read_context_file(self, index, ctx, args):
        self._count("ctxio.bytes_in", os.path.getsize(args[0]))

    def _on_cli_proper_premise_base(self, index, base, args):
        self.proper_contexts.append(args[0])
        self.contexts.append(args[0])
        self._count("bases.pp_pairs", base.pair_count)
        self._count("bases.pp_premises", base.premise_count)

    def _add_dual(self, n: int, seconds: float, transversals: int) -> None:
        with self._lock:
            acc = self.dual_by_n.setdefault(n, [0.0, 0])
            acc[0] += seconds
            acc[1] += transversals
            self.counts["hypergraph.transversals"] += transversals

    def end_pass(self, cli_bytes_out: int) -> None:
        """Bare dualization of the contexts compute ran
        proper_premise_base on, as the denominator of the base's overhead
        ratio (not dualization the workload did, so no hypergraph
        metric counts it); edge counts; then fold this pass's spans into
        the totals."""
        t = self.tracer
        for ctx in self.proper_contexts:
            hgs = [attribute_hypergraph(ctx, a) for a in range(ctx.n_attributes)]
            t0 = time.perf_counter()
            for h in hgs:
                minimal_transversals(h)
            self.bare_dual_s += time.perf_counter() - t0
        for ctx in self.contexts:
            for a in range(ctx.n_attributes):
                h = attribute_hypergraph(ctx, a)
                self.counts["hypergraph.edges_in"] += len(h.edges)
                self.counts["hypergraph.edges_min"] += len(normalize(h).edges)
        self.counts["cli.bytes_out"] += cli_bytes_out
        by_name = self_times(t.spans)
        for metric, names in LAYER_SPANS.items():
            self.times[metric] += sum(by_name.get(name, 0.0) for name in names)
        t.spans.clear()
        self.contexts.clear()
        self.proper_contexts.clear()

    def metrics(self, passes: int) -> dict[str, float]:
        out = {name: value / passes for name, value in self.times.items()}
        out.update({name: value / passes for name, value in self.counts.items()})
        c = self.counts
        dual_s = sum(v[0] for v in self.dual_by_n.values())
        out["hypergraph.us_per_transversal"] = ratio(
            dual_s * 1e6, c["hypergraph.transversals"])
        for n in DIAG_SIZES:
            seconds, found = self.dual_by_n.get(n, (0.0, 0))
            out[f"hypergraph.us_per_transversal.n{n}"] = ratio(seconds * 1e6, found)
        out["hypergraph.edge_keep_ratio"] = ratio(
            c["hypergraph.edges_min"], c["hypergraph.edges_in"])
        out["bases.ms_per_stem_implication"] = ratio(
            self.times["bases.stem_s"] * 1e3, c["bases.stem_implications"])
        out["bases.overhead_ratio"] = ratio(
            self.times["bases.proper_base_s"], self.bare_dual_s)
        return out


def run_phase(name: str, seed: int, seconds: float, workdir: str,
              traced: bool, setup_spawns: int = 0) -> dict:
    workload = WORKLOADS[name]
    probe = None
    if traced:
        probe = LayerProbe()
        probe.install()
    out = {"pass_seconds": [], "op_seconds": [], "outputs": [], "ops": [],
           "failed": 0, "digests": [], "cpu_seconds": 0.0, "part_seconds": [],
           "setup_seconds": [], "ref_seconds": []}
    setups = out["setup_seconds"]
    pending = []  # passes run but not yet checked

    def check(prep, state, seconds, cpu) -> None:
        res = workload.finish(prep, state)
        out["pass_seconds"].append(seconds)
        out["cpu_seconds"] += cpu
        out["op_seconds"].extend(res.op_seconds)
        out["outputs"].append(res.outputs)
        out["ops"].append(len(res.ops))
        out["failed"] += res.failed
        out["digests"].append(res.digest)
        out["part_seconds"].append(res.part_seconds)
        if probe is not None:
            probe.end_pass(res.bytes_out)

    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    k = 0
    # at least RSS_PASSES passes; then another only if it should end in time
    while k < RSS_PASSES or (time.perf_counter() - start) * (k + 1) / k < seconds:
        if workload.workers == 1:
            # One vCPU can run much slower than another for minutes, and
            # a lone busy process stays where it is; taking the CPUs in
            # turn lets every run see each of them.
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        prep = workload.prepare(seed, k, workdir)
        # the host's speed around the pass, on the pass's CPU
        ref0 = time_reference()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        state = workload.run(prep)
        t1, cpu1 = time.perf_counter(), cpu_seconds()
        out["ref_seconds"].append((ref0 + time_reference()) / 2)
        pending.append((prep, state, t1 - t0, cpu1 - cpu0))
        if k + 1 >= RSS_PASSES:
            if k + 1 == RSS_PASSES:
                out["peak_rss_mb"] = peak_rss_mb()
            for item in pending:
                check(*item)
            pending.clear()
        for _ in range(min(SETUP_PER_PASS, setup_spawns - len(setups))):
            setups.append(time_setup())  # on this pass's CPU
        k += 1
    while len(setups) < setup_spawns:
        setups.append(time_setup())
    if probe is not None:
        out["layers"] = probe.metrics(k)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-spawns", type=int, default=0)
    args = parser.parse_args()
    if not Path(implbases.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: implbases imported from {implbases.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = run_phase(args.workload, args.seed, args.seconds, args.workdir,
                       args.traced, args.setup_spawns)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
