"""Command-line surface: compute bases, generate random contexts,
evaluate bounds, run sweeps, fit constants.

All output is deterministic for fixed flags (wall-clock columns are
opt-in), so identical invocations produce identical bytes. The JSON of
``compute`` is written by one renderer, ``_write_bases_json``, straight
from the bases' masks and in pieces: its bytes equal
``json.dumps(payload, indent=2, sort_keys=True)`` of the payload it
describes, whose pure-Python indenting encoder would cost several times
more on a large base.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bases import format_implications, proper_premise_base, stem_base
from .bounds import base_size_log10, classify_regime, context_exponents
from .ctxio import read_context_file, write_burmeister
from .randctx import (MultiParamSpec, SampleTooLarge, gen_multi, gen_single,
                      spec_from_cell, spec_to_keyvalues)
from .sets import mask_members
from .sweep import (DEFAULT_MAX_PROPER_ATTRIBUTES, DEFAULT_MAX_STEM_ATTRIBUTES,
                    FitError, SweepSpec, check_workers, fit_exponent,
                    parse_csv, record_fields, render_csv, run_sweep,
                    size_guard_refusal)


def _list_of(kind, noun: str):
    """An argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",") if v != "")
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implbases",
        description="Implicational bases of formal contexts: computation, "
                    "random models, size bounds, and sweep experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="compute an implication base of a context file")
    p_compute.add_argument("context", help="context file (Burmeister, or .csv 0/1 matrix)")
    p_compute.add_argument("--base", choices=["proper", "stem", "both"],
                           default="proper")
    p_compute.add_argument("--format", choices=["text", "json"], default="text")
    p_compute.add_argument("--max-proper-attrs", type=int,
                           default=DEFAULT_MAX_PROPER_ATTRIBUTES,
                           help="refuse proper-premise computation above this size")
    p_compute.add_argument("--max-stem-attrs", type=int,
                           default=DEFAULT_MAX_STEM_ATTRIBUTES,
                           help="refuse stem-base computation above this size")

    p_gen = sub.add_parser("gen", help="generate a random context")
    p_gen.add_argument("--model", choices=["single", "multi"], default="single")
    p_gen.add_argument("--objects", type=int, required=True)
    p_gen.add_argument("--attributes", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=0.5,
                       help="cell probability (single model)")
    p_gen.add_argument("--u-size", type=int, default=0)
    p_gen.add_argument("--r-size", type=int, default=0)
    p_gen.add_argument("--x", type=float, default=MultiParamSpec.x)
    p_gen.add_argument("--f-prob", type=float, default=MultiParamSpec.f_prob)
    p_gen.add_argument("--seed", type=int, default=MultiParamSpec.seed)
    p_gen.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_bounds = sub.add_parser("bounds", help="evaluate the theoretical size bounds")
    p_bounds.add_argument("--attributes", type=int, required=True)
    p_bounds.add_argument("--objects", type=int, required=True)
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument("--c", type=float, default=SweepSpec.c)
    p_bounds.add_argument("--c2", type=float, default=SweepSpec.c2)
    p_bounds.add_argument("--u-size", type=int, default=None,
                          help="with --r-size, also classify the multi-model regime")
    p_bounds.add_argument("--r-size", type=int, default=None)
    p_bounds.add_argument("--x", type=float, default=MultiParamSpec.x)
    p_bounds.add_argument("--f-prob", type=float, default=MultiParamSpec.f_prob)
    p_bounds.add_argument("--format", choices=["text", "json"], default="text")

    p_sweep = sub.add_parser("sweep", help="run a seeded parameter sweep to CSV")
    p_sweep.add_argument("--model", choices=["single", "multi"], default="single")
    ints, floats = _list_of(int, "integers"), _list_of(float, "numbers")
    p_sweep.add_argument("--objects", type=ints, required=True,
                         help="comma-separated object counts")
    p_sweep.add_argument("--attributes", type=ints, required=True)
    p_sweep.add_argument("--p", type=floats, default=SweepSpec.p_values)
    p_sweep.add_argument("--u-size", type=ints, default=SweepSpec.u_sizes)
    p_sweep.add_argument("--r-size", type=ints, default=SweepSpec.r_sizes)
    p_sweep.add_argument("--x", type=float, default=MultiParamSpec.x)
    p_sweep.add_argument("--f-prob", type=float, default=MultiParamSpec.f_prob)
    p_sweep.add_argument("--trials", type=int, default=SweepSpec.trials)
    p_sweep.add_argument("--seed", type=int, default=SweepSpec.base_seed)
    p_sweep.add_argument("--base", choices=["proper", "stem", "both"],
                         default="proper",
                         help="'stem'/'both' additionally compute the stem base")
    p_sweep.add_argument("--c", type=float, default=SweepSpec.c)
    p_sweep.add_argument("--c2", type=float, default=SweepSpec.c2)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="run the trials in N processes, this one and "
                              "N-1 forked children; results stay in (cell, "
                              "trial) order, so the output bytes do not "
                              "depend on N")
    p_sweep.add_argument("--timings", action="store_true",
                         help="include wall-clock columns (breaks byte determinism)")
    p_sweep.add_argument("--max-proper-attrs", type=int,
                         default=DEFAULT_MAX_PROPER_ATTRIBUTES)
    p_sweep.add_argument("--max-stem-attrs", type=int,
                         default=DEFAULT_MAX_STEM_ATTRIBUTES)
    p_sweep.add_argument("--out", default="-")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    p_fit = sub.add_parser("fit", help="fit bound constants to sweep CSV output")
    p_fit.add_argument("csv", help="sweep CSV path")
    p_fit.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def _open_out(path: str):
    """The stream for ``--out`` (stdout for '-'), to use in a ``with``
    block, or None after one error line on stderr when the file cannot
    be opened for writing."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        return None


def _read_input(path: str, read):
    """``read(path)``, or None after one error line on stderr when the
    file is missing, unreadable, not UTF-8 or malformed."""
    try:
        return read(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte "
              f"{exc.start})", file=sys.stderr)
    except ValueError as exc:  # a malformed context or sweep CSV
        print(f"error: {path}: {exc}", file=sys.stderr)
    return None


def cmd_compute(args) -> int:
    ctx = _read_input(args.context, read_context_file)
    if ctx is None:
        return 2
    if ctx.n_objects == 0 or ctx.n_attributes == 0:
        print(f"error: {args.context}: context is empty "
              f"({ctx.n_objects} objects, {ctx.n_attributes} attributes)",
              file=sys.stderr)
        return 2
    kinds = ["proper", "stem"] if args.base == "both" else [args.base]
    refusal = size_guard_refusal(
        ctx.n_attributes,
        args.max_proper_attrs if "proper" in kinds else None,
        args.max_stem_attrs if "stem" in kinds else None)
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
        return 2

    results = {}
    for kind in kinds:
        base = proper_premise_base(ctx) if kind == "proper" else stem_base(ctx)
        results[kind] = base
    if args.format == "json":
        _write_bases_json(sys.stdout, ctx, results)
        return 0
    for kind, base in results.items():
        if len(results) > 1:
            sys.stdout.write(f"# base={kind}\n")
        sys.stdout.write(format_implications(base, ctx.attribute_names))
        sys.stdout.write(
            f"# {kind}: implications={len(base)} premises={base.premise_count} "
            f"pairs={base.pair_count} attributes={ctx.n_attributes} "
            f"objects={ctx.n_objects}\n")
    return 0


# implications per piece of ``compute --format json``: a few hundred
# kilobytes, few enough writes that their overhead does not show
_JSON_PIECE = 1024


def _write_bases_json(out, ctx, results: dict) -> None:
    """``compute --format json``: writes to ``out`` exactly the bytes
    that ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` gives
    for the payload ``{"objects", "attributes", "bases": {kind: {
    "implications": [{"premise": [names], "conclusion": [names]}, ...],
    "implication_count", "premise_count", "pair_count"}}}``, without
    building it: each attribute name is encoded once by ``json.dumps``,
    each distinct conclusion is rendered once, and the implications are
    written ``_JSON_PIECE`` at a time, in their base order, so that no
    copy of the whole text is ever held."""
    member = [f"\n            {json.dumps(name)}" for name in ctx.attribute_names]

    def name_list(mask: int) -> str:  # at an implication's member depth
        if not mask:
            return "[]"
        return f"[{','.join([member[a] for a in mask_members(mask)])}\n          ]"

    out.write(f'{{\n  "attributes": {ctx.n_attributes},\n  "bases": {{')
    for i, (kind, base) in enumerate(sorted(results.items())):
        pairs = base.mask_pairs()
        out.write(f'{"," if i else ""}\n    "{kind}": {{'
                  f'\n      "implication_count": {len(base)},'
                  f'\n      "implications": {"[" if pairs else "[]"}')
        if pairs:
            conclusions = {c: name_list(c) for c in {c for _, c in pairs}}
            out.writelines(
                ("," if start else "") + ",".join([
                    f'\n        {{\n          "conclusion": {conclusions[c]},'
                    f'\n          "premise": {name_list(p)}\n        }}'
                    for p, c in pairs[start:start + _JSON_PIECE]])
                for start in range(0, len(pairs), _JSON_PIECE))
            out.write("\n      ]")
        out.write(f',\n      "pair_count": {base.pair_count},'
                  f'\n      "premise_count": {base.premise_count}\n    }}')
    out.write(f'\n  }},\n  "objects": {ctx.n_objects}\n}}\n')


def cmd_gen(args) -> int:
    try:
        spec = spec_from_cell(vars(args), args.seed)
        ctx = (gen_single if args.model == "single" else gen_multi)(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _open_out(args.out)
    if out is None:
        return 2
    with out as fh:
        fh.write(write_burmeister(ctx, header_comments=spec_to_keyvalues(spec)))
    return 0


def cmd_bounds(args) -> int:
    try:
        rows = _bound_rows(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(json.dumps(dict(rows), indent=2, sort_keys=True) + "\n")
    else:
        for name, value in rows:
            sys.stdout.write(f"{name} = {value}\n")
    return 0


def _bound_rows(args) -> list[tuple[str, str]]:
    exponents = context_exponents(args.attributes, args.objects, args.p,
                                  args.c, args.c2)
    if exponents is not None:
        avg, lower = exponents
        rows = [("avg_pp_exponent", repr(avg)),
                ("lower_exponent", repr(lower)),
                ("total_base_log10", repr(base_size_log10(avg, args.attributes))),
                ("lower_total_log10",
                 repr(base_size_log10(lower, args.attributes)))]
    else:
        mq = args.objects * (1.0 - args.p)
        rows = [(name, f"degenerate-dense (objects*q={mq!r} < 3)") for name
                in ("avg_pp_exponent", "lower_exponent", "total_base_log10")]
    if args.u_size is not None or args.r_size is not None:
        spec = spec_from_cell({**vars(args), "model": "multi",
                               "u_size": args.u_size or 0,
                               "r_size": args.r_size or 0})
        report = classify_regime(spec)
        rows.append(("regime", report.regime))
        rows.append(("regime_witness", report.witness))
    return rows


def cmd_sweep(args) -> int:
    try:
        spec = SweepSpec(
            model=args.model,
            objects=args.objects,
            attributes=args.attributes,
            p_values=args.p,
            u_sizes=args.u_size,
            r_sizes=args.r_size,
            x=args.x,
            f_prob=args.f_prob,
            trials=args.trials,
            base_seed=args.seed,
            with_stem=args.base in ("stem", "both"),
            c=args.c,
            c2=args.c2,
            max_proper_attributes=args.max_proper_attrs,
            max_stem_attributes=args.max_stem_attrs,
        )
        check_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _open_out(args.out)  # before any trial runs
    if out is None:
        return 2
    with out as fh:
        try:
            records = run_sweep(spec, workers=args.workers)
        except SampleTooLarge as exc:  # a sample that cannot be allocated
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            payload = [record_fields(rec, args.timings) for rec in records]
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            fh.write(render_csv(spec, records, include_timings=args.timings))
    return 1 if any(rec.error is not None for rec in records) else 0


def cmd_fit(args) -> int:
    rows = _read_input(
        args.csv, lambda p: parse_csv(Path(p).read_text(encoding="utf-8")))
    if rows is None:
        return 2
    try:
        result = fit_exponent(rows)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a malformed value in a trial row
        print(f"error: {args.csv}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {**asdict(result),
                   "max_relative_residual": result.max_relative_residual}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    sys.stdout.write(f"c = {result.c!r}\n")
    sys.stdout.write(f"log_k = {result.log_k!r}\n")
    sys.stdout.write(f"c2 = {result.c2!r}\n")
    sys.stdout.write(f"max_relative_residual = {result.max_relative_residual!r}\n")
    for s in result.cells:
        sys.stdout.write(
            f"cell attributes={s.attributes} objects={s.objects} p={s.p!r} "
            f"mean={s.mean_count!r} fitted={s.fitted_count!r} "
            f"rel_residual={s.relative_residual!r}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "gen": cmd_gen,
        "bounds": cmd_bounds,
        "sweep": cmd_sweep,
        "fit": cmd_fit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
