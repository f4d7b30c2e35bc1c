"""The package's public names and value types, and the line between
the program and the test suite's reference implementations."""

import ast
import copy
import os
import pickle
import subprocess
import sys

import pytest

import implbases
from implbases import (Implication, IndexSet, SingleParamSpec,
                       attribute_hypergraph, gen_single, proper_premise_base,
                       read_burmeister, stem_base)

PUBLIC_NAMES = [
    "AttributeSet", "ContextParseError",
    "FitError", "FitResult", "FormalContext", "Hypergraph", "Implication",
    "ImplicationBase", "IndexSet", "MultiParamSpec",
    "RegimeReport", "SingleParamSpec", "SweepSpec", "TrialRecord",
    "almost_sure_lower_exponent", "attribute_hypergraph",
    "avg_pp_exponent", "base_size_log10",
    "classify_regime", "d_of_alpha",
    "derive_trial_seed", "effective_probabilities", "fit_exponent",
    "fit_lower_envelope", "format_implications", "gen_multi", "gen_single",
    "minimal_transversals", "normalize", "parse_csv",
    "proper_premise_base", "proper_premises_of", "read_burmeister",
    "read_burmeister_file", "read_context_file", "read_csv_matrix",
    "render_csv", "run_sweep", "run_trial",
    "spec_to_keyvalues", "stem_base", "write_burmeister",
]


def test_public_names_are_pinned_and_resolve():
    assert implbases.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(implbases, name) is not None, name


def test_importing_the_cli_loads_nothing_from_the_tests():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys, implbases.cli\n"
            "for m in list(sys.modules.values()):\n"
            "    print(getattr(m, '__file__', None) or '')\n")
    # the tests directory on the path, so that an import of a test module
    # would find it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (os.environ.get("PYTHONPATH"), tests_dir) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    loaded = [os.path.abspath(f) for f in proc.stdout.split("\n") if f]
    assert any(f.endswith(os.path.join("implbases", "cli.py")) for f in loaded)
    assert not [f for f in loaded
                if os.path.commonpath([f, tests_dir]) == tests_dir]


def test_oracles_import_no_private_engine_name():
    # the reference implementations must not share the engine's private
    # kernels (such as the closure the stem base runs): a fault there
    # would hide from the tests that compare the two
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "oracles.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        private += [name for name in names
                    if name.split(".")[0] == "implbases"
                    and any(part.startswith("_") for part in name.split(".")[1:])]
    assert not private, private


@pytest.mark.parametrize("clone", [
    lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_value_types_pickle_and_copy(clone):
    """Every public value type comes back equal, with an equal hash and
    repr; a context keeps its names and columns, which its equality does
    not read."""
    named = read_burmeister(
        "B\n\n3\n4\n\nalice\nbob\ncarol\nred\ngreen\nblue\nteal\n"
        "XX..\n.XX.\nX..X\n")
    sampled = gen_single(SingleParamSpec(9, 7, 0.5, seed=5))
    values = [named, sampled, IndexSet(6, [0, 2, 5]),
              attribute_hypergraph(sampled, 1),
              Implication(IndexSet(4, [0]), IndexSet(4, [1, 3])),
              proper_premise_base(sampled), stem_base(named)]
    for value in values:
        out = clone(value)
        assert type(out) is type(value)
        assert out == value and hash(out) == hash(value), value
        assert repr(out) == repr(value)
    for ctx in (named, sampled):
        out = clone(ctx)
        assert ((out.object_names, out.attribute_names, out.row_masks)
                == (ctx.object_names, ctx.attribute_names, ctx.row_masks))
    assert clone(named).attribute_names == ("red", "green", "blue", "teal")
