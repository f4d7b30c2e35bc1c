"""Byte pins for the CLI: the sha256 of stdout and the exit code of a
fixed set of runs.

The digests were recorded before the proper-premise kernel, the trial
record mapping and the sweep loop were consolidated, the stem-base pins
on 20 x 20 contexts before the Next-Closure loop of ``stem_base`` was
folded into one, the 30 x 30 proper-premise and 12 x 12 two-base pins
before the base came to be ordered on mask-derived keys and its JSON
written by the CLI's own renderer, the ``gen_single`` and ``gen_multi``
pins before every generator spec came to be built by
``randctx.spec_from_cell``, and the ``gen`` pin at seed 2**200 + 3 before
the sampler came to compute its column seeds itself instead of building
numpy's objects per column, so any change to the bytes those paths write shows up here. The bound and sweep pins that
carry bound columns or refused rows were re-recorded when the bounds
came to read p itself (not ``1 - (1 - p)``) and a sweep trial came to be
refused only by its size guards, before any work. The stem base's JSON
listing keeps the lectic order in which its implications are found, so
it pins the enumeration order too. To
re-record after a deliberate output change, print
``_digest(run_cli(RUNS[name], tmp))`` for each name in ``RUNS``.
"""

import contextlib
import hashlib
import io
import os

import pytest

from implbases.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TOY = "{root}/data/toy_context.cxt"
SINGLE = ("sweep", "--model", "single", "--objects", "6,8",
          "--attributes", "6,7", "--p", "0.3,0.5", "--trials", "2",
          "--seed", "11", "--base", "both")
MULTI = ("sweep", "--model", "multi", "--objects", "10", "--attributes", "8",
         "--u-size", "0,2", "--r-size", "0,3", "--trials", "2", "--seed", "13")
FIT_CELLS = ("sweep", "--model", "single", "--objects", "10",
             "--attributes", "8,10,12", "--p", "0.5", "--trials", "2",
             "--seed", "5", "--out", "{tmp}/three_cells.csv")
BOUNDS_REGIME = ("bounds", "--attributes", "40", "--objects", "40", "--p", "0.3",
                 "--u-size", "0", "--r-size", "40")
FIT_CELLS_P03 = ("sweep", "--model", "single", "--objects", "10",
                 "--attributes", "8,10,12", "--p", "0.3", "--trials", "2",
                 "--seed", "5", "--out", "{tmp}/three_cells_p03.csv")


def _gen_g20(seed: int) -> tuple[str, ...]:
    """A 20 x 20 context at p = 0.5: large enough that most lectic
    successor candidates are rejected by Next-Closure's lectic test."""
    return ("gen", "--objects", "20", "--attributes", "20", "--p", "0.5",
            "--seed", str(seed), "--out", "{tmp}/g20.cxt")


STEM_G20 = ("compute", "{tmp}/g20.cxt", "--base", "stem")


def _gen_square(n: int, seed: int) -> tuple[str, ...]:
    """An n x n context at p = 0.5 written to ``{tmp}/g<n>.cxt``."""
    return ("gen", "--objects", str(n), "--attributes", str(n), "--p", "0.5",
            "--seed", str(seed), "--out", f"{{tmp}}/g{n}.cxt")


# a 30 x 30 proper-premise base has tens of thousands of implications,
# so these pin the order and rendering of a large base
PROPER_G30 = ("compute", "{tmp}/g30.cxt", "--base", "proper")
BOTH_G12_JSON = ("compute", "{tmp}/g12.cxt", "--base", "both", "--format", "json")

# name -> (argument lists run in order, only the last one's stdout pinned)
RUNS = {
    "compute_text": [("compute", TOY)],
    "compute_json": [("compute", TOY, "--format", "json")],
    "compute_both": [("compute", TOY, "--base", "both")],
    "sweep_single_csv": [SINGLE],
    "sweep_single_json": [SINGLE + ("--format", "json")],
    "sweep_multi_csv": [MULTI],
    "sweep_multi_json": [MULTI + ("--format", "json")],
    "sweep_guard_rows": [("sweep", "--objects", "6", "--attributes", "5,8,12",
                          "--trials", "2", "--seed", "3", "--base", "both",
                          "--max-proper-attrs", "10", "--max-stem-attrs", "6")],
    "fit_three_cells": [FIT_CELLS, ("fit", "{tmp}/three_cells.csv")],
    # the bounds at p = 0.3, where 1 - (1 - p) != p in floats
    "bounds_regime_text": [BOUNDS_REGIME],
    "bounds_regime_json": [BOUNDS_REGIME + ("--format", "json")],
    "bounds_degenerate_dense": [("bounds", "--attributes", "40", "--objects",
                                 "40", "--p", "0.95")],
    "fit_three_cells_p03": [FIT_CELLS_P03, ("fit", "{tmp}/three_cells_p03.csv")],
    "fit_three_cells_p03_json": [FIT_CELLS_P03, ("fit", "{tmp}/three_cells_p03.csv",
                                                 "--format", "json")],
    "sweep_p01_csv": [("sweep", "--objects", "8", "--attributes", "6,7",
                       "--p", "0.1", "--trials", "2", "--seed", "17")],
    "sweep_one_attribute": [("sweep", "--objects", "10", "--attributes", "1",
                             "--p", "0.5", "--seed", "1")],
    "compute_stem_g20_seed7": [_gen_g20(7), STEM_G20],
    "compute_stem_g20_seed7_json": [_gen_g20(7), STEM_G20 + ("--format", "json")],
    "compute_stem_g20_seed29": [_gen_g20(29), STEM_G20],
    "compute_stem_g20_seed29_json": [_gen_g20(29), STEM_G20 + ("--format", "json")],
    "compute_proper_g30_seed7": [_gen_square(30, 7), PROPER_G30],
    "compute_proper_g30_seed7_json": [_gen_square(30, 7),
                                      PROPER_G30 + ("--format", "json")],
    "compute_both_g12_seed7_json": [_gen_square(12, 7), BOTH_G12_JSON],
    # the generated file itself: header comments and the sampled crosses
    "gen_single": [("gen", "--objects", "12", "--attributes", "9", "--p", "0.3",
                    "--seed", "31")],
    "gen_multi": [("gen", "--model", "multi", "--objects", "12", "--attributes",
                   "9", "--u-size", "2", "--r-size", "3", "--x", "2.5",
                   "--f-prob", "0.3", "--seed", "31")],
    # a seed of 7 uint32 words, past SeedSequence's 4-word pool, and
    # more attributes than one 64-bit word holds
    "gen_single_seed_2p200": [("gen", "--objects", "12", "--attributes", "70",
                               "--p", "0.4", "--seed", str(2 ** 200 + 3))],
}

EXPECTED = {
    "compute_both": (0, "2cb46d2ba9f89d1e19f2b12bd4c20ebe90ae783fb8cca7ac7601f3498cf2b89e"),
    "compute_json": (0, "cae0388faf0feda410ef6582eddab9c0c61e96c7d9d0e3b0fbd8e52e453c930e"),
    "compute_text": (0, "cc24156ae0ea329cee2c7ae37f434d731b4d73e3e21014ea5f4fef411da53dd7"),
    "fit_three_cells": (0, "930b9444fb953042bd43d3d8257d92eca4f4e685835f727a7172e2499ae44c5d"),
    "sweep_guard_rows": (1, "62d88b3c2bfbe5b3b4c68a404649186703da088e26385c75efe9b0dff55ce290"),
    "sweep_multi_csv": (0, "53aca8f68f4e50fb92b40f8fdd8554aea5803c70c5eba3c2d291aaea19bfb601"),
    "sweep_multi_json": (0, "e8bc5da23b9dc8afc49c1a2aa1fef4771ddcf35bf2acd2ebff84271c170498b4"),
    "sweep_single_csv": (0, "7fbb693da44ef9eb10b39dbaea78025b1b9e33ad315a51769f55602dbafa7464"),
    "sweep_single_json": (0, "bb9557a21f3904c7751ff049ef8dcdf8df303c29b3cf70cab27e27787b43a278"),
    "bounds_degenerate_dense": (0, "86fe21999774c0d6fadf9fc9502615c2e566f0dc923994bc4dfa5ae63f3239db"),
    "bounds_regime_json": (0, "f45d5ff0be7b79ed3bdb995d2b2fdd86c299bb1050013e29ddb6163b743ea88f"),
    "bounds_regime_text": (0, "0c59824b02c540c31ae8c60c9d5894663dd8b87b0d614d9659e8c2e18494aaae"),
    "fit_three_cells_p03": (0, "ab3c5f9d2394de5c85493e0cf2a10023b97b64f2cdf2231ed184becae09c8519"),
    "fit_three_cells_p03_json": (0, "bc1f74003707b4d05e007eda647acadee3117198b3d2239c8a4c129bc0a8464d"),
    "sweep_one_attribute": (0, "f966ee1208f2711c04b3ea19c60aed3ac2ce119cdf2b78b7851f54f5c844260d"),
    "sweep_p01_csv": (0, "964738e66564fc8e106f27ba579911005f4977a05014b6d65cb0f8f6341a2e9f"),
    "compute_stem_g20_seed7": (0, "5e064c330f0a016ac7d8078414e050a5929f8bee2c480ef4003b6540b8d1cee7"),
    "compute_stem_g20_seed7_json": (0, "d338eb74a9b5ba5353d4dc9c5e8c64b13d959b8857a4a6bfe5e24ad445c654a7"),
    "compute_stem_g20_seed29": (0, "92f40f8d83354fff50b7968c98eea1658d8bf9565498134cf094f385c477af49"),
    "compute_stem_g20_seed29_json": (0, "139e97877112327b3639cd6f0f3cbd57f6aabc8e13ffbc7c2e8746ebb113f74f"),
    "compute_proper_g30_seed7": (0, "210131f4e57db0c147907e3682b0718c27b747a86b4b6a8a85311b432c22e01b"),
    "compute_proper_g30_seed7_json": (0, "bd9b13ac327f9e3525e8712b5ef7433beecc33c2c8983208e51e88c4860c798b"),
    "compute_both_g12_seed7_json": (0, "d2a6b040c15484ff39192ef85e029b09bc8c0ade3d04d9e08018cb8d142dc8fe"),
    "gen_single": (0, "b7954cda7784644cdff71ff2a3d0ea34760688a19b6e29f78f7f566c0cec1f47"),
    "gen_multi": (0, "5031efe953f65a159298cd17caa8b86ca73b321084e514f30f056ac27e69578b"),
    "gen_single_seed_2p200": (0, "f9e881c3681f8dbb16896557a87c1aaf3f4975b6382b9e1795da21bb6919e16b"),
}


def run_cli(arg_lists, tmp) -> tuple[int, bytes]:
    """Runs the CLI in this process (interpreter start-up would dominate
    the test's time) and returns the last run's exit code and stdout."""
    for args in arg_lists:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([a.format(tmp=tmp, root=ROOT) for a in args])
    return code, out.getvalue().encode("utf-8")


def _digest(result: tuple[int, bytes]) -> tuple[int, str]:
    code, out = result
    return code, hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_bytes_pinned(name, tmp_path):
    assert _digest(run_cli(RUNS[name], tmp_path)) == EXPECTED[name]
