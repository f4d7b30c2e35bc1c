"""Implicational bases of formal contexts.

Computes the base of proper premises (canonical direct base) through
per-attribute hypergraph dualization and the Duquenne-Guigues (stem)
base through pseudo-intent enumeration; generates seeded random
contexts under a single-parameter and a multi-parametric model; and
evaluates/fits the theoretical average-size and almost-sure lower
bounds for these bases.
"""

from .bases import (Implication, ImplicationBase, attribute_hypergraph,
                    format_implications, proper_premise_base,
                    proper_premises_of, stem_base)
from .bounds import (RegimeReport, almost_sure_lower_exponent,
                     avg_pp_exponent, base_size_log10, classify_regime,
                     d_of_alpha)
from .context import FormalContext
from .ctxio import (ContextParseError, read_burmeister, read_burmeister_file,
                    read_context_file, read_csv_matrix, write_burmeister)
from .hypergraph import Hypergraph, minimal_transversals, normalize
from .randctx import (MultiParamSpec, SingleParamSpec, effective_probabilities,
                      gen_multi, gen_single, spec_to_keyvalues)
from .sets import AttributeSet, IndexSet
from .sweep import (FitError, FitResult, SweepSpec, TrialRecord,
                    derive_trial_seed, fit_exponent, fit_lower_envelope,
                    parse_csv, render_csv, run_sweep, run_trial)

__all__ = [
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

__version__ = "0.1.0"
