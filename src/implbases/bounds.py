"""Closed-form size-bound evaluators and the multi-model regime classifier.

The average-size bound for minimal transversals of a random hypergraph
(n vertices, m edges, vertex-in-edge probability p) has the shape
``n ** E`` with::

    E = d(alpha) * log_{1/q}(m) + c * ln(ln(m)),   q = 1 - p

where ``alpha = ln(m) / ln(n)``, ``d(alpha)`` is 1 for alpha <= 1 and
``(alpha+1)^2 / (4*alpha)`` above, and c is an unspecified positive
constant. Per-attribute proper premise counts follow by the
context-to-hypergraph mapping: edge count ``m = n_objects * q_ctx`` and
vertex-in-edge probability ``q_ctx``, so the log base becomes
``1/p_ctx``. The code evaluates the mapped form only, with the context's
p itself (never ``1 - (1 - p)``): ``avg_pp_exponent`` and the fit take
its two terms from ``_avg_terms``. The almost-sure lower bound drops the
``d(alpha)`` factor and carries its own constant c2 (which may be
negative).

Every bound is one float exponent E of the attribute count; the raw
counts overflow floats at experiment scales. ``base_size_log10`` turns
either per-attribute exponent into the log10 of the whole base,
``|A| ** (E + 1)``. This module is the one home of the bounds' terms and
refusals (``_log_terms``), of the condition that defines them
(``bound_defined``), of the finiteness check on their constants and
values (``check_finite``) and of one context's exponents
(``context_exponents``); the sweep, the fit, the CLI and the scripts
take them from here and restate none of their refusal texts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .randctx import MultiParamSpec, object_count_as_float

MIN_EDGE_COUNT = 3.0  # ln(ln(m)) must be defined and positive


def d_of_alpha(alpha: float) -> float:
    """Piecewise exponent factor; continuous at alpha = 1."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if alpha <= 1:
        return 1.0
    return (alpha + 1.0) ** 2 / (4.0 * alpha)


def bound_defined(n_attributes: int, n_objects: int, p: float) -> bool:
    """True where the single-model context bounds are defined: at least
    two attributes, p in (0, 1) and objects * q >= 3, so that ln
    ln(objects * q) is positive (below that, the context is
    degenerate-dense). Refuses an object count too large for a float."""
    mq = object_count_as_float(n_objects) * (1.0 - p)
    return n_attributes >= 2 and 0.0 < p < 1.0 and mq >= MIN_EDGE_COUNT


class _DegenerateDense(ValueError):
    """objects * q < 3: no bound is defined, though its inputs are valid."""


def check_finite(name: str, value: float) -> float:
    """`value`, refused when NaN or infinite: a bound constant (c, c2),
    checked before any work, or a bound that overflowed."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _log_terms(n_attributes: int, n_objects: int,
               p: float) -> tuple[float, float]:
    """``log_{1/p}(objects * q)`` and ``ln(ln(objects * q))``: the two
    terms that every bound here (and the fit of their constants) is
    built from. Refuses, in this order, p outside (0, 1), fewer than two
    attributes, a negative object count or one too large for a float,
    and a degenerate-dense context."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if n_attributes < 2:
        raise ValueError(f"n_attributes must be >= 2, got {n_attributes}")
    if n_objects < 0:
        raise ValueError("counts must be >= 0")
    if not bound_defined(n_attributes, n_objects, p):
        raise _DegenerateDense(f"objects * q must be >= {MIN_EDGE_COUNT} "
                               f"(ln ln guard), got {n_objects * (1.0 - p)}")
    m = n_objects * (1.0 - p)
    return math.log(m) / math.log(1.0 / p), math.log(math.log(m))


def _avg_terms(n_attributes: int, n_objects: int,
               p: float) -> tuple[float, float]:
    """Fixed term ``d(alpha) * log_{1/p}(objects * q)`` and c-coefficient
    ``ln(ln(objects * q))`` of the average exponent, with ``alpha =
    ln(objects * q) / ln(n_attributes)``."""
    log_base, lnln = _log_terms(n_attributes, n_objects, p)
    alpha = math.log(n_objects * (1.0 - p)) / math.log(n_attributes)
    return d_of_alpha(alpha) * log_base, lnln


def avg_pp_exponent(n_attributes: int, n_objects: int, p: float,
                    c: float = 1.0) -> float:
    """Exponent of the average per-attribute proper-premise bound
    |A| ** E. Refuses as ``almost_sure_lower_exponent`` does, so also
    degenerate-dense inputs (objects * q < 3) and an overflow."""
    fixed, lnln = _avg_terms(n_attributes, n_objects, p)
    return check_finite("avg_pp_exponent", fixed + c * lnln)


def base_size_log10(exponent: float, n_attributes: int) -> float:
    """log10 of |A| ** (E + 1): the whole base is |A| times the
    per-attribute bound |A| ** E. With the average exponent this bounds
    the proper-premise base, and thereby the pseudo-intent count."""
    return check_finite("base_size_log10",
                        (exponent + 1.0) * math.log10(n_attributes))


def almost_sure_lower_exponent(
        n_attributes: int, n_objects: int, p: float, c2: float = 0.0,
) -> float:
    """Exponent of the almost-sure lower bound on per-attribute
    transversal counts, ``log_{1/p}(objects * q) + c2 * ln(ln(objects *
    q))``; c2 stands in for the unspecified O(ln ln m) constant and may
    be negative. Refuses what ``_log_terms`` refuses, and an overflow.
    """
    log_base, lnln = _log_terms(n_attributes, n_objects, p)
    return check_finite("lower_exponent", log_base + c2 * lnln)


def context_exponents(n_attributes: int, n_objects: int, p: float, c: float = 1.0,
                      c2: float = 0.0) -> tuple[float, float] | None:
    """``avg_pp_exponent`` and ``almost_sure_lower_exponent`` of one
    context, or None where it is degenerate-dense. Refuses a non-finite
    c or c2 first, then what those two refuse."""
    check_finite("c", c)
    check_finite("c2", c2)
    try:
        return (avg_pp_exponent(n_attributes, n_objects, p, c),
                almost_sure_lower_exponent(n_attributes, n_objects, p, c2))
    except _DegenerateDense:
        return None


# -- regime classification ---------------------------------------------------------


# Finite-size stand-ins for the asymptotic class conditions:
#   polynomial:       |U ∪ R| <= K1 * ln(n)
#   quasi-polynomial: |R|     <= K2 * ln(n) ** K3
#   exponential:      |R|     >= K4 * n
K1, K2, K3, K4 = 1.0, 1.0, 2.0, 0.5


@dataclass(frozen=True)
class RegimeReport:
    regime: str   # polynomial | quasi-polynomial | exponential | unclassified
    witness: str  # the cardinality condition that matched


def classify_regime(spec: MultiParamSpec) -> RegimeReport:
    """Classify a multi-model spec by its attribute-class cardinalities.

    The |U ∪ R| condition follows this package's reading of the
    polynomial case (the class-size symbol is ambiguous in its source).
    When several conditions match, the tightest regime wins
    (polynomial < quasi-polynomial < exponential).

    Two specs are the single-parameter model in disguise: ``u=r=0`` is
    the single model at ``p = f_prob`` and ``r=n`` at ``p = 1/ln(n)``,
    so their sizes follow ``avg_pp_exponent``, not these labels. The
    labels do not order base sizes at n = m = 30 (x=2, f_prob=0.5,
    sweep seed 20250808): mean proper-premise pairs over 30 trials are
    about 50k and 66k for the "polynomial" specs u=2, r=1 and u=r=0,
    47k for the "quasi-polynomial" r=11, and 33k for the "exponential"
    r=30.
    """
    n = spec.n_attributes
    if n < 2:
        return RegimeReport("unclassified", f"n={n} too small to classify")
    ln_n = math.log(n)
    ur = spec.u_size + spec.r_size
    r = spec.r_size
    if ur <= K1 * ln_n:
        return RegimeReport(
            "polynomial", f"|U∪R|={ur} <= k1*ln(n)={K1 * ln_n:.4f}")
    if r <= K2 * ln_n ** K3:
        return RegimeReport(
            "quasi-polynomial", f"|R|={r} <= k2*ln(n)^k3={K2 * ln_n ** K3:.4f}")
    if r >= K4 * n:
        return RegimeReport("exponential", f"|R|={r} >= k4*n={K4 * n:.4f}")
    return RegimeReport("unclassified", "no cardinality condition matched")
