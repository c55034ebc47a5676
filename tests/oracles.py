"""Closed-form oracles that only the tests use.

The enumeration expressions below check the engine and the estimators: the
companion probability that gives a target central-peak ratio, the central
coincidence probability of one interfering pulse pair, the five-peak HOM
cluster, and the forward/inverse visibility model.
"""

from __future__ import annotations

from scipy.optimize import brentq

from photonflow.core import ConfigError
from photonflow.enumeration import VisibilityModel, hbt_expected


def calibrate_p_multi(
    target_g2: float,
    p_emit: float,
    r: float = 0.5,
    t: float = 0.5,
    surv_signal: float = 1.0,
    surv_multi: float = 1.0,
) -> float:
    """Companion probability that yields the target central-peak ratio.

    The measured ratio is a property of areas, not a per-pulse probability;
    to leading order it is 2 p_multi / p_emit, and this solves the exact
    enumeration expression instead.
    """
    if target_g2 == 0:
        return 0.0
    if not 0 < target_g2 < 1:
        raise ConfigError("target g2 must be in [0, 1)")

    def deficit(p_multi: float) -> float:
        return hbt_expected(p_emit, p_multi, r, t, surv_signal, surv_multi).g2 - target_g2

    hi = min(1.0, p_emit)
    if deficit(hi) < 0:
        raise ConfigError(f"target g2 {target_g2} not reachable with p_emit {p_emit}")
    return float(brentq(deficit, 1e-15, hi, xtol=1e-15))


def hom_pair_central(
    r1: float, t1: float, r2: float, t2: float, m_eff: float
) -> float:
    """Central coincidence probability for one consecutive-pulse photon pair.

    The pair meets at the output splitter only on the long/short path
    combination (probability r1*t1); the coincidence probability there
    carries the two-photon interference term.
    """
    if min(r1, t1, r2, t2) < 0 or r1 + t1 > 1 + 1e-12 or r2 + t2 > 1 + 1e-12:
        raise ConfigError("splitter fractions must be non-negative with R + T <= 1")
    if not 0.0 <= m_eff <= 1.0:
        raise ConfigError("effective overlap must be in [0, 1]")
    return r1 * t1 * (r2**2 + t2**2 - 2.0 * r2 * t2 * m_eff)


def hom_cluster_areas(
    r1: float, t1: float, r2: float, t2: float, m_eff: float
) -> dict[int, float]:
    """Expected areas of the central five-peak cluster, one photon per pulse.

    Keys are the peak lags in repetition periods; values are per-pulse
    coincidence probabilities for unit emission and detection.  Peaks at
    |lag| >= 2 all equal the far-peak product value.
    """
    alpha1 = t1 * r2 + r1 * t2  # single-photon click probability factors
    alpha2 = t1 * t2 + r1 * r2
    far = alpha1 * alpha2
    return {
        -2: far,
        -1: (t1**2 + r1**2) * r2 * t2 + r1 * t1 * r2**2,
        0: hom_pair_central(r1, t1, r2, t2, m_eff),
        1: (t1**2 + r1**2) * r2 * t2 + r1 * t1 * t2**2,
        2: far,
    }


def visibility_forward(
    model: VisibilityModel, overlap: float, g2: float, epsilon: float
) -> tuple[float, float]:
    """(a_perp, a_par) normalized central areas for the given ground truth."""
    m_eff = (1.0 - epsilon) ** 2 * overlap
    a_perp = model.c_two_photon + model.d_multi * g2
    a_par = model.c_two_photon * (1.0 - model.kappa * m_eff) + model.d_multi * g2
    return a_perp, a_par


def visibility_invert(
    model: VisibilityModel, a_perp: float, a_par: float, g2: float, epsilon: float
) -> float:
    """Overlap estimate from measured normalized areas (exact model inverse)."""
    denom = (a_perp - model.d_multi * g2) * model.kappa * (1.0 - epsilon) ** 2
    if denom <= 0:
        raise ConfigError("visibility correction denominator is not positive")
    return (a_perp - a_par) / denom
