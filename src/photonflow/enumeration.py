"""Analytic path enumeration for the correlation setups.

Expected per-pulse coincidence probabilities obtained by enumerating the ways
photons can reach the two detectors: through the plain splitter (purity setup)
or through the two arms of the delay-matched interferometer (the four path
combinations of a consecutive-pulse photon pair).  These expressions give the
central-peak ratio a source should show and the correction coefficients that
the visibility estimator inverts.  Detector efficiencies cancel in all area
ratios but are accepted for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .conversion import survival_probability
from .core import ConfigError

if TYPE_CHECKING:
    from .pipeline import Pipeline


@dataclass(frozen=True)
class HbtExpectation:
    """Per-pulse click and coincidence probabilities in the splitter setup."""

    central: float  # P(d1 and d2 click in the same pulse)
    side: float  # P(d1 at pulse i, d2 at pulse i+k), k != 0, leading order
    click1: float
    click2: float

    @property
    def g2(self) -> float:
        return self.central / self.side


def hbt_expected(
    p_emit: float,
    p_multi: float,
    r: float = 0.5,
    t: float = 0.5,
    surv_signal: float = 1.0,
    surv_multi: float = 1.0,
    eff1: float = 1.0,
    eff2: float = 1.0,
) -> HbtExpectation:
    """Expected areas for a splitter with reflectance r (to detector 1).

    ``surv_signal``/``surv_multi`` are the per-photon survival probabilities
    of any stage between the emitter and the splitter (e.g. conversion and
    filtering, which differ for the spectrally offset companion).
    """
    if r + t > 1.0 + 1e-12:
        raise ConfigError("splitter must have R + T <= 1")
    q2 = p_emit * p_multi  # joint probability of a signal+companion pair
    a1, a2 = surv_signal * r * eff1, surv_signal * t * eff2
    b1, b2 = surv_multi * r * eff1, surv_multi * t * eff2

    central = q2 * (a1 * b2 + a2 * b1)
    # expected tag counts per pulse (linear, so efficiencies cancel in ratios)
    click1 = p_emit * a1 + q2 * b1
    click2 = p_emit * a2 + q2 * b2
    return HbtExpectation(central=central, side=click1 * click2, click1=click1, click2=click2)


def expected_source_g2(pipe: Pipeline) -> float:
    """Central-peak ratio this pipeline's source should show in a splitter setup.

    Used as the calibration input of the visibility correction; mirrors an
    independently measured purity value.  The ratio does not depend on the
    splitter, so a balanced one is assumed.
    """
    surv_signal = surv_multi = 1.0
    if pipe.conversion is not None:
        offset = pipe.filter_center_offset_ghz()
        surv_signal = float(survival_probability(pipe.conversion, 0.0, offset))
        surv_multi = float(
            survival_probability(pipe.conversion, pipe.emitter.multi_detuning_offset_ghz, offset)
        )
    if pipe.emitter.p_multi == 0:
        return 0.0
    return hbt_expected(
        pipe.emitter.p_emit, pipe.emitter.p_multi, 0.5, 0.5, surv_signal, surv_multi
    ).g2


@dataclass(frozen=True)
class VisibilityModel:
    """Normalized-area model of the central interferometer peak.

    With areas normalized to a far side peak, the cross-polarized central
    area is c_two_photon + d_multi * g2 and the co-polarized one replaces the
    two-photon term with its interference-suppressed value.
    """

    c_two_photon: float
    d_multi: float
    kappa: float  # 2 r2 t2 / (r2^2 + t2^2), depth factor of the interference term


def visibility_model(
    r2: float, t2: float, r1: float = 0.5, t1: float = 0.5
) -> VisibilityModel:
    """Correction coefficients from the path enumeration, far-peak normalized."""
    alpha1 = t1 * r2 + r1 * t2
    alpha2 = t1 * t2 + r1 * r2
    far = alpha1 * alpha2
    if far <= 0:
        raise ConfigError("degenerate splitter ratios")
    return VisibilityModel(
        c_two_photon=r1 * t1 * (r2**2 + t2**2) / far,
        d_multi=(t1**2 + r1**2) * r2 * t2 / far,
        kappa=2.0 * r2 * t2 / (r2**2 + t2**2),
    )
