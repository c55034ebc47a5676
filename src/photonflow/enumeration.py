"""Analytic path enumeration for the correlation setups.

Expected per-pulse coincidence probabilities obtained by enumerating the ways
photons can reach the two detectors: through the plain splitter (purity setup)
or through the two arms of the delay-matched interferometer (the four path
combinations of a consecutive-pulse photon pair).  These expressions give the
central-peak ratio a source should show and the correction coefficients that
the visibility estimator inverts.  Splitter ratios and detector efficiencies
scale both the central and the side areas of the splitter setup alike, so its
ratio takes neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .conversion import survival_probability
from .core import ConfigError

if TYPE_CHECKING:
    from .pipeline import Pipeline


def splitter_g2(p_emit: float, p_multi: float, surv_signal: float, surv_multi: float) -> float:
    """Central-to-side area ratio of the splitter setup, written out for a balanced splitter.

    ``surv_signal``/``surv_multi`` are the per-photon survival probabilities
    of any stage between the emitter and the splitter (e.g. conversion and
    filtering, which differ for the spectrally offset companion).
    """
    q2 = p_emit * p_multi  # joint probability of a signal+companion pair
    a, b = surv_signal * 0.5, surv_multi * 0.5  # a signal's and a companion's chance of each port
    clicks = p_emit * a + q2 * b  # expected tags per pulse at either detector
    # central: signal and companion on different ports; side: one click on each
    return q2 * (2 * a * b) / (clicks * clicks)


def expected_source_g2(pipe: Pipeline) -> float:
    """Central-peak ratio this pipeline's source should show in a splitter setup.

    Used as the calibration input of the visibility correction; mirrors an
    independently measured purity value.
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
    return splitter_g2(pipe.emitter.p_emit, pipe.emitter.p_multi, surv_signal, surv_multi)


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
