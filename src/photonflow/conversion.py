"""Difference-frequency conversion stage.

Maps photons from the emitter band to the telecom band, with pump-power
dependent efficiency, Gaussian spectral filtering, a loss budget, and optional
broadband noise.  Also implements the classical characterization: the
saturation fit and the two internal-efficiency bound estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, Wavelength, poisson_times

_FWHM_TO_GAUSS = 4.0 * math.log(2.0)  # exp(-4 ln2 (d/FWHM)^2) is 1/2 at d = FWHM/2


class FitError(RuntimeError):
    """A least-squares fit could not be performed or did not converge."""


class MeasurementError(ValueError):
    """Measured values are mutually inconsistent."""


@dataclass(frozen=True)
class LossBudget:
    """Passive loss fractions of the conversion setup, input fiber to output fiber."""

    lens_in: float = 0.065
    lens_out: float = 0.065
    coupling: float = 0.04
    filter_chain: float = 0.30
    fiber_out: float = 0.25

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"loss fraction {name} must be in [0, 1]")

    def transmission(self) -> float:
        t = 1.0
        for value in self.__dict__.values():
            t *= 1.0 - value
        return t


@dataclass(frozen=True)
class ConversionConfig:
    pump_wavelength: Wavelength
    pump_power_mw: float
    eta_max: float
    p_sat_mw: float
    filter_fwhm_ghz: float = 115.0
    filter_center: Wavelength | None = None
    loss_budget: LossBudget = field(default_factory=LossBudget)
    noise_rate_cps: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta_max <= 1.0:
            raise ConfigError("eta_max must be in (0, 1]")
        if not self.p_sat_mw > 0:
            raise ConfigError("p_sat_mw must be positive")
        if not self.filter_fwhm_ghz > 0:
            raise ConfigError("filter_fwhm_ghz must be positive")
        if self.pump_power_mw < 0 or self.noise_rate_cps < 0:
            raise ConfigError("pump power and noise rate must be non-negative")
        if self.eta_max > self.loss_budget.transmission() + 1e-12:
            raise ConfigError(
                f"eta_max {self.eta_max} exceeds the loss-budget transmission "
                f"{self.loss_budget.transmission():.4f}"
            )


@dataclass(frozen=True)
class SaturationFit:
    eta_max: float
    p_sat_mw: float
    residual_rms: float
    eta_max_err: float = 0.0
    p_sat_err_mw: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta_max <= 1.0:
            raise ConfigError("fitted eta_max must be in (0, 1]")
        if not self.p_sat_mw > 0:
            raise ConfigError("fitted p_sat_mw must be positive")


@dataclass(frozen=True)
class EfficiencyBounds:
    eta_int_lower: float
    eta_int_upper: float

    def __post_init__(self):
        if self.eta_int_lower > self.eta_int_upper:
            raise MeasurementError("lower efficiency bound exceeds upper bound")


def dfg_wavelength(lambda1: Wavelength, lambda2: Wavelength) -> Wavelength:
    """Difference-frequency output wavelength 1/(1/l1 - 1/l2).

    Energy conservation 1/l3 = 1/l1 - 1/l2 holds to machine precision.
    """
    if lambda2.nm <= lambda1.nm:
        raise ConfigError(
            f"pump ({lambda2.nm} nm) must be redder than the signal ({lambda1.nm} nm)"
        )
    return Wavelength(1.0 / (1.0 / lambda1.nm - 1.0 / lambda2.nm))


def saturation_efficiency(cfg: ConversionConfig, pump_power_mw: float) -> float:
    """External conversion efficiency at the given in-waveguide pump power."""
    if pump_power_mw < 0:
        raise ConfigError("pump power must be non-negative")
    eta = float(saturation_curve(pump_power_mw, cfg.eta_max, cfg.p_sat_mw))
    return min(max(eta, 0.0), cfg.eta_max)


def saturation_curve(p_mw, eta_max: float, p_sat_mw: float):
    """The sin^2 saturation law eta_max sin^2(pi/2 sqrt(P/P_sat)), for scalars or arrays."""
    return eta_max * np.sin(0.5 * np.pi * np.sqrt(p_mw / p_sat_mw)) ** 2


def fit_saturation(points: list[tuple[float, float]]) -> SaturationFit:
    """Least-squares fit of the sin^2 saturation model to (power, efficiency) points.

    The model is linear in eta_max (a separable least-squares problem): for a
    given P_sat the best eta_max is the projection of the data onto the
    unit-amplitude curve, clipped to the bounds [1e-9, 1].  The fit is then a
    search over P_sat in [1e-9, 100 max P] on a log grid zoomed onto its
    minimum, so no starting guess can fall outside the bounds.  The errors are
    curve_fit's defaults: (J^T J)^-1 scaled by the residual variance.
    """
    if len(points) < 4:
        raise FitError(f"need at least 4 scan points, got {len(points)}")
    p = np.asarray([pt[0] for pt in points], dtype=float)
    eta = np.asarray([pt[1] for pt in points], dtype=float)
    if np.ptp(p) == 0:
        raise FitError("all scan powers are equal")
    order = np.argsort(p)
    imax = int(np.argmax(eta[order]))
    if imax in (0, len(points) - 1):
        raise FitError("scan does not span the efficiency maximum")

    lo, hi = math.log(1e-9), math.log(100.0 * p.max())
    for _ in range(8):  # each pass narrows the bracket 50-fold, to ~1e-12 in log P_sat
        log_grid = np.linspace(lo, hi, 101)
        shape = saturation_curve(p, 1.0, np.exp(log_grid)[:, None])
        amplitude = np.clip(shape @ eta / np.sum(shape**2, axis=1), 1e-9, 1.0)
        best = int(np.argmin(np.sum((eta - amplitude[:, None] * shape) ** 2, axis=1)))
        lo, hi = log_grid[max(best - 1, 0)], log_grid[min(best + 1, 100)]
    eta_max, p_sat = float(amplitude[best]), float(np.exp(log_grid[best]))

    theta = 0.5 * np.pi * np.sqrt(p / p_sat)
    jac = np.column_stack([np.sin(theta) ** 2, -eta_max * np.sin(2 * theta) * theta / (2 * p_sat)])
    residuals = eta - eta_max * jac[:, 0]
    cov = np.linalg.pinv(jac.T @ jac) * np.sum(residuals**2) / (len(points) - 2)
    return SaturationFit(
        eta_max=eta_max,
        p_sat_mw=p_sat,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        eta_max_err=float(np.sqrt(cov[0, 0])),
        p_sat_err_mw=float(np.sqrt(cov[1, 1])),
    )


def filter_transmission(cfg: ConversionConfig, detuning_ghz) -> np.ndarray | float:
    """Gaussian bandpass transmission at the given offset from the filter center."""
    d = np.asarray(detuning_ghz, dtype=float)
    out = np.exp(-_FWHM_TO_GAUSS * (d / cfg.filter_fwhm_ghz) ** 2)
    return float(out) if out.ndim == 0 else out


def filter_offset_ghz(cfg: ConversionConfig, converted_center: Wavelength) -> float:
    """Frequency offset between the converted line center and the filter center."""
    if cfg.filter_center is None:
        return 0.0
    return converted_center.frequency_ghz - cfg.filter_center.frequency_ghz


def survival_probability(cfg: ConversionConfig, detuning_ghz, center_offset_ghz: float = 0.0):
    """Per-photon probability of surviving conversion plus filtering."""
    eta = saturation_efficiency(cfg, cfg.pump_power_mw)
    return eta * filter_transmission(cfg, np.asarray(detuning_ghz) + center_offset_ghz)


def sample_noise_times(
    cfg: ConversionConfig, window_ps: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Poisson-distributed noise photon times (integer ps), sorted."""
    t0, t1 = window_ps
    if t1 <= t0:
        raise ConfigError("noise window must have t1 > t0")
    times = poisson_times(cfg.noise_rate_cps, window_ps, rng)
    times.sort()
    return times


@dataclass(frozen=True)
class BoundsMeasurement:
    """Raw numbers entering the internal-efficiency bound estimators."""

    p_in_before_lens_mw: float
    p_out_after_lens_mw: float
    lens_loss: float
    coupling: float
    depletion_on_mw: float
    depletion_off_mw: float
    lambda_in: Wavelength
    lambda_out: Wavelength


def internal_efficiency_bounds(m: BoundsMeasurement) -> EfficiencyBounds:
    """Bracket the internal conversion efficiency from two measurements.

    Lower bound: photon-number ratio with lens and coupling losses factored
    out (scattering neglected, hence a lower bound).  Upper bound: one minus
    the signal depletion with the pump on (output loss neglected).
    """
    if not m.depletion_off_mw > 0:
        raise MeasurementError("depletion_off must be positive")
    if not 0.0 <= m.lens_loss < 1.0:
        raise MeasurementError("lens_loss must be in [0, 1)")
    if not 0.0 < m.coupling <= 1.0:
        raise MeasurementError("coupling efficiency must be in (0, 1]")
    if m.p_in_before_lens_mw <= 0 or m.p_out_after_lens_mw < 0:
        raise MeasurementError("powers must be positive (input) and non-negative (output)")

    photon_ratio = (m.p_out_after_lens_mw * m.lambda_out.nm) / (m.p_in_before_lens_mw * m.lambda_in.nm)
    lower = photon_ratio / ((1.0 - m.lens_loss) ** 2 * m.coupling**2)
    upper = 1.0 - m.depletion_on_mw / m.depletion_off_mw
    if not 0.0 <= lower <= 1.0 or not 0.0 <= upper <= 1.0:
        raise MeasurementError(
            f"efficiency bounds outside [0, 1]: lower={lower:.4f}, upper={upper:.4f}"
        )
    return EfficiencyBounds(eta_int_lower=lower, eta_int_upper=upper)

