"""Estimators turning histograms into the reported quantities.

Peak-area integration, central-to-reference purity ratio, reconvolution
lifetime fitting, and raw/corrected interference visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoincidenceHistogram, ConfigError
from .conversion import FitError
from .enumeration import VisibilityModel, visibility_model


class AnalysisError(RuntimeError):
    """A histogram cannot support the requested estimate."""


@dataclass(frozen=True)
class PeakIntegration:
    """Counts summed in windows around integer multiples of the pulse period."""

    peak_centers_ps: np.ndarray
    half_window_ps: int
    areas: np.ndarray

    def area_at(self, delay_ps: float, rep_period_ps: float) -> tuple[int, int]:
        """(area, actual center) of the peak nearest the requested delay."""
        idx = int(np.argmin(np.abs(self.peak_centers_ps - delay_ps)))
        center = int(self.peak_centers_ps[idx])
        if abs(center - delay_ps) > rep_period_ps / 2:
            raise AnalysisError(f"no integrated peak near delay {delay_ps} ps")
        return int(self.areas[idx]), center


def integrate_peaks(
    h: CoincidenceHistogram, rep_period_ps: float, half_window_ps: int
) -> PeakIntegration:
    """Sum counts in non-overlapping windows centered on the pulse-period grid."""
    if not rep_period_ps > 2 * half_window_ps:
        raise ConfigError("peak windows would overlap: need rep_period > 2 * half_window")
    centers = h.bin_centers()
    k_min = math.ceil((centers[0] + half_window_ps) / rep_period_ps)
    k_max = math.floor((centers[-1] - half_window_ps) / rep_period_ps)
    peak_centers = np.rint(np.arange(k_min, k_max + 1) * rep_period_ps).astype(np.int64)
    areas = np.empty(peak_centers.size, dtype=np.int64)
    for i, c in enumerate(peak_centers):
        mask = np.abs(centers - c) <= half_window_ps + 1e-9
        areas[i] = int(h.counts[mask].sum())
    return PeakIntegration(peak_centers_ps=peak_centers, half_window_ps=half_window_ps, areas=areas)


@dataclass(frozen=True)
class G2Result:
    value: float
    sigma: float
    central_area: int
    reference_area: int
    reference_delay_ps: int


def estimate_g2(peaks: PeakIntegration, reference_delay_ps: float, rep_period_ps: float) -> G2Result:
    """Central-peak to reference-peak area ratio with Poisson uncertainty."""
    central, _ = peaks.area_at(0.0, rep_period_ps)
    reference, ref_center = peaks.area_at(reference_delay_ps, rep_period_ps)
    if ref_center == 0:
        raise AnalysisError("reference peak must differ from the central peak")
    if reference == 0:
        raise AnalysisError("reference peak area is zero")
    if central == 0:
        return G2Result(0.0, 1.0 / reference, central, reference, ref_center)
    value = central / reference
    sigma = value * math.sqrt(1.0 / central + 1.0 / reference)
    return G2Result(value, sigma, central, reference, ref_center)


@dataclass(frozen=True)
class LifetimeFit:
    tau_ps: float
    amplitude: float
    irf_sigma_used_ps: float
    residual_rms: float
    tau_err_ps: float
    t0_ps: float
    baseline: float

    def __post_init__(self):
        if not self.tau_ps > 0:
            raise FitError(f"fitted lifetime must be positive, got {self.tau_ps}")


def _circular_interp(grid_ps: np.ndarray, values: np.ndarray, at_ps: np.ndarray, period: float) -> np.ndarray:
    rel = np.mod(at_ps - grid_ps[0], period) + grid_ps[0]
    xp = np.concatenate([grid_ps, [grid_ps[0] + period]])
    fp = np.concatenate([values, [values[0]]])
    return np.interp(rel, xp, fp)


def _decay_curve(irf_spectrum: np.ndarray, tau: float, bin_width: float, n: int) -> np.ndarray:
    """Circular convolution of the IRF (given as its ``rfft``) with a wrapped normalized exponential."""
    t = np.arange(n) * bin_width
    kernel = np.exp(-t / tau)
    kernel /= kernel.sum()  # wrapped exponential: circular normalization
    return np.fft.irfft(irf_spectrum * np.fft.rfft(kernel), n)


def _eval_lifetime_model(
    irf_spectrum: np.ndarray,
    grid: np.ndarray,
    period: float,
    bin_width: float,
    params: np.ndarray,
) -> np.ndarray:
    amplitude, tau, t0, baseline = params
    curve = _decay_curve(irf_spectrum, tau, bin_width, grid.size)
    return amplitude * _circular_interp(grid, curve, grid - t0, period) + baseline


def lifetime_model_counts(fit: "LifetimeFit", irf: CoincidenceHistogram) -> np.ndarray:
    """Evaluate a completed fit on the IRF histogram's grid (for plotting)."""
    irf_norm = irf.counts.astype(float) / irf.total()
    bw = float(irf.bin_width_ps)
    return _eval_lifetime_model(
        np.fft.rfft(irf_norm),
        irf.bin_centers(),
        bw * irf.n_bins,
        bw,
        np.array([fit.amplitude, fit.tau_ps, fit.t0_ps, fit.baseline]),
    )


def fit_lifetime(h: CoincidenceHistogram, irf: CoincidenceHistogram) -> LifetimeFit:
    """Fit amplitude * (exponential decay convolved with the measured IRF) + baseline.

    The convolution is circular on the histogram grid, which is the correct
    model for decays folded modulo the pulse period.  A continuous time
    offset between decay and IRF is fitted alongside, so the result is
    invariant to the IRF time origin.

    The fit minimises the Poisson deviance 2 sum[m - n + n ln(n/m)] of the
    model m against the counts n (Laurence & Chromy, Nature Methods 7, 338
    (2010)) by damped Fisher scoring; unlike chi-square weights taken from
    the counts, this stays unbiased in sparse tail bins.  A baseline that
    runs into its bound at 0 is held there while the other three parameters
    converge (an active set).  ``tau_err_ps`` comes from the Fisher
    information J^T diag(1/m) J of the free parameters at the optimum.
    """
    if h.bin_width_ps != irf.bin_width_ps or h.n_bins != irf.n_bins or h.offset_ps != irf.offset_ps:
        raise ConfigError("decay and IRF histograms must share binning")
    if irf.total() == 0 or h.total() == 0:
        raise AnalysisError("empty histogram")

    counts = h.counts.astype(float)
    irf_norm = irf.counts.astype(float) / irf.total()
    bw = float(h.bin_width_ps)
    period = bw * h.n_bins
    grid = h.bin_centers()
    seen = counts > 0
    n_seen = counts[seen]
    deviance_offset = float(n_seen @ np.log(n_seen) - counts.sum())
    floor = 1e-9 * float(counts.max())

    # at least one count of baseline keeps the starting model positive on empty bins
    baseline0 = max(float(np.percentile(counts, 10)), 1.0)
    area0 = max(float((counts - baseline0).sum()), 1.0)

    irf_spectrum = np.fft.rfft(irf_norm)

    def model(params: np.ndarray) -> np.ndarray:
        return _eval_lifetime_model(irf_spectrum, grid, period, bw, params)

    def deviance(m: np.ndarray, fixed: bool = False) -> float:
        # at zero baseline only the bins with counts need a positive model
        if not np.all((m[seen] if fixed else m) > 0):
            return math.inf
        return 2.0 * (float(m.sum()) - float(n_seen @ np.log(m[seen])) + deviance_offset)

    def weighted(m: np.ndarray, fixed: bool) -> np.ndarray:
        """The model the Fisher weights divide by.

        At zero baseline an empty bin far from the decay holds a model that
        rounds to zero or below; it carries no information, so it is floored.
        """
        return np.where(seen, m, np.maximum(m, floor)) if fixed else m

    def jacobian(params: np.ndarray, base: np.ndarray) -> np.ndarray:
        amplitude, tau, t0, baseline = params
        jac = np.empty((counts.size, 4))
        jac[:, 0] = (base - baseline) / amplitude  # analytic in the amplitude
        jac[:, 3] = 1.0  # analytic in the baseline
        for column, step in ((1, max(1e-6 * tau, 1e-6)), (2, max(1e-3 * bw, 1e-6))):
            bumped = params.copy()
            bumped[column] += step
            dipped = params.copy()
            dipped[column] -= step
            jac[:, column] = (model(bumped) - model(dipped)) / (2 * step)
        return jac

    def scoring(state, fixed=False, stop_at_bound=False):
        """Fisher scoring (Gauss-Newton with weights 1/m) with Levenberg damping.

        ``state`` is (params, model, deviance, damping, iterations left).  A
        step is taken only if the model stays positive and the deviance does
        not rise.  It ends when a step lowers the deviance by less than 1e-6
        (moving one parameter by one standard error changes it by 1), or when
        no step, however damped, lowers it.  With ``fixed`` the baseline stays
        at 0.  With ``stop_at_bound`` it returns the state at the start of the
        first iteration whose step is cut short by the baseline's bound, and
        True.
        """
        params, m, dev, damping, left = state
        free = slice(0, 3 if fixed else 4)
        while left:
            start = (params, m, dev, damping, left)
            left -= 1
            jac = jacobian(params, m)[:, free]
            m_w = weighted(m, fixed)
            fisher = jac.T @ (jac / m_w[:, None])
            score = jac.T @ (1.0 - counts / m_w)
            scale = np.diag(np.diag(fisher))
            while damping < 1e12:
                try:
                    step = np.linalg.solve(fisher + damping * scale, -score)
                except np.linalg.LinAlgError as exc:
                    raise FitError(f"lifetime fit is degenerate: {exc}") from exc
                # go at most 90 % of the way to m = 0 on the linearized model
                dm = jac @ step
                falling = (dm < 0) & seen if fixed else dm < 0
                if falling.any():
                    reach = 0.9 * float(np.min(m[falling] / -dm[falling]))
                    if stop_at_bound and reach < 1.0 and params[3] + step[3] < 0:
                        return start, True
                    step *= min(1.0, reach)
                trial = params.copy()
                trial[free] += step
                m_trial = model(trial)
                dev_trial = deviance(m_trial, fixed)
                if dev_trial <= dev:
                    break
                damping = max(10.0 * damping, 1e-3)
            else:
                return (params, m, dev, damping, left), False
            params, m, dev, drop = trial, m_trial, dev_trial, dev - dev_trial
            damping *= 0.1
            if drop < 1e-6:
                return (params, m, dev, damping, left), False
        raise FitError("lifetime fit did not converge in 200 iterations")

    # coarse lifetime scan for a solid starting point (amplitude is linear)
    starts = [np.array([area0, tau0, 0.0, baseline0]) for tau0 in np.geomspace(bw, period / 4.0, 12)]
    params = min(starts, key=lambda p: deviance(model(p)))
    m = model(params)
    state, at_bound = scoring((params, m, deviance(m), 0.0, 200), stop_at_bound=True)
    fixed = False
    if at_bound:
        # A step toward a negative baseline was cut short, and 90 % steps
        # would only shrink the baseline geometrically.  Fix it at 0 (an
        # active set) and keep that optimum if the deviance does not fall as
        # the baseline rises from it; else go on from where the step was cut.
        params = state[0].copy()
        params[3] = 0.0
        m = model(params)
        try:
            bound, _ = scoring((params, m, deviance(m, fixed=True), 0.0, 200), fixed=True)
            fixed = counts.size >= float(n_seen @ (1.0 / bound[1][seen]))  # d deviance / d baseline >= 0
        except FitError:
            pass
        state = bound if fixed else scoring(state)[0]
    params, m = state[0], state[1]
    amplitude, tau, t0, baseline = params
    if tau <= 0 or amplitude <= 0:
        raise FitError(f"lifetime fit ended in an unphysical state: tau={tau}, amplitude={amplitude}")

    # covariance from the Fisher information of the free parameters, whitened by sqrt(m)
    jac = jacobian(params, m)[:, : 3 if fixed else 4]
    _, s, vt = np.linalg.svd(jac / np.sqrt(weighted(m, fixed))[:, None], full_matrices=False)
    s = np.where(s > s[0] * 1e-12, s, np.inf)
    cov = (vt.T / s**2) @ vt
    tau_err = float(np.sqrt(cov[1, 1]))

    irf_mean = float((irf_norm * grid).sum())
    irf_sigma = float(np.sqrt((irf_norm * (grid - irf_mean) ** 2).sum()))
    return LifetimeFit(
        tau_ps=float(tau),
        amplitude=float(amplitude),
        irf_sigma_used_ps=irf_sigma,
        residual_rms=float(np.sqrt(np.mean((m - counts) ** 2))),
        tau_err_ps=tau_err,
        t0_ps=float(t0),
        baseline=float(baseline),
    )


@dataclass(frozen=True)
class VisibilityCalib:
    """Optics calibration entering the corrected-visibility inversion."""

    r2: float = 0.5
    t2: float = 0.5
    epsilon: float = 0.0
    g2: float = 0.0
    r1: float = 0.5
    t1: float = 0.5

    def model(self) -> VisibilityModel:
        return visibility_model(self.r2, self.t2, self.r1, self.t1)


@dataclass(frozen=True)
class VisibilityResult:
    a_par: float
    a_perp: float
    v_raw: float
    v_corr: float
    calib: VisibilityCalib
    v_raw_err: float
    v_corr_err: float
    flagged: bool
    central_par: int
    central_perp: int
    norm_par: int
    norm_perp: int


def estimate_visibility(
    peaks_co: PeakIntegration,
    peaks_cross: PeakIntegration,
    norm_delay_ps: float,
    calib: VisibilityCalib,
    rep_period_ps: float,
) -> VisibilityResult:
    """Raw and corrected visibility from the peak areas of the two polarization traces.

    Each trace's central area is normalized by its own side peak at the
    normalization delay; the corrected value inverts the enumerated
    coincidence model using the supplied splitting ratios, interferometer
    visibility, and independently measured central-peak ratio.
    """
    c_par, _ = peaks_co.area_at(0.0, rep_period_ps)
    c_perp, _ = peaks_cross.area_at(0.0, rep_period_ps)
    n_par, _ = peaks_co.area_at(norm_delay_ps, rep_period_ps)
    n_perp, _ = peaks_cross.area_at(norm_delay_ps, rep_period_ps)
    if n_par == 0 or n_perp == 0:
        raise AnalysisError("normalization peak area is zero")

    a_par = c_par / n_par
    a_perp = c_perp / n_perp
    if a_perp == 0:
        raise AnalysisError("cross-polarized central area is zero")

    v_raw = (a_perp - a_par) / a_perp

    def rel(n: int) -> float:
        return 1.0 / n if n > 0 else 0.0

    sa_par = a_par * math.sqrt(rel(c_par) + rel(n_par))
    sa_perp = a_perp * math.sqrt(rel(c_perp) + rel(n_perp))
    if a_par > 0:
        v_raw_err = (a_par / a_perp) * math.sqrt(
            rel(c_par) + rel(n_par) + rel(c_perp) + rel(n_perp)
        )
    else:
        v_raw_err = (1.0 / n_par) / a_perp  # one-count bound on an empty central peak

    model = calib.model()
    kappa_eff = model.kappa * (1.0 - calib.epsilon) ** 2
    denom = (a_perp - model.d_multi * calib.g2) * kappa_eff
    if denom <= 0:
        raise AnalysisError("visibility correction denominator is not positive")
    v_corr = (a_perp - a_par) / denom
    dv_dperp = (a_par - model.d_multi * calib.g2) * kappa_eff / denom**2
    dv_dpar = -1.0 / denom
    v_corr_err = math.sqrt((dv_dperp * sa_perp) ** 2 + (dv_dpar * sa_par) ** 2)

    flagged = not 0.0 <= v_corr <= 1.05
    return VisibilityResult(
        a_par=a_par,
        a_perp=a_perp,
        v_raw=v_raw,
        v_corr=v_corr,
        calib=calib,
        v_raw_err=v_raw_err,
        v_corr_err=v_corr_err,
        flagged=flagged,
        central_par=c_par,
        central_perp=c_perp,
        norm_par=n_par,
        norm_perp=n_perp,
    )
