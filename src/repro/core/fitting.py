"""Extraction of the paper's first-order model parameters from data.

The paper fits its closed forms to measured RO data ("beta, A and C are
fitting parameters and can be extracted from measurement results", Sec.
3.2; Table 3 lists the extracted values).  This module reproduces that
step against the virtual silicon:

* :func:`fit_stress_parameters` — (beta, A, C) of Eq. (10) from a stress
  series;
* :func:`fit_recovery_parameters` — (phi2, A, C, k1, k2) of Eq. (11) from
  a recovery series;
* :func:`fit_physics_scaling` — (K, E0, B) of Eqs. (2)/(4) from
  per-condition prefactors, giving the cross-condition temperature and
  voltage scaling.

scipy is imported inside the two least-squares fits, not at module top:
``import repro.core`` (and so every sweep cell's lifetime projection)
would otherwise load about 300 scipy modules it never uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

from repro.bti.firstorder import PhysicsScaling, RecoveryParameters, StressParameters
from repro.errors import FittingError
from repro.guard import safe_exp
from repro.units import BOLTZMANN_EV

T = TypeVar("T")


@dataclass(frozen=True)
class FitReport(Generic[T]):
    """A fitted parameter object plus goodness-of-fit numbers.

    ``nrmse`` is the RMSE normalised by the data range — the scale-free
    number the validation thresholds use.
    """

    parameters: T
    rmse: float
    nrmse: float
    r_squared: float
    n_points: int


def _goodness(measured: np.ndarray, predicted: np.ndarray) -> tuple[float, float, float]:
    residual = measured - predicted
    rmse = float(np.sqrt(np.mean(residual**2)))
    value_range = float(measured.max() - measured.min())
    nrmse = rmse / value_range if value_range > 0.0 else float("inf")
    ss_res = float(np.sum(residual**2))
    ss_tot = float(np.sum((measured - measured.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else float("nan")
    return rmse, nrmse, r_squared


def _check_series(times, values, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise FittingError("times and values must be 1-D arrays of equal length")
    if times.size < minimum:
        raise FittingError(f"need at least {minimum} samples, got {times.size}")
    return times, values


def fit_stress_parameters(times, shifts) -> FitReport[StressParameters]:
    """Fit ``shift = beta * (A + log(1 + C*t))`` to a stress series.

    ``times`` in seconds from the start of stress, ``shifts`` the measured
    delay (or threshold) change.  Returns the fitted
    :class:`StressParameters` with goodness-of-fit.
    """
    from scipy import optimize

    times, shifts = _check_series(times, shifts, minimum=4)
    if np.all(shifts <= 0.0):
        raise FittingError("stress series shows no degradation to fit")

    scale = float(np.max(np.abs(shifts)))

    def model(theta: np.ndarray, t: np.ndarray) -> np.ndarray:
        beta, offset_a, log_c = theta
        return beta * scale * (offset_a + np.log1p(np.exp(log_c) * t))

    def residuals(theta: np.ndarray) -> np.ndarray:
        # Normalised by the data scale: raw nanosecond-magnitude residuals
        # sit below least_squares' default tolerances and stall it.
        return (model(theta, times) - shifts) / scale

    # Start C so the knee sits mid-series, A small, beta matching the end.
    t_mid = max(float(np.median(times[times > 0])), 1.0)
    theta0 = np.array([0.3, 0.1, -np.log(t_mid)])
    result = optimize.least_squares(
        residuals,
        theta0,
        bounds=([1e-9, 0.0, -60.0], [np.inf, 10.0, 10.0]),
        max_nfev=5000,
    )
    if not result.success:
        raise FittingError(f"stress fit did not converge: {result.message}")
    beta, offset_a, log_c = result.x
    params = StressParameters(
        prefactor=float(beta * scale), offset_a=float(offset_a), rate_c=float(np.exp(log_c))
    )
    rmse, nrmse, r2 = _goodness(shifts, np.asarray(params.shift(times)))
    return FitReport(params, rmse, nrmse, r2, times.size)


def fit_recovery_parameters(
    stress_time: float,
    shift_at_stress_end: float,
    times,
    shifts,
    rate_c: float | None = None,
) -> FitReport[RecoveryParameters]:
    """Fit the paper's Eq. (11) recovery form to a recovery series.

    ``times`` are seconds since stress removal; ``shifts`` the remaining
    delay change (starting near ``shift_at_stress_end`` and falling).
    When ``rate_c`` is given (e.g. from the matching stress fit) it is
    held fixed, as the paper shares C between the phases.
    """
    from scipy import optimize

    times, shifts = _check_series(times, shifts, minimum=4)
    if stress_time <= 0.0 or shift_at_stress_end <= 0.0:
        raise FittingError("recovery fitting needs a positive stress time and peak shift")

    scale = shift_at_stress_end
    fit_c = rate_c is None

    def build(theta: np.ndarray) -> RecoveryParameters:
        phi2, offset_a, log_c, k1, k2 = theta
        return RecoveryParameters(
            prefactor=float(phi2 * scale),
            offset_a=float(offset_a),
            rate_c=float(np.exp(log_c)) if fit_c else float(rate_c),
            k1=float(k1),
            k2=float(k2),
        )

    def residuals(theta: np.ndarray) -> np.ndarray:
        params = build(theta)
        predicted = params.residual(shift_at_stress_end, stress_time, times)
        # Scale-normalised for the same tolerance reason as the stress fit.
        return (np.asarray(predicted) - shifts) / scale

    theta0 = np.array([0.01, 0.1, -np.log(max(float(np.median(times[times > 0])), 1.0)), 0.5, 1.5])
    lower = [0.0, 0.0, -60.0, 0.0, 1e-6]
    upper = [np.inf, 10.0, 10.0, 1e3, 1e3]
    result = optimize.least_squares(residuals, theta0, bounds=(lower, upper), max_nfev=8000)
    if not result.success:
        raise FittingError(f"recovery fit did not converge: {result.message}")
    params = build(result.x)
    predicted = np.asarray(params.residual(shift_at_stress_end, stress_time, times))
    rmse, nrmse, r2 = _goodness(shifts, predicted)
    return FitReport(params, rmse, nrmse, r2, times.size)


@dataclass(frozen=True)
class ArrheniusRate:
    """Thermally activated rate law ``C(T) = C_ref * exp(-Ea/k (1/T - 1/Tref))``.

    For log-like (TD) aging, temperature shifts the degradation curve
    along log-time — it accelerates the rate constant C of Eq. (10), not
    the per-decade slope beta.  This is the law accelerated-test
    extrapolation rests on.
    """

    c_ref: float
    ea_ev: float
    reference_temperature: float

    def rate(self, temperature: float) -> float:
        """C at a temperature (kelvin)."""
        if temperature <= 0.0:
            raise FittingError("temperature must be positive kelvin")
        exponent = (-self.ea_ev / BOLTZMANN_EV) * (
            1.0 / temperature - 1.0 / self.reference_temperature
        )
        # Clamped: extrapolating a fitted law to an extreme temperature
        # must saturate rather than overflow to inf (see repro.guard).
        return float(self.c_ref * safe_exp(exponent))


def fit_arrhenius_rate(temperatures, rates) -> FitReport[ArrheniusRate]:
    """Extract an activation energy from per-temperature rate constants.

    Linear regression of ``ln C`` on ``1/kT``; needs at least three
    temperatures.  The reference temperature is the hottest one (where
    accelerated data is densest).
    """
    temperatures = np.asarray(temperatures, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if temperatures.shape != rates.shape or temperatures.ndim != 1:
        raise FittingError("temperatures and rates must be matching 1-D arrays")
    if temperatures.size < 3:
        raise FittingError("need at least three temperatures")
    if np.any(rates <= 0.0) or np.any(temperatures <= 0.0):
        raise FittingError("rates and temperatures must be positive")
    inv_kt = 1.0 / (BOLTZMANN_EV * temperatures)
    design = np.column_stack([np.ones_like(inv_kt), -inv_kt])
    coeffs, *_ = np.linalg.lstsq(design, np.log(rates), rcond=None)
    intercept, ea = coeffs
    t_ref = float(temperatures.max())
    params = ArrheniusRate(
        c_ref=float(np.exp(intercept - ea / (BOLTZMANN_EV * t_ref))),
        ea_ev=float(ea),
        reference_temperature=t_ref,
    )
    predicted = np.array([params.rate(t) for t in temperatures])
    rmse, nrmse, r2 = _goodness(np.log(rates), np.log(predicted))
    return FitReport(params, rmse, nrmse, r2, temperatures.size)


def fit_physics_scaling(
    voltages, temperatures, prefactors
) -> FitReport[PhysicsScaling]:
    """Fit ``phi = K * exp(-E0/kT) * exp(b*V/kT)`` across conditions.

    Linear regression of ``ln(phi)`` on ``[-1/kT, V/kT]`` (paper Eqs. 2,
    4, 13).  Needs at least three distinct (V, T) conditions.
    """
    voltages = np.asarray(voltages, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    prefactors = np.asarray(prefactors, dtype=float)
    if not voltages.shape == temperatures.shape == prefactors.shape:
        raise FittingError("voltages, temperatures and prefactors must align")
    if voltages.size < 3:
        raise FittingError("need at least three conditions to fit the scaling")
    if np.any(prefactors <= 0.0):
        raise FittingError("prefactors must be positive to fit in log space")

    inv_kt = 1.0 / (BOLTZMANN_EV * temperatures)
    design = np.column_stack([np.ones_like(inv_kt), -inv_kt, voltages * inv_kt])
    target = np.log(prefactors)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    ln_k, e0, b_field = coeffs
    params = PhysicsScaling(
        k_prefactor=float(np.exp(ln_k)), e0_ev=float(e0), b_field_ev_per_volt=float(b_field)
    )
    predicted = np.array(
        [params.prefactor(v, t) for v, t in zip(voltages, temperatures)]
    )
    rmse, nrmse, r2 = _goodness(prefactors, predicted)
    return FitReport(params, rmse, nrmse, r2, voltages.size)
