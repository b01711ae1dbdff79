"""Synthetic EIA-style hourly generation traces.

The paper's supply-side input is the EIA Hourly Grid Monitor: hourly
generation by fuel type for each balancing authority over 2020.  That data
cannot be fetched offline, so this module synthesizes statistically faithful
stand-ins (the substitution is documented in DESIGN.md):

* **Solar** follows a deterministic clear-sky elevation model (declination +
  hour angle for the BA's latitude) attenuated by a day-level AR(1) clearness
  index — sunny and cloudy spells persist for days, and output is exactly
  zero at night.  This preserves the paper's key solar facts: generation only
  during daylight, ~50% coverage ceiling without storage, tight daily-total
  histograms.
* **Wind** follows an hour-level AR(1) synoptic weather process mapped
  through a turbine power curve.  Long autocorrelation times and a cut-in
  threshold produce multi-day windy and calm regimes, including near-zero
  days for high ``calm_bias`` regions (the paper's Oregon valleys) and the
  heavy right tail behind "the best ten days offer ~2.5x the average".
* **System demand** has diurnal, weekly, and seasonal structure so that the
  dispatch stack and curtailment behave like a real grid.

All generators are pure functions of an explicit ``numpy.random.Generator``;
the same seed always yields the same year of weather.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import span
from ..timeseries import HOURS_PER_DAY, HourlySeries, YearCalendar
from .authorities import BalancingAuthority, SolarProfile, WindProfile
from ..timeseries.stats import is_exact_zero

#: Day-to-day autocorrelation of the solar clearness index.
_CLEARNESS_PERSISTENCE = 0.55

#: Turbine power-curve shape: normalized cut-in and rated "wind speeds".
#: Calibrated so a BPAT-like profile reproduces §3.2's fingerprints (best ten
#: days ~2.5x the average; several near-zero days) while steady plains
#: profiles (SWPP/MISO) stay shallow-valleyed.
_CUT_IN_BASE = 0.25
_RATED_SPEED = 1.50


def _solar_elevation_factor(profile: SolarProfile, calendar: YearCalendar) -> np.ndarray:
    """Clear-sky output fraction per hour from solar geometry.

    Uses the standard declination approximation and hour angle to compute
    ``max(sin(elevation), 0)`` at the BA's latitude for every hour of the
    year.  The result is the deterministic envelope that clouds attenuate.
    """
    hours = np.arange(calendar.n_hours)
    day = hours // HOURS_PER_DAY
    hour_of_day = hours % HOURS_PER_DAY
    lat = math.radians(profile.latitude_deg)
    declination = np.radians(-23.44) * np.cos(
        2.0 * np.pi * (day + 10) / calendar.n_days
    )
    # Solar hour angle: 15 degrees per hour from solar noon; evaluate at the
    # middle of each hour for a symmetric daily profile.
    hour_angle = np.radians(15.0 * (hour_of_day + 0.5 - 12.0))
    sin_elev = (
        math.sin(lat) * np.sin(declination)
        + math.cos(lat) * np.cos(declination) * np.cos(hour_angle)
    )
    return np.clip(sin_elev, 0.0, None)


def solar_generation(
    profile: SolarProfile,
    calendar: YearCalendar,
    rng: np.random.Generator,
) -> HourlySeries:
    """Hourly solar generation (MW) for one year.

    The clear-sky envelope is attenuated by a per-day clearness index that
    follows an AR(1) random walk (cloudy spells persist), plus small hourly
    jitter for passing clouds.  Output never exceeds nameplate capacity and
    is zero whenever the sun is down.
    """
    if is_exact_zero(profile.capacity_mw):
        return HourlySeries.zeros(calendar, name="solar")
    with span("synthesize_solar", capacity_mw=profile.capacity_mw, year=calendar.year):
        envelope = _solar_elevation_factor(profile, calendar)

        clearness = np.empty(calendar.n_days)
        innovation_scale = profile.clearness_volatility * math.sqrt(
            1.0 - _CLEARNESS_PERSISTENCE**2
        )
        # One array draw yields the same numbers as one scalar draw per day.
        innovations = rng.normal(0.0, innovation_scale, calendar.n_days).tolist()
        level = 0.0
        for day, innovation in enumerate(innovations):
            level = _CLEARNESS_PERSISTENCE * level + innovation
            clearness[day] = profile.mean_clearness + level
        clearness = np.clip(clearness, 0.05, 1.0)

        hourly_clearness = np.repeat(clearness, HOURS_PER_DAY)
        jitter = np.clip(rng.normal(1.0, 0.04, calendar.n_hours), 0.7, 1.15)
        output = profile.capacity_mw * envelope * hourly_clearness * jitter
        return HourlySeries(
            np.clip(output, 0.0, profile.capacity_mw), calendar, name="solar"
        )


def wind_generation(
    profile: WindProfile,
    calendar: YearCalendar,
    rng: np.random.Generator,
) -> HourlySeries:
    """Hourly wind generation (MW) for one year.

    A latent AR(1) synoptic process (autocorrelation time
    ``profile.synoptic_hours``) drives a lognormal normalized wind speed,
    which passes through a cubic turbine power curve with a cut-in threshold.
    ``calm_bias`` raises the cut-in point, producing whole days of near-zero
    output; the final series is rescaled so its mean capacity factor matches
    the profile, then capped at nameplate.
    """
    if is_exact_zero(profile.capacity_mw):
        return HourlySeries.zeros(calendar, name="wind")
    if profile.synoptic_hours <= 1.0:
        raise ValueError(f"synoptic_hours must exceed 1, got {profile.synoptic_hours}")

    with span("synthesize_wind", capacity_mw=profile.capacity_mw, year=calendar.year):
        return _wind_generation(profile, calendar, rng)


def _wind_generation(
    profile: WindProfile,
    calendar: YearCalendar,
    rng: np.random.Generator,
) -> HourlySeries:
    """The traced body of :func:`wind_generation` (inputs pre-validated)."""
    rho = math.exp(-1.0 / profile.synoptic_hours)
    innovations = rng.normal(0.0, math.sqrt(1.0 - rho**2), calendar.n_hours)
    level = rng.normal(0.0, 1.0)
    # The AR(1) recurrence on plain floats (numpy scalars are slower and
    # round identically).
    walk = []
    for innovation in innovations.tolist():
        level = rho * level + innovation
        walk.append(level)
    latent = np.array(walk)

    day = np.arange(calendar.n_hours) // HOURS_PER_DAY
    # Seasonal modulation peaks mid-winter (day 0) for positive winter_boost.
    season = 1.0 + profile.winter_boost * np.cos(2.0 * np.pi * day / calendar.n_days)

    sigma = profile.volatility
    speed = np.exp(sigma * latent - 0.5 * sigma**2) * season

    cut_in = _CUT_IN_BASE + profile.calm_bias
    ramp = np.clip((speed - cut_in) / (_RATED_SPEED - cut_in), 0.0, 1.0)
    capacity_factor = ramp**2

    if capacity_factor.mean() <= 0.0:
        raise ValueError(
            "wind profile produced zero output everywhere; check calm_bias/volatility"
        )
    # Rescale toward the target mean capacity factor.  Clipping at nameplate
    # pulls the mean back down, so iterate the (rescale, clip) step; a few
    # rounds converge to within a fraction of a percent.
    for _ in range(6):
        capacity_factor = np.clip(
            capacity_factor * (profile.mean_capacity_factor / capacity_factor.mean()),
            0.0,
            1.0,
        )
    return HourlySeries(profile.capacity_mw * capacity_factor, calendar, name="wind")


def system_demand(
    authority: BalancingAuthority,
    calendar: YearCalendar,
    rng: np.random.Generator,
) -> HourlySeries:
    """Hourly system-wide electricity demand (MW) for a balancing authority.

    Combines a dual-peak diurnal shape (morning and evening), a weekend dip,
    a seasonal swing (summer cooling + winter heating), and small noise
    around ``authority.avg_demand_mw``.
    """
    with span("synthesize_demand", authority=authority.code, year=calendar.year):
        hours = np.arange(calendar.n_hours)
        hour_of_day = hours % HOURS_PER_DAY
        day = hours // HOURS_PER_DAY

        diurnal = 0.06 * np.sin(2.0 * np.pi * (hour_of_day - 9) / 24.0) + 0.04 * np.sin(
            4.0 * np.pi * (hour_of_day - 18) / 24.0
        )
        jan1_weekday = calendar.weekday(0)
        weekday = (jan1_weekday + day) % 7
        weekend = np.where(weekday >= 5, -0.05, 0.0)
        season = 0.08 * np.cos(4.0 * np.pi * (day - 15) / calendar.n_days)
        noise = rng.normal(0.0, 0.01, calendar.n_hours)

        demand = authority.avg_demand_mw * (1.0 + diurnal + weekend + season + noise)
        return HourlySeries(np.clip(demand, 0.0, None), calendar, name="demand")


def hydro_generation(
    authority: BalancingAuthority,
    calendar: YearCalendar,
) -> HourlySeries:
    """Hourly hydro output (MW): seasonal, peaking with spring runoff."""
    fraction = authority.dispatch.hydro_fraction
    if is_exact_zero(fraction):
        return HourlySeries.zeros(calendar, name="water")
    day = np.arange(calendar.n_hours) // HOURS_PER_DAY
    # Spring-runoff peak around day 135 (mid-May).
    season = 1.0 + 0.35 * np.cos(2.0 * np.pi * (day - 135) / calendar.n_days)
    output = authority.avg_demand_mw * fraction * season
    return HourlySeries(np.clip(output, 0.0, None), calendar, name="water")


def seed_for(authority_code: str, year: int, base_seed: int = 0) -> int:
    """Deterministic per-(BA, year) seed so regions get independent weather.

    A stable hash keeps traces reproducible across processes (Python's
    built-in ``hash`` is randomized per process and must not be used here).
    """
    digest = 1469598103934665603  # FNV-1a 64-bit offset basis
    for char in f"{authority_code}:{year}:{base_seed}":
        digest ^= ord(char)
        digest = (digest * 1099511628211) % (1 << 64)
    return digest % (1 << 32)
