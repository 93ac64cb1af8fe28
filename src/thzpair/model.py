"""Lab-frame physical parameters and the rotating-frame effective model.

All frequencies and rates are angular frequencies in 1/s.  The only unit
conversion in the package is the optional drive specification through a field
amplitude (V/m) acting on a transition dipole (Debye).

A driven two-level emitter with unequal permanent dipole moments in ground
and excited state radiates on three channels: near the (shifted) transition
frequency, at the laser frequency, and at the low difference frequency
omega_L - omega_0 - omega_rabi^2/(4 omega_L) where a photon pair (one low
frequency, one optical) is created.  :func:`from_physical` reduces the lab
parameters to the coefficients of that rotating-frame picture.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

__all__ = [
    "DEBYE",
    "HBAR",
    "ConfigError",
    "PairChannelClosedWarning",
    "PerturbativeDriveWarning",
    "PhysicalParams",
    "SweepSpec",
    "EffectiveModel",
    "rate_at",
    "from_physical",
    "preset",
    "preset_names",
    "rabi_from_field",
    "parse_config",
    "params_from_mapping",
    "with_rabi",
]

DEBYE = 3.33564e-30  # C*m per Debye
HBAR = 1.054572e-34  # J*s
MAX_POINTS = 10**6  # sweep points or delays a run takes: a sweep ~7 min, 0.5 GB of rows


class ConfigError(ValueError):
    """Invalid configuration input (file syntax, unknown key, bad value)."""


def _finite_real(v) -> bool:
    try:  # float first: numbers.Real alone would cost a sweep point about 3 us
        return type(v) is not bool and isinstance(v, (float, numbers.Real)) and math.isfinite(v)
    except OverflowError:  # an int past float range
        return False


class PairChannelClosedWarning(UserWarning):
    """The pair-emission frequency is not positive; that channel is dark."""


class PerturbativeDriveWarning(UserWarning):
    """Drive strength is large enough to strain the second-order treatment."""


@dataclass(frozen=True)
class PhysicalParams:
    """Lab-frame inputs.

    Attributes
    ----------
    omega0 : float
        Transition angular frequency (1/s).
    omegaL : float
        Laser angular frequency (1/s).
    rabi : float
        Rabi frequency Omega = p12*E0/hbar (1/s), stored as a magnitude.
    dipole_ratio : float
        |p11 - p22| / |p12|, the permanent-dipole asymmetry relative to the
        transition dipole (dimensionless).
    gamma0 : float
        Spontaneous decay rate at the reference frequency omega0 (1/s).

    Each field holds a Python float (-0.0 as 0.0) of any finite real but a
    bool, numpy scalars included: an np.float32 would keep from_physical in
    float32.  A nan, an inf or an int past float range is a ConfigError.
    """

    omega0: float
    omegaL: float
    rabi: float = 0.0
    dipole_ratio: float = 0.0
    gamma0: float = 3e6

    def __post_init__(self):
        for name, v in vars(self).items():  # the fields, in order
            if not _finite_real(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v) + 0.0)  # -0.0 + 0.0 is 0.0
        if self.omega0 <= 0:
            raise ConfigError("omega0 must be > 0")
        if self.omegaL <= 0:
            raise ConfigError("omegaL must be > 0")
        if self.gamma0 <= 0:
            raise ConfigError("gamma0 must be > 0")
        if self.dipole_ratio < 0:
            raise ConfigError("dipole_ratio must be >= 0")
        if self.rabi < 0:
            raise ConfigError("rabi must be >= 0 (magnitude convention)")
        # The second-order averaged model needs Omega, G << omega_L.
        for label, v in (("rabi", self.rabi), ("G", self.g_asym)):
            if v / self.omegaL >= 1.0:
                raise ConfigError(
                    f"{label}/omegaL = {v / self.omegaL:.3g} >= 1: "
                    "second-order treatment of the drive is invalid"
                )

    @property
    def g_asym(self) -> float:
        """Asymmetry drive G = dipole_ratio * rabi (1/s)."""
        return self.dipole_ratio * self.rabi


@dataclass(frozen=True)
class SweepSpec:
    """Rabi-frequency grid over a fixed set of base parameters; points is an
    int from 2 to MAX_POINTS, and a bool is refused."""

    base: PhysicalParams
    omega_min: float = 1e11
    omega_max: float = 1e13
    points: int = 200
    spacing: str = "log"

    def __post_init__(self):
        ## bounds are Rabi frequencies, magnitudes like PhysicalParams.rabi;
        ## grid points past the drive's validity domain become failed rows
        for name in ("omega_min", "omega_max"):
            v = getattr(self, name)
            if not (_finite_real(v) and v >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.spacing not in ("log", "linear"):
            raise ConfigError(f"spacing must be log or linear, got {self.spacing!r}")
        if type(self.points) is bool or not isinstance(self.points, numbers.Integral):
            raise ConfigError(f"points must be an integer, got {self.points!r}")
        object.__setattr__(self, "points", int(self.points))
        if not 2 <= self.points <= MAX_POINTS:
            raise ConfigError(f"points must be >= 2 and <= {MAX_POINTS}")
        if self.omega_max <= self.omega_min:
            raise ConfigError("omega_max must exceed omega_min")
        if self.spacing == "log" and self.omega_min <= 0:
            raise ConfigError("log spacing needs omega_min > 0")

    def grid(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        return space(self.omega_min, self.omega_max, self.points)


def rabi_from_field(e0_field: float, p12_debye: float) -> float:
    """Rabi frequency (1/s) from field amplitude (V/m) and dipole (Debye)."""
    return abs(p12_debye) * DEBYE * abs(e0_field) / HBAR


@dataclass(frozen=True)
class EffectiveModel:
    """Rotating-frame coefficients consumed by the dynamics module.

    All entries are angular frequencies/rates in 1/s except the
    dimensionless channel prefactors c_cross, c_pump, c_deph.

    bs_shift = rabi^2/(4 omegaL) is the second-order light shift of the
    excited level from the counter-rotating drive; delta_eff is the shifted
    detuning seen by the emitter.  The lab inputs stay on PhysicalParams.
    """

    omega_rabi: float
    bs_shift: float
    delta_eff: float
    gamma_R: float
    gamma_L: float
    gamma_T: float
    c_cross: float
    c_pump: float
    c_deph: float

    @property
    def pair_freq(self) -> float:
        """Emission frequency of the low-frequency partner photon,
        omegaL - omega0 - bs_shift = -delta_eff (+0.0, not -0.0, at zero);
        a read, so dataclasses.replace(model, delta_eff=...) moves it too."""
        return 0.0 - self.delta_eff


def rate_at(omega: float, params: PhysicalParams) -> float:
    """Free-space emission rate gamma0*(omega/omega0)^3; zero for omega <= 0.

    A non-positive frequency means the channel is closed, not a fault.
    """
    if not math.isfinite(omega):
        raise ConfigError(f"emission frequency must be finite, got {omega!r}")
    if omega <= 0.0:
        return 0.0
    ## in Python floats: their cube past float range raises, where numpy's warns
    try:
        rate = params.gamma0 * (float(omega) / params.omega0) ** 3
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ConfigError(f"emission rate at omega = {omega:.6g} 1/s overflows double precision")
    return rate


def from_physical(params: PhysicalParams) -> EffectiveModel:
    """Reduce lab parameters to the rotating-frame effective model.

    Warns, at the caller's line, where the drive strains the second-order
    treatment (rabi or G above omegaL/4) and where the pair channel closes.
    The messages are constant, so the default filter shows each once per
    call site, not once per sweep point.
    """
    for label, v in (("rabi", params.rabi), ("G", params.g_asym)):
        if v / params.omegaL > 0.25:
            msg = f"{label}/omegaL > 0.25; second-order drive corrections may be inaccurate"
            warnings.warn(msg, PerturbativeDriveWarning, stacklevel=2)
    omega = params.rabi
    bs_shift = omega * (omega / (4.0 * params.omegaL))  # omega^2 alone overflows past ~1e154
    delta_eff = params.omega0 - params.omegaL + bs_shift
    pair_freq = 0.0 - delta_eff  # EffectiveModel.pair_freq
    if pair_freq <= 0.0:
        warnings.warn("pair channel closed: pair_freq <= 0", PairChannelClosedWarning,
                      stacklevel=2)
    c_cross = omega / (2.0 * params.omegaL)
    return EffectiveModel(
        omega_rabi=omega,
        bs_shift=bs_shift,
        delta_eff=delta_eff,
        gamma_R=rate_at(params.omega0 + bs_shift, params),
        gamma_L=rate_at(params.omegaL, params),
        gamma_T=rate_at(pair_freq, params),
        c_cross=c_cross,
        c_pump=(3.0 * params.g_asym / (8.0 * params.omegaL)) ** 2,
        c_deph=c_cross * c_cross,
    )


# Material presets.  The drive (rabi) is not part of a preset; sweeps and the
# --rabi flag supply it.
_PRESETS = {
    # Protein macromolecule with a ~100x permanent-dipole asymmetry.
    "gamma-globulin": PhysicalParams(
        omega0=5.0e15, omegaL=5.0e15 + 1e13, dipole_ratio=100.0, gamma0=3e6
    ),
    # Wurtzite GaN quantum dot: asymmetry comparable to the transition dipole.
    "gan-dot": PhysicalParams(
        omega0=4.92e15, omegaL=4.92e15 + 1e13, dipole_ratio=1.0, gamma0=3e6
    ),
}


def preset_names() -> tuple:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> PhysicalParams:
    """Named parameter set; unknown names raise with the available list."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


# --- key = value configuration text ---------------------------------------

# Every key a config file may set, and the type its value parses to: the fields
# of PhysicalParams and SweepSpec's grid (split off by the CLI), whose types are
# strings under postponed annotations, and the keys params_from_mapping reads.
_PARSERS = {"float": float, "int": int, "str": str}
CONFIG_KEYS = {
    f.name: _PARSERS[f.type]
    for cls in (PhysicalParams, SweepSpec) for f in fields(cls) if f.name != "base"
} | {"preset": str, "e0_field": float, "p12_debye": float}
_NEEDS = {float: "a number", int: "an integer"}


def parse_config(text: str) -> dict:
    """Parse `key = value` lines ('#' starts a comment) into a dict.

    Unknown or repeated keys are errors; units are fixed (1/s, V/m, Debye)
    and no unit suffixes are parsed.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = CONFIG_KEYS.get(key)
        if kind is None:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; "
                f"known keys: {', '.join(sorted(CONFIG_KEYS))}"
            )
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: key {key!r} needs {_NEEDS[kind]}, got {value!r}"
            ) from None
    return out


def params_from_mapping(mapping: dict) -> PhysicalParams:
    """Build PhysicalParams from a merged configuration mapping.

    The mapping may carry a 'preset' name whose fields act as defaults;
    without one, PhysicalParams' own defaults apply.  The drive is either
    'rabi' directly or 'e0_field' + 'p12_debye' (mutually exclusive).
    """
    m = dict(mapping)
    name = m.pop("preset", None)
    base = preset(name) if name is not None else None

    if "rabi" in m and "e0_field" in m:
        raise ConfigError("give either rabi or e0_field (+ p12_debye), not both")
    if "e0_field" in m:
        if "p12_debye" not in m:
            raise ConfigError("e0_field needs p12_debye to fix the Rabi frequency")
        m["rabi"] = rabi_from_field(m.pop("e0_field"), m.pop("p12_debye"))
    elif "p12_debye" in m:
        raise ConfigError("p12_debye given without e0_field")

    unknown = m.keys() - {f.name for f in fields(PhysicalParams)}
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    if base is None:
        missing = [f.name for f in fields(PhysicalParams)
                   if f.default is MISSING and f.name not in m]
        if missing:
            raise ConfigError(
                f"missing required parameter(s): {', '.join(missing)} "
                "(give them explicitly or name a preset)"
            )
    return PhysicalParams(**m) if base is None else replace(base, **m)


def with_rabi(params: PhysicalParams, rabi: float) -> PhysicalParams:
    """Copy of params with the drive replaced."""
    return replace(params, rabi=rabi)
