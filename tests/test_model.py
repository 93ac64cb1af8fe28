"""Parameter reduction: rates, effective-model coefficients, config parsing."""

import dataclasses
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from thzpair.model import (
    DEBYE,
    HBAR,
    ConfigError,
    EffectiveModel,
    PairChannelClosedWarning,
    PerturbativeDriveWarning,
    PhysicalParams,
    from_physical,
    params_from_mapping,
    parse_config,
    preset,
    preset_names,
    rabi_from_field,
    rate_at,
    with_rabi,
)


def strong_drive_model():
    return from_physical(with_rabi(preset("gamma-globulin"), 1e13))


# --- emission rate law ------------------------------------------------------


def test_rate_at_reference_frequency():
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15, gamma0=3e6)
    assert rate_at(p.omega0, p) == 3e6


def test_rate_at_cubic_scaling():
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15, gamma0=3e6)
    # (1e13 / 5e15)^3 = 8e-9 exactly in binary? Not exactly, so use rel tol.
    assert rate_at(1e13, p) == pytest.approx(2.4e-2, rel=1e-12)
    assert rate_at(2e15, p) / rate_at(1e15, p) == pytest.approx(8.0, rel=1e-12)


def test_rate_at_closed_channel_is_exact_zero():
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15)
    assert rate_at(0.0, p) == 0.0
    assert rate_at(-3e12, p) == 0.0


def test_rate_at_strictly_increasing():
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15)
    rng = np.random.default_rng(7)
    grid = np.sort(rng.uniform(1e10, 1e16, 300))
    rates = [rate_at(w, p) for w in grid]
    assert all(b > a for a, b in zip(rates, rates[1:]))


OVERFLOWING_RATES = [
    pytest.param(PhysicalParams(omega0=1e-100, omegaL=1e10), id="ratio-cubed-overflows"),
    pytest.param(PhysicalParams(omega0=1e10, omegaL=1e12, gamma0=1e305), id="gamma0-times-ratio"),
    # numpy's ** warns and returns inf where Python's raises
    pytest.param(PhysicalParams(omega0=np.float64(1e-100), omegaL=1e10), id="numpy-scalars"),
]


@pytest.mark.parametrize("p", OVERFLOWING_RATES)
def test_rate_past_float_range_is_a_config_error(p):
    """(omega/omega0)^3 past float range raises OverflowError in Python, and
    gamma0 times a finite cube can round to inf: both are rejected by name."""
    with pytest.raises(ConfigError, match=r"rate at omega = 1e\+1[02] 1/s overflows"):
        rate_at(p.omegaL, p)
    with pytest.raises(ConfigError, match="overflows"):
        from_physical(p)
    assert math.isfinite(rate_at(p.omega0, p))


def test_light_shift_is_finite_where_rabi_squared_overflows():
    """rabi^2 = 1e598 leaves float range, but rabi^2/(4 omegaL) = 2.5e297
    does not: the shift is formed as rabi * (rabi / (4 omegaL))."""
    with pytest.warns(PairChannelClosedWarning):
        m = from_physical(PhysicalParams(omega0=1e300, omegaL=1e300, rabi=1e299))
    assert math.isfinite(m.bs_shift)
    assert abs(m.bs_shift - 2.5e297) <= 1e-15 * 2.5e297


@pytest.mark.parametrize("omega", [float("nan"), math.inf, -math.inf])
def test_rate_at_rejects_a_non_finite_frequency(omega):
    """A NaN or infinite frequency is refused by name, not reported as an
    overflow of the rate."""
    with pytest.raises(ConfigError, match=r"emission frequency must be finite, got (nan|-?inf)$"):
        rate_at(omega, preset("gan-dot"))


# --- reduction to the effective model ---------------------------------------


def test_strong_drive_coefficients():
    m = strong_drive_model()
    assert m.bs_shift == pytest.approx(4990019960.079841, rel=1e-14)
    assert m.delta_eff == pytest.approx(-9995009980039.92, rel=1e-14)
    assert m.gamma_R == pytest.approx(3000008.982044891, rel=1e-13)
    assert m.gamma_T == pytest.approx(0.023964089781520773, rel=1e-13)
    assert m.c_cross == pytest.approx(0.000998003992015968, rel=1e-14)
    assert m.c_pump == pytest.approx(0.005602567320448922, rel=1e-14)
    assert m.c_deph == pytest.approx(9.960119680798084e-07, rel=1e-14)
    # headline magnitudes for the strong-drive working point
    assert m.bs_shift == pytest.approx(4.99e9, rel=1e-2)
    assert m.delta_eff == pytest.approx(-9.9950e12, rel=1e-3)
    assert m.c_pump * m.gamma_T == pytest.approx(1.35e-4, rel=1e-2)


def test_reduction_against_high_precision_arithmetic():
    """Re-derive every coefficient with 50-digit arithmetic."""
    p = with_rabi(preset("gamma-globulin"), 1e13)
    m = from_physical(p)
    with mpmath.workdps(50):
        w0 = mpmath.mpf(p.omega0)
        wl = mpmath.mpf(p.omegaL)
        om = mpmath.mpf(p.rabi)
        g = mpmath.mpf(p.dipole_ratio) * om
        g0 = mpmath.mpf(p.gamma0)
        bs = om * om / (4 * wl)
        deff = w0 - wl + bs
        pf = wl - w0 - bs
        expected = {
            "bs_shift": bs,
            "delta_eff": deff,
            "pair_freq": pf,
            "gamma_R": g0 * ((w0 + bs) / w0) ** 3,
            "gamma_L": g0 * (wl / w0) ** 3,
            "gamma_T": g0 * (pf / w0) ** 3,
            "c_cross": om / (2 * wl),
            "c_pump": (3 * g / (8 * wl)) ** 2,
            "c_deph": (om / (2 * wl)) ** 2,
        }
        for name, ref in expected.items():
            got = getattr(m, name)
            err = abs((mpmath.mpf(got) - ref) / ref)
            assert err < 1e-13, f"{name}: {got} vs {ref} (rel {err})"


def test_no_drive_limit():
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15, dipole_ratio=100)
    m = from_physical(p)
    assert m.omega_rabi == 0.0
    assert p.g_asym == 0.0
    assert m.bs_shift == 0.0
    assert m.c_cross == 0.0
    assert m.c_pump == 0.0
    assert m.c_deph == 0.0
    assert m.delta_eff == 5e15 - 5.01e15
    assert m.gamma_T > 0.0  # pair channel stays open without a drive


def test_field_doubling_scales_exactly():
    """Doubling E0 doubles Omega and G, and quadruples c_pump and c_deph.

    Multiplication by two is exact in binary floating point, so these are
    equality assertions, not tolerance checks.
    """
    p12, e0 = 10.0, 1.1e7
    r1 = rabi_from_field(e0, p12)
    r2 = rabi_from_field(2 * e0, p12)
    assert r2 == 2 * r1
    p1 = with_rabi(preset("gamma-globulin"), r1)
    p2 = with_rabi(preset("gamma-globulin"), r2)
    m1, m2 = from_physical(p1), from_physical(p2)
    assert m2.omega_rabi == 2 * m1.omega_rabi
    assert p2.g_asym == 2 * p1.g_asym
    assert m2.c_pump == 4 * m1.c_pump
    assert m2.c_deph == 4 * m1.c_deph


def test_frequency_bookkeeping_identity():
    rng = np.random.default_rng(11)
    base = preset("gamma-globulin")
    for _ in range(100):
        # stay below the large-drive warning threshold (G/omegaL = 0.25)
        p = with_rabi(base, float(rng.uniform(0, 1.2e13)))
        m = from_physical(p)
        assert abs(m.pair_freq + m.bs_shift + p.omega0 - p.omegaL) <= 1e-15 * p.omegaL


def test_pair_frequency_is_the_negated_effective_detuning_bit_for_bit():
    """pair_freq = -delta_eff, and bit for bit the lab-frame difference
    omegaL - omega0 - bs_shift, over seeded drives of both presets; where
    the two levels meet it is +0.0, as that difference rounds."""
    def bits(x):
        return np.float64(x).tobytes()

    rng = np.random.default_rng(41)
    for name, rabi_max in (("gamma-globulin", 4.9e13), ("gan-dot", 1e15)):
        for e in rng.uniform(11.0, math.log10(rabi_max), 50):
            p = with_rabi(preset(name), 10.0**e)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # closed pair channel, strong drive
                m = from_physical(p)
            assert m.pair_freq == -m.delta_eff
            assert bits(m.pair_freq) == bits(p.omegaL - p.omega0 - m.bs_shift)
    with pytest.warns(PairChannelClosedWarning):
        m = from_physical(PhysicalParams(omega0=5e15, omegaL=5e15))
    assert bits(m.pair_freq) == bits(0.0)


def test_effective_model_holds_the_rotating_frame_coefficients_only():
    """The lab inputs stay on PhysicalParams, and pair_freq is read off
    delta_eff: no model can carry a pair frequency that contradicts its
    detuning, and replacing delta_eff moves pair_freq with it."""
    assert [f.name for f in dataclasses.fields(EffectiveModel)] == [
        "omega_rabi", "bs_shift", "delta_eff", "gamma_R", "gamma_L", "gamma_T",
        "c_cross", "c_pump", "c_deph",
    ]
    m = strong_drive_model()
    with pytest.raises(TypeError):
        dataclasses.replace(m, pair_freq=1.0)
    with pytest.raises(TypeError):
        EffectiveModel(**dataclasses.asdict(m), pair_freq=1.0)
    # +0.0 where the levels meet, whichever sign the zero detuning carries
    for delta, pair in ((-1e12, 1e12), (3.5e13, -3.5e13), (0.0, 0.0), (-0.0, 0.0)):
        moved = dataclasses.replace(m, delta_eff=delta)
        assert np.float64(moved.pair_freq).tobytes() == np.float64(pair).tobytes()


def test_closed_pair_channel_warns_and_zeroes_gamma_T():
    p = PhysicalParams(omega0=5e15, omegaL=4.9e15, rabi=1e12)
    with pytest.warns(PairChannelClosedWarning):
        m = from_physical(p)
    assert m.pair_freq <= 0.0
    assert m.gamma_T == 0.0


def test_open_pair_channel_has_positive_gamma_T():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning expected here
        m = strong_drive_model()
    assert m.pair_freq > 0.0
    assert m.gamma_T > 0.0


def test_rabi_from_field_hand_value():
    # 10 Debye in a 1e8 V/m field: 10 * 3.33564e-30 * 1e8 / 1.054572e-34
    got = rabi_from_field(1e8, 10.0)
    assert got == pytest.approx(3.1630e13, rel=1e-4)
    assert rabi_from_field(-1e8, -10.0) == got  # magnitudes only
    assert got == 10.0 * DEBYE * 1e8 / HBAR


# --- validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega0=0.0, omegaL=5e15),
        dict(omega0=-1e15, omegaL=5e15),
        dict(omega0=5e15, omegaL=0.0),
        dict(omega0=5e15, omegaL=5.01e15, gamma0=0.0),
        dict(omega0=5e15, omegaL=5.01e15, gamma0=-1.0),
        dict(omega0=5e15, omegaL=5.01e15, dipole_ratio=-0.5),
        dict(omega0=5e15, omegaL=5.01e15, rabi=-1e12),
        dict(omega0=math.nan, omegaL=5.01e15),
        dict(omega0=5e15, omegaL=math.inf),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("rabi", [np.int64(5), np.float32(1e13), 5],
                         ids=["int64", "float32", "int"])
def test_a_numeric_field_holds_a_python_float(rabi):
    """A numpy or int drive is held as the Python float of it, so the
    reduction runs in double precision: under numpy's promotion rules an
    np.float32 drive would keep from_physical in float32."""
    p = PhysicalParams(omega0=5e15, omegaL=5.01e15, rabi=rabi)
    assert type(p.rabi) is float and p.rabi == float(rabi)
    m = from_physical(p)
    assert type(m.bs_shift) is float
    assert m == from_physical(PhysicalParams(omega0=5e15, omegaL=5.01e15, rabi=float(rabi)))


@pytest.mark.parametrize("field", ["rabi", "dipole_ratio", "gamma0"])
def test_a_bool_is_not_a_number(field):
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got True$"):
        PhysicalParams(omega0=5e15, omegaL=5.01e15, **{field: True})


@pytest.mark.parametrize("field, value", [
    ("omega0", 10**400), ("rabi", 10**400), ("gamma0", -10**400),
], ids=["omega0", "rabi", "gamma0"])
def test_an_int_past_float_range_is_named(field, value):
    """A Python int that no float holds is refused as a non-finite value,
    by name, not with the int-to-float OverflowError; the largest float is
    finite."""
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value}$"):
        PhysicalParams(**{"omega0": 5e15, "omegaL": 5.01e15, field: value})
    largest = sys.float_info.max
    assert PhysicalParams(omega0=largest, omegaL=largest).omega0 == largest


@pytest.mark.parametrize("label, kwargs", [
    ("rabi", dict(rabi=5.01e15)),
    ("G", dict(rabi=5.01e15 / 2, dipole_ratio=2.0)),
])
def test_a_drive_equal_to_the_laser_frequency_is_refused(label, kwargs):
    """The hard limit is rabi, G < omegaL: equality is refused too."""
    with pytest.raises(ConfigError, match=rf"^{label}/omegaL = 1 >= 1: second-order"):
        PhysicalParams(omega0=5e15, omegaL=5.01e15, **kwargs)


@pytest.mark.filterwarnings("ignore::thzpair.model.PairChannelClosedWarning")
@pytest.mark.parametrize("dipole_ratio, label", [(0.0, "rabi"), (2.0, "G")])
def test_the_drive_warning_fires_past_a_quarter_only(dipole_ratio, label):
    """rabi (or G) = omegaL/4 exactly does not warn; the next float up does,
    as README has it: the warning fires when the ratio exceeds 0.25."""
    omegaL = 5e15 + 1e13
    quarter = omegaL / 4 / (1.0 + dipole_ratio / 2)  # rabi, or rabi with G = 2 rabi
    for rabi, warns in ((quarter, False), (math.nextafter(quarter, math.inf), True)):
        p = PhysicalParams(omega0=5e15, omegaL=omegaL, rabi=rabi, dipole_ratio=dipole_ratio)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always", PerturbativeDriveWarning)
            from_physical(p)
        assert [str(w.message).split("/")[0] for w in seen
                if w.category is PerturbativeDriveWarning] == ([label] if warns else [])


STRONG_DRIVE = dict(omega0=5e15, omegaL=5e15 + 1e13, rabi=0.3 * (5e15 + 1e13))


def test_strong_drive_params_construct_silently():
    """The drive-ratio warning belongs to the reduction, not to the inputs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        PhysicalParams(**STRONG_DRIVE)
        PhysicalParams(omega0=5e15, omegaL=5e15 + 1e13, rabi=2e13, dipole_ratio=100.0)


@pytest.mark.filterwarnings("ignore::thzpair.model.PairChannelClosedWarning")  # rabi/omegaL 0.3
def test_strong_drive_warning_and_hard_limit():
    with pytest.warns(
        PerturbativeDriveWarning,
        match=r"^rabi/omegaL > 0\.25; second-order drive corrections may be inaccurate$",
    ):
        from_physical(PhysicalParams(**STRONG_DRIVE))
    # the asymmetry drive G trips the same guards
    asym = PhysicalParams(omega0=5e15, omegaL=5e15 + 1e13, rabi=2e13, dipole_ratio=100.0)
    with pytest.warns(PerturbativeDriveWarning, match=r"^G/omegaL > 0\.25; "):
        from_physical(asym)
    with pytest.raises(ValueError, match="second-order treatment"):
        PhysicalParams(omega0=5e15, omegaL=5e15 + 1e13, rabi=6e15)


def test_strong_drive_warning_names_the_calling_line(tmp_path):
    """Both physics warnings point at the line that calls from_physical,
    never into the model: the caller's own line, and for the CLI the line of
    the package's own cli module that calls it."""
    from thzpair import cli

    def caught(fn):
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            fn()
        drive = [w for w in ws if issubclass(w.category, PerturbativeDriveWarning)]
        assert drive
        return [w for w in ws if issubclass(
            w.category, (PerturbativeDriveWarning, PairChannelClosedWarning))]

    strong = PhysicalParams(**STRONG_DRIVE)
    for fn in (
        lambda: from_physical(strong),
        lambda: from_physical(with_rabi(preset("gan-dot"), 2e15)),
    ):
        for w in caught(fn):
            assert (w.filename, w.lineno) == (__file__, fn.__code__.co_firstlineno)

    cfg = tmp_path / "hot.cfg"
    cfg.write_text("preset = gan-dot\nomega_max = 2e15\npoints = 2\n", encoding="utf-8")
    steady = ["steady", "--preset", "gan-dot", "--rabi", "2e15"]
    sweep = ["sweep", "--config", str(cfg), "--output", str(tmp_path / "hot.csv")]
    for argv in (steady, sweep):
        for w in caught(lambda: cli.main(argv)):
            assert Path(w.filename).parent == Path(cli.__file__).parent, w.filename


def test_params_are_immutable():
    p = preset("gamma-globulin")
    with pytest.raises(Exception):
        p.rabi = 1e12
    q = with_rabi(p, 1e12)
    assert q.rabi == 1e12 and p.rabi == 0.0
    assert q.omega0 == p.omega0


# --- presets ------------------------------------------------------------------


def test_preset_names_sorted():
    names = preset_names()
    assert names == tuple(sorted(names))
    assert "gamma-globulin" in names
    assert "gan-dot" in names


def test_preset_values():
    gg = preset("gamma-globulin")
    assert gg.omega0 == 5.0e15
    assert gg.omegaL == 5.0e15 + 1e13
    assert gg.dipole_ratio == 100.0
    assert gg.gamma0 == 3e6
    gan = preset("gan-dot")
    assert gan.dipole_ratio == 1.0
    assert gan.omegaL - gan.omega0 == pytest.approx(1e13, rel=1e-12)


def test_unknown_preset_lists_available():
    with pytest.raises(ConfigError, match="gamma-globulin"):
        preset("unobtainium")


# --- config text --------------------------------------------------------------


def test_parse_config_basic():
    text = """
    # material
    preset = gamma-globulin
    rabi = 1e13   # drive (1/s)

    points = 50
    spacing = linear
    """
    d = parse_config(text)
    assert d == {
        "preset": "gamma-globulin",
        "rabi": 1e13,
        "points": 50,
        "spacing": "linear",
    }


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("bogus_key = 1", "unknown key"),
        ("rabi 1e13", "expected 'key = value'"),
        ("rabi = fast", "needs a number"),
        ("points = 2.5", "needs an integer"),
        ("rabi = 1e12\nrabi = 2e12", "duplicate key"),
    ],
)
def test_parse_config_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line)


def test_params_from_mapping_preset_merge():
    p = params_from_mapping({"preset": "gamma-globulin", "rabi": 1e13})
    assert p.omega0 == 5.0e15
    assert p.rabi == 1e13
    assert p.dipole_ratio == 100.0
    # explicit keys beat the preset
    q = params_from_mapping(
        {"preset": "gamma-globulin", "rabi": 1e13, "dipole_ratio": 2.0}
    )
    assert q.dipole_ratio == 2.0


def test_params_from_mapping_field_route():
    p = params_from_mapping(
        {"preset": "gamma-globulin", "e0_field": 1e7, "p12_debye": 10.0}
    )
    assert p.rabi == rabi_from_field(1e7, 10.0)


@pytest.mark.parametrize(
    "mapping, fragment",
    [
        ({"rabi": 1e12, "e0_field": 1e8, "preset": "gan-dot"}, "not both"),
        ({"e0_field": 1e8, "preset": "gan-dot"}, "needs p12_debye"),
        ({"p12_debye": 10.0, "preset": "gan-dot"}, "without e0_field"),
        ({"rabi": 1e12}, "missing required"),
        ({"omega0": 5e15}, "missing required"),
        ({"preset": "nope"}, "unknown preset"),
        ({"preset": "gan-dot", "frobnicate": 1.0}, "unknown keys"),
        ({"omega0": 5e15, "omegaL": 5.01e15, "gamma0": -1.0}, "gamma0"),
        # sweep-grid keys are split off by the CLI, not accepted here
        ({"preset": "gan-dot", "rabi": 1e12, "points": 20, "spacing": "log"},
         "unknown keys: points, spacing"),
    ],
)
def test_params_from_mapping_errors(mapping, fragment):
    with pytest.raises(ConfigError, match=fragment):
        params_from_mapping(mapping)


def test_effective_model_is_frozen():
    m = strong_drive_model()
    assert isinstance(m, EffectiveModel)
    with pytest.raises(Exception):
        m.gamma_R = 0.0
