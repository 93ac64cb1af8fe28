"""Command-line interface: subcommands, config layering, exit codes, CSV."""

import argparse
import dataclasses
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from thzpair import cli, correlations, dynamics, heff, model
from thzpair.model import ConfigError, PhysicalParams, preset, with_rabi


def read(path):
    return path.read_text(encoding="utf-8")


# --- sweep ----------------------------------------------------------------------


def test_sweep_default_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--preset", "gamma-globulin", "--output", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 201  # header + 200 points
    assert lines[1] == (
        "1e+11,-0.499975001,2.49987501e-05,40002,1.000025,0,1.60016e+09,true,9.9999995e+12"
    )
    first, last = lines[1].split(","), lines[-1].split(",")
    assert float(first[0]) == 1e11 and float(last[0]) == 1e13
    assert all(line.split(",")[7] == "true" for line in lines[1:])


def test_sweep_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--preset", "gamma-globulin"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["gamma-globulin", "gan-dot"])
@pytest.mark.parametrize(
    "tag, grid", [("default", {}), ("linear50", {"points": 50, "spacing": "linear"})]
)
def test_sweep_csv_matches_golden_bytes(name, tag, grid):
    """The sweep CSV is a byte contract.  These files were written by the
    solver as it stood before the generator moved to a Hermitian operator
    basis, so a last-digit drift from any refactor of the solve shows here.
    They pin one numpy/OpenBLAS build: a digit that changes with a new
    toolchain is a contract break to report, not a file to re-record."""
    rows = cli.run_sweep(cli.SweepSpec(base=preset(name), **grid))
    golden = (GOLDEN / f"sweep_{name}_{tag}.csv").read_bytes()
    assert cli.sweep_csv(rows).encode() == golden


@pytest.mark.parametrize("name", ["gamma-globulin", "gan-dot"])
@pytest.mark.parametrize(
    "tag, flags", [("default", []), ("linear50", ["--points", "50", "--linear"])]
)
def test_sweep_command_writes_the_golden_bytes(name, tag, flags, tmp_path):
    """The file the sweep subcommand writes, through _write_text, is the same
    byte contract: no newline translation, no encoding drift."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--preset", name, "--output", str(out), *flags]) == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_{name}_{tag}.csv").read_bytes()


def _numpy_dispatch_targets() -> list:
    """The SIMD targets numpy dispatches to at run time, as it names them."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return list(_multiarray_umath.__cpu_dispatch__)


# Run-time kernel choices that must not move a golden byte.  Each variable
# acts on one child process; a dispatch name numpy does not know would be an
# ImportWarning, so the names are read from numpy itself.  OPENBLAS_VERBOSE=2
# makes OpenBLAS name the core it loaded on stderr.
KERNEL_SETTINGS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_VERBOSE": "2"},
    "openblas-nehalem": {"OPENBLAS_CORETYPE": "Nehalem", "OPENBLAS_VERBOSE": "2"},
    "numpy-dispatch-off": {"NPY_DISABLE_CPU_FEATURES": " ".join(_numpy_dispatch_targets())},
}

_GOLDEN_CHILD = """\
import sys
from thzpair import cli
try:
    from numpy._core import _multiarray_umath
except ImportError:
    from numpy.core import _multiarray_umath
print(sorted(name for name in _multiarray_umath.__cpu_dispatch__
             if _multiarray_umath.__cpu_features__.get(name)))
for name in ("gamma-globulin", "gan-dot"):
    for tag, flags in (("default", []), ("linear50", ["--points", "50", "--linear"])):
        out = f"{sys.argv[1]}/sweep_{name}_{tag}.csv"
        assert cli.main(["sweep", "--preset", name, "--output", out, *flags]) == 0
"""


@pytest.mark.parametrize("setting", list(KERNEL_SETTINGS))
def test_golden_bytes_under_other_kernels(setting, tmp_path, child_env):
    """OpenBLAS picks its kernel and numpy its SIMD loops when they load, so
    the sweep CSV byte contract is checked in a child process under each
    setting.  Each setting is shown to have taken: the core OpenBLAS names
    (where numpy's BLAS is OpenBLAS), or no dispatch target left on."""
    env = {**child_env, **KERNEL_SETTINGS[setting]}
    proc = subprocess.run([sys.executable, "-W", "error::ImportWarning", "-c", _GOLDEN_CHILD,
                           str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    if setting == "numpy-dispatch-off":
        assert proc.stdout.strip() == "[]"
    elif "Core:" in proc.stderr:
        assert f"Core: {env['OPENBLAS_CORETYPE']}" in proc.stderr
    written = sorted(tmp_path.glob("*.csv"))
    assert [p.name for p in written] == sorted(p.name for p in GOLDEN.glob("sweep_*.csv"))
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_sweep_rows_are_slotted_and_hold_python_floats():
    """A row holds plain floats in slots, with no per-instance __dict__, so
    a caller that keeps many rows pays little per point; dataclasses.replace
    still derives a changed copy."""
    rows = cli.run_sweep(cli.SweepSpec(base=preset("gan-dot"), points=5))
    for r in rows:
        assert not hasattr(r, "__dict__")
        values = [getattr(r, f.name) for f in dataclasses.fields(r)]
        assert [type(v) for v in values] == [float] * 7 + [bool, float, bool]
    bad = dataclasses.replace(rows[0], p2=2.0)
    assert bad.p2 == 2.0 and bad.g12 == rows[0].g12 and rows[0].p2 != 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].p2 = 2.0


def test_sweep_rows_identical_across_worker_counts():
    spec = cli.SweepSpec(base=preset("gamma-globulin"), points=40)
    serial = cli.sweep_csv(cli.run_sweep(spec, workers=1))
    threaded = cli.sweep_csv(cli.run_sweep(spec, workers=4))
    assert serial == threaded


def test_sweep_csv_roundtrip(tmp_path):
    """Rows parse back and re-serialize to the identical text."""
    out = tmp_path / "sweep.csv"
    cli.main(["sweep", "--preset", "gamma-globulin", "--output", str(out),
              "--points", "25"])
    text = read(out)
    rows = []
    for line in text.splitlines()[1:]:
        f = line.split(",")
        rows.append(cli.SweepRow(
            omega_rabi=float(f[0]), sz=float(f[1]), p2=float(f[2]),
            g12=float(f[3]), g21=float(f[4]), cs_lhs=float(f[5]),
            cs_rhs=float(f[6]), violated=(f[7] == "true"), pair_freq=float(f[8]),
        ))
    assert cli.sweep_csv(rows) == text


def test_sweep_points_and_linear_spacing(tmp_path):
    out = tmp_path / "two.csv"
    rc = cli.main(["sweep", "--preset", "gamma-globulin", "--output", str(out),
                   "--points", "2", "--linear"])
    assert rc == 0
    lines = read(out).splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 1e11
    assert float(lines[2].split(",")[0]) == 1e13


def test_sweep_config_grid_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "preset = gamma-globulin\n"
        "omega_min = 2e11\n"
        "omega_max = 4e11\n"
        "points = 3\n"
        "spacing = linear\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfg.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    grid = [float(line.split(",")[0]) for line in read(out).splitlines()[1:]]
    assert grid == [2e11, 3e11, 4e11]


def test_sweep_cli_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = gamma-globulin\npoints = 3\nspacing = linear\n",
                   encoding="utf-8")
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--output", str(out),
                     "--points", "5", "--log"]) == 0
    grid = [float(line.split(",")[0]) for line in read(out).splitlines()[1:]]
    assert len(grid) == 5
    ratios = np.diff(np.log(grid))
    assert np.allclose(ratios, ratios[0])  # log spacing won


def test_sweep_partial_failure_exit_code(tmp_path, capsys):
    """Grid points whose asymmetry drive G reaches omegaL are invalid; the
    sweep records them as failed rows and signals a partial result."""
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(
        "omega0 = 5e15\nomegaL = 5.01e15\ndipole_ratio = 1000\npoints = 10\n",
        encoding="utf-8",
    )
    out = tmp_path / "partial.csv"
    with pytest.warns(Warning):
        rc = cli.main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert rc == cli.EXIT_PARTIAL_SWEEP
    assert "grid points failed" in capsys.readouterr().err
    lines = read(out).splitlines()
    assert len(lines) == 11
    assert any("nan" in line for line in lines[1:])
    assert not any("nan" in line for line in lines[1:4])  # weak-drive rows fine


GROWING_CFG = "omega0 = 5.6e11\nomegaL = 3e13\ndipole_ratio = 0.05\ngamma0 = 1.6e5\n"


def test_growing_mode_fails_steady_and_its_sweep_row(tmp_path, capsys):
    """A fixed point with a growing mode is a degenerate solve: steady exits
    2 and names the growth rate; a sweep through it fails that row alone."""
    cfg = tmp_path / "grow.cfg"
    cfg.write_text(GROWING_CFG + "rabi = 6e12\n", encoding="utf-8")
    assert cli.main(["steady", "--config", str(cfg)]) == cli.EXIT_DEGENERATE
    assert "not an attractor: max Re lambda = 1.05e+06" in capsys.readouterr().err
    cfg.write_text(GROWING_CFG + "omega_min = 1e11\nomega_max = 6e12\npoints = 2\n"
                   "spacing = linear\n", encoding="utf-8")
    out = tmp_path / "grow.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--output", str(out)]) == \
        cli.EXIT_PARTIAL_SWEEP
    first, second = read(out).splitlines()[1:]
    assert "nan" not in first
    assert second == "6e+12,nan,nan,nan,nan,nan,nan,false,nan"


@pytest.mark.parametrize("base", [
    "omega0 = 1e-100\nomegaL = 1e10\n",
    "omega0 = 1e10\nomegaL = 1e12\ngamma0 = 1e305\n",
], ids=["ratio-cubed-overflows", "gamma0-times-ratio"])
def test_overflowing_rate_is_a_config_error(tmp_path, capsys, base):
    """An emission rate past float range exits 1 from steady, with no
    traceback, and fails every row of a sweep without aborting it."""
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(base + "rabi = 1e6\n", encoding="utf-8")
    assert cli.main(["steady", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "overflows double precision" in capsys.readouterr().err
    cfg.write_text(base + "omega_min = 1e5\nomega_max = 1e8\npoints = 3\n", encoding="utf-8")
    out = tmp_path / "hot.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--output", str(out)]) == \
        cli.EXIT_PARTIAL_SWEEP
    rows = read(out).splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith("nan,nan,false,nan") for row in rows)


def test_sweep_propagates_programming_errors(monkeypatch):
    """Only configuration, numerical and physical failures become failed rows;
    a bug does not, not even one that raises a plain ValueError."""
    spec = cli.SweepSpec(base=preset("gamma-globulin"), points=3)
    for error in (TypeError, ValueError):

        def broken(params):
            raise error("not a sweep-point failure")

        monkeypatch.setattr(cli.model, "from_physical", broken)
        with pytest.raises(error, match="not a sweep-point failure"):
            cli.run_sweep(spec)


def test_sweep_rejects_bad_grid(tmp_path):
    out = tmp_path / "x.csv"
    rc = cli.main(["sweep", "--preset", "gamma-globulin", "--output", str(out),
                   "--points", "1"])
    assert rc == cli.EXIT_CONFIG
    with pytest.raises(ConfigError, match="points must be >= 2"):
        cli.SweepSpec(base=preset("gamma-globulin"), points=1)
    for omega_max in (1e11, 1e12):  # below, and equal to, omega_min
        with pytest.raises(ConfigError, match="^omega_max must exceed omega_min$"):
            cli.SweepSpec(base=preset("gamma-globulin"), omega_min=1e12, omega_max=omega_max)
    with pytest.raises(ConfigError, match="spacing"):
        cli.SweepSpec(base=preset("gamma-globulin"), spacing="cubic")
    with pytest.raises(ConfigError, match="omega_min > 0"):
        cli.SweepSpec(base=preset("gamma-globulin"), omega_min=0.0, spacing="log")
    for points in (2.5, 3.0, "5"):  # rejected here, not inside the grid construction
        with pytest.raises(ConfigError, match="points must be an integer"):
            cli.SweepSpec(base=preset("gamma-globulin"), points=points)
    assert cli.SweepSpec(base=preset("gamma-globulin"), points=np.int64(3)).grid().size == 3
    ## the bounds are Rabi magnitudes: a string, None or a negative value is
    ## a config error, as a negative rabi is for PhysicalParams
    for bounds in ({"omega_min": "1e11"}, {"omega_max": None},
                   {"omega_min": -1e12, "spacing": "linear"},
                   {"omega_min": -2e12, "omega_max": -1e12, "spacing": "linear"},
                   {"omega_max": 10**400}):  # an int past float range
        with pytest.raises(ConfigError, match="must be finite and >= 0"):
            cli.SweepSpec(base=preset("gamma-globulin"), **bounds)
    largest = sys.float_info.max
    assert cli.SweepSpec(base=preset("gamma-globulin"), omega_max=largest).omega_max == largest
    assert cli.SweepSpec(base=preset("gamma-globulin"), omega_min=0.0,
                         spacing="linear").grid()[0] == 0.0


def test_sweep_spec_holds_python_numbers():
    """numpy bounds and point counts are held as Python floats and ints; a
    bool is neither."""
    spec = cli.SweepSpec(base=preset("gan-dot"), omega_min=np.float32(1e11),
                         omega_max=np.int64(10**13), points=np.int64(5))
    assert type(spec.omega_min) is float and spec.omega_min == float(np.float32(1e11))
    assert type(spec.omega_max) is float and spec.omega_max == 1e13
    assert type(spec.points) is int and spec.points == 5
    with pytest.raises(ConfigError, match=r"^points must be an integer, got True$"):
        cli.SweepSpec(base=preset("gan-dot"), points=True)
    with pytest.raises(ConfigError, match=r"^omega_max must be finite and >= 0, got True$"):
        cli.SweepSpec(base=preset("gan-dot"), omega_min=0.0, omega_max=True, spacing="linear")


def test_a_sweep_takes_at_most_a_million_points(tmp_path, capsys):
    """points is bounded in SweepSpec, so a config file is checked as a flag
    is, before any grid is built.  The spec at the bound is built, never run."""
    base = preset("gan-dot")
    assert cli.SweepSpec(base=base, points=model.MAX_POINTS).points == 10**6
    for points in (10**6 + 1, 10**400):
        with pytest.raises(ConfigError, match=r"^points must be >= 2 and <= 1000000$"):
            cli.SweepSpec(base=base, points=points)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"preset = gan-dot\npoints = {10**400}\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    for source in (["--preset", "gan-dot", "--points", str(10**400)], ["--config", str(cfg)]):
        assert cli.main(["sweep", *source, "--output", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: points must be >= 2 and <= 1000000\n"
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "omega_min = nan",
    "omega_max = inf",
    pytest.param("omega_min = -1e12\nspacing = linear", id="omega_min = -1e12, linear"),
])
def test_sweep_rejects_non_finite_grid_bounds(tmp_path, capsys, line):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"preset = gamma-globulin\n{line}\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    rc = cli.main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


# --- steady ----------------------------------------------------------------------


def test_steady_report(capsys):
    assert cli.main(["steady", "--preset", "gamma-globulin", "--rabi", "1e13"]) == 0
    text = capsys.readouterr().out
    assert "sz           = -0.333333527" in text
    assert "p2           = 0.166666473" in text
    assert "gamma_T    = 0.0239640898" in text
    assert "pump       = 0.000134260426" in text


def test_a_negative_zero_drive_is_a_magnitude_without_a_sign(capsys):
    """rabi is stored as a magnitude: a -0.0 is held as +0.0, and steady
    prints it without a sign."""
    assert not np.signbit(PhysicalParams(omega0=5e15, omegaL=5.01e15, rabi=-0.0).rabi)
    assert cli.main(["steady", "--preset", "gan-dot", "--rabi", "-0.0"]) == cli.EXIT_OK
    assert "omega_rabi   = 0  1/s" in capsys.readouterr().out.splitlines()


def test_steady_takes_the_default_gamma0(tmp_path, capsys):
    """A config that names only omega0 and omegaL takes gamma0 = 3e6 1/s:
    undriven, that is the optical rate gamma_R."""
    cfg = tmp_path / "bare.cfg"
    cfg.write_text("omega0 = 5e15\nomegaL = 5.01e15\n", encoding="utf-8")
    assert cli.main(["steady", "--config", str(cfg)]) == cli.EXIT_OK
    assert "  gamma_R    = 3000000" in capsys.readouterr().out.splitlines()


def test_steady_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("preset = gamma-globulin\nrabi = 1e12\n", encoding="utf-8")
    assert cli.main(["steady", "--config", str(cfg), "--rabi", "1e11"]) == 0
    assert "omega_rabi   = 1e+11" in capsys.readouterr().out


def test_steady_rabi_flag_replaces_config_field_route(tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(
        "preset = gamma-globulin\ne0_field = 1e8\np12_debye = 10\n", encoding="utf-8"
    )
    # --rabi must not clash with the config's field route; it replaces it
    assert cli.main(["steady", "--config", str(cfg), "--rabi", "1e13"]) == 0
    assert "omega_rabi   = 1e+13" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["steady", "--rabi", "1e13"],
    ["correlate", "--rabi", "1e13", "--tau-points", "3"],
    ["verify-heff", "--rabi", "1e13"],
])
def test_shared_config_with_grid_keys(tmp_path, capsys, command):
    """One config file serves every subcommand; only sweep reads the grid keys."""
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "preset = gamma-globulin\nomega_min = 2e11\nomega_max = 4e11\n"
        "points = 3\nspacing = linear\n",
        encoding="utf-8",
    )
    argv = [*command, "--config", str(cfg)]
    if command[0] == "correlate":
        argv += ["--output", str(tmp_path / "c.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()


# Every PhysicalParams field and every SweepSpec grid field, each at a valid
# value other than its default.
ALL_FIELDS = {
    "omega0": 4.9e15, "omegaL": 4.91e15, "rabi": 2e12, "dipole_ratio": 3.0, "gamma0": 4e6,
    "omega_min": 2e11, "omega_max": 4e11, "points": 3, "spacing": "linear",
}


def _names(cls):
    return [f.name for f in dataclasses.fields(cls) if f.name != "base"]


@pytest.fixture
def all_fields_cfg(tmp_path):
    assert sorted(ALL_FIELDS) == sorted(_names(PhysicalParams) + _names(cli.SweepSpec))
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in ALL_FIELDS.items()), encoding="utf-8")
    return cfg


def test_every_config_field_reaches_the_sweep(tmp_path, monkeypatch, all_fields_cfg):
    """Each field, set in a config file, reaches the sweep's base parameters
    or its grid."""
    specs = []
    monkeypatch.setattr(cli, "run_sweep", lambda spec: specs.append(spec) or [])
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--config", str(all_fields_cfg), "--output", str(out)]) == 0
    (spec,) = specs
    got = {k: getattr(spec.base, k) for k in _names(PhysicalParams)}
    got.update((k, getattr(spec, k)) for k in _names(cli.SweepSpec))
    assert got == ALL_FIELDS


@pytest.mark.parametrize("command", [
    ["steady"], ["correlate", "--tau-points", "3"], ["verify-heff"],
], ids=lambda command: command[0])
def test_every_physical_field_reaches_each_command(tmp_path, monkeypatch, capsys,
                                                   all_fields_cfg, command):
    """The subcommands without a grid solve at exactly the file's parameters."""
    solved, real = [], model.from_physical
    monkeypatch.setattr(model, "from_physical", lambda p: solved.append(p) or real(p))
    argv = [*command, "--config", str(all_fields_cfg)]
    if command[0] == "correlate":
        argv += ["--output", str(tmp_path / "c.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    assert solved == [PhysicalParams(**{k: ALL_FIELDS[k] for k in _names(PhysicalParams)})]
    capsys.readouterr()


def test_resolve_splits_grid_keys_and_flags_win(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(
        "preset = gamma-globulin\ne0_field = 1e8\np12_debye = 10\n"
        "omega_max = 4e11\npoints = 3\nspacing = linear\n",
        encoding="utf-8",
    )
    args = argparse.Namespace(
        config=str(cfg), preset="gan-dot", rabi=1e12, points=7, spacing=None
    )
    params, grid = cli._resolve(args)
    # --preset replaces the file's preset; --rabi replaces its field route
    assert params == with_rabi(preset("gan-dot"), 1e12)
    assert grid == {"omega_max": 4e11, "points": 7, "spacing": "linear"}


def test_unphysical_solve_exits_2(monkeypatch, capsys):
    """A state that breaks a density-matrix invariant inside a solve is a
    numerical failure (exit 2), not a configuration error (exit 1)."""
    monkeypatch.setattr(dynamics, "TRACE_TOL", -1.0)  # every trace now fails
    rc = cli.main(["steady", "--preset", "gamma-globulin", "--rabi", "1e13"])
    assert rc == cli.EXIT_DEGENERATE
    assert "Tr rho" in capsys.readouterr().err


def test_light_shift_past_rabi_squared_range_reaches_the_solve(
        tmp_path, capsys, monkeypatch, reference):
    """rabi^2 overflows here but the light shift 2.5e297 does not, so the
    input is not refused as an infinite emission frequency (exit 1), and the
    solve succeeds (exit 0).  The block is badly scaled but not sensitive:
    p2, g12 and g21 match the reference, which needs more than 50 digits to
    resolve this dynamic range (at 50 it calls the system singular)."""
    text = "omega0 = 1e300\nomegaL = 1e300\nrabi = 1e299\n"
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text, encoding="utf-8")
    with pytest.warns(model.PairChannelClosedWarning):
        rc = cli.main(["steady", "--config", str(cfg)])
    assert rc == cli.EXIT_OK
    assert "p2           = 0.500619567\n" in capsys.readouterr().out
    params = model.params_from_mapping(model.parse_config(text))
    with pytest.warns(model.PairChannelClosedWarning):
        _, _, ss = cli._solve(params)
    rep = correlations.cauchy_schwarz(ss)
    monkeypatch.setattr(reference, "DPS", 400)
    expected = reference.steady_point(reference.Lab.of(params))
    printed = [reference.mp.nstr(ref, 12) for ref in expected]
    assert printed == ["0.500619567161", "1.99752479846", "2.00248134336"]
    for value, ref in zip((ss.p_excited, rep.g12, rep.g21), expected):
        assert reference.rel_dev(value, ref) <= 1e-13


## gan-dot across the zero crossing of sz near saturation, where |sz| reaches
## 1e-7; read off rho's populations, sz printed -1.75691758e-07 at the fourth
SATURATION_RABI = (4.40e14, 4.42e14, 4.43e14, 444033526134166.5, 4.44e14, 4.45e14, 4.46e14,
                   4.48e14)


def test_near_saturation_cells_are_correctly_rounded(rounding_scan, capsys):
    """Every cell of these sweep rows, sz included, prints the 50-digit
    reference rounded to nine digits, and steady prints the sweep's sz."""
    base = preset("gan-dot")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", model.PairChannelClosedWarning)  # past the crossing
        rows = [cli._sweep_point(base, rabi) for rabi in SATURATION_RABI]
        assert cli.main(["steady", "--preset", "gan-dot", "--rabi", "444033526134166.5"]) == 0
    lines = cli.sweep_csv(rows).splitlines()[1:]
    for rabi, line in zip(SATURATION_RABI, lines):
        assert rounding_scan.misrounded(with_rabi(base, rabi), line) == []
    assert lines[3].split(",")[1] == "-1.75691759e-07"
    assert "sz           = -1.75691759e-07\n" in capsys.readouterr().out


OVERFLOW_CFG = ("omega0 = 1e15\nomegaL = 1.00001e15\ndipole_ratio = 1\ngamma0 = 1e308\n"
                "rabi = 1e13\n")


def test_generator_overflow_is_a_numerical_failure(tmp_path, capsys):
    """Every rate is finite, but the generator overflows double precision and
    refuses where it is built: a LinAlgError, which steady and correlate
    report as exit 2 with no CSV, and which a sweep writes as a failed row."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG, encoding="utf-8")
    out = tmp_path / "x.csv"
    for argv in (["steady"], ["correlate", "--output", str(out)]):
        with pytest.warns(model.PairChannelClosedWarning):  # a RuntimeWarning escapes, and fails
            rc = cli.main([*argv, "--config", str(cfg)])
        assert rc == cli.EXIT_DEGENERATE
        assert "error: the generator overflows double precision" in capsys.readouterr().err
    assert not out.exists()
    cfg.write_text(OVERFLOW_CFG + "points = 3\n", encoding="utf-8")
    with pytest.warns(model.PairChannelClosedWarning):
        rc = cli.main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert rc == cli.EXIT_PARTIAL_SWEEP
    rows = read(out).splitlines()[1:]
    assert len(rows) == 3
    assert all(row.endswith(",nan,nan,nan,nan,nan,nan,false,nan") for row in rows)


@pytest.mark.parametrize("flags, message", [
    (["--tau-points", "0"], "error: tau-points must be >= 1 and <= 1000000"),
    (["--tau-points", "1000001"], "error: tau-points must be >= 1 and <= 1000000"),
    (["--tau-points", str(10**400)], "error: tau-points must be >= 1 and <= 1000000"),
    (["--tau-max", "nan"], "error: tau-max must be finite and > 0, got nan"),
    (["--tau-max", "0"], "error: tau-max must be finite and > 0, got 0.0"),
], ids=["tau-points", "tau-points-past-bound", "tau-points-huge", "tau-max", "tau-max-zero"])
def test_correlate_checks_its_flags_before_the_solve(tmp_path, capsys, flags, message):
    """A bad flag is named, and exits 1, even where the solve would fail on
    its own: the flags are checked before from_physical warns or the
    generator overflows, so no delay runs.  A zero horizon is refused, not
    read as the default."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG, encoding="utf-8")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the solve never starts, so nothing warns
        rc = cli.main(["correlate", "--config", str(cfg), "--output", str(out), *flags])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_correlate_takes_a_million_delays(tmp_path, capsys):
    """--tau-points 1000000 passes the flag check; the solve then fails on
    its own, so no delay runs."""
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG, encoding="utf-8")
    out = tmp_path / "x.csv"
    with pytest.warns(model.PairChannelClosedWarning):
        rc = cli.main(["correlate", "--config", str(cfg), "--output", str(out),
                       "--tau-points", "1000000"])
    assert rc == cli.EXIT_DEGENERATE
    assert "error: the generator overflows double precision" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_checks_its_default_horizon(tmp_path, capsys):
    """gamma0 = 1e-308 solves, but 10/gamma_R overflows to inf: the default
    horizon is refused by name, with gamma_R and no floating-point warning;
    the flag the user never gave is not blamed."""
    cfg = tmp_path / "faint.cfg"
    cfg.write_text("preset = gan-dot\ngamma0 = 1e-308\nrabi = 1e13\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert cli.main(["correlate", "--config", str(cfg), "--output", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: the default tau-max 10/gamma_R overflows double "
                                       "precision at gamma_R = 1e-308 1/s\n")
    assert not out.exists()


# --- correlate --------------------------------------------------------------------


def test_correlate_default_horizon(tmp_path):
    out = tmp_path / "corr.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
                   "--output", str(out)])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0] == "tau,g12,g21"
    assert len(lines) == 201
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(6.000006982939154, rel=1e-8)
    last = lines[-1].split(",")
    assert 0.99 < float(last[1]) < 1.01  # decorrelated by tau = 10/gamma_R
    assert 0.99 < float(last[2]) < 1.01


@pytest.mark.parametrize("name, rabi", [("gamma-globulin", 1e13), ("gan-dot", 1e14)])
def test_correlate_csv_bytes(name, rabi, tmp_path):
    """The file is the header, then one line of .9g cells per delay, each line
    ending in a newline: the same format as the sweep CSV."""
    out = tmp_path / "corr.csv"
    assert cli.main(["correlate", "--preset", name, "--rabi", str(rabi),
                     "--tau-points", "50", "--output", str(out)]) == 0
    eff = model.from_physical(with_rabi(preset(name), rabi))
    gen = dynamics.build_adjoint_generator(eff)
    ss = dynamics.steady_state(gen)
    taus = np.linspace(0.0, 10.0 / eff.gamma_R, 50)
    columns = (taus, correlations.g2_tau(1, 2, gen, ss, taus),
               correlations.g2_tau(2, 1, gen, ss, taus))
    expected = "tau,g12,g21\n" + "".join(
        ",".join(format(x, ".9g") for x in row) + "\n" for row in zip(*columns))
    assert out.read_bytes() == expected.encode()


def test_correlate_single_point_grid(tmp_path):
    out = tmp_path / "one.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
                   "--output", str(out), "--tau-points", "1"])
    assert rc == 0
    lines = read(out).splitlines()
    assert len(lines) == 2
    tau, g12, g21 = (float(x) for x in lines[1].split(","))
    assert tau == 0.0
    assert g12 == pytest.approx(6.000006982939154, rel=1e-8)
    assert g21 == pytest.approx(1.199999720682824, rel=1e-8)


def test_correlate_custom_tau_max(tmp_path):
    out = tmp_path / "t.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
                   "--output", str(out), "--tau-max", "1e-7", "--tau-points", "5"])
    assert rc == 0
    taus = [float(line.split(",")[0]) for line in read(out).splitlines()[1:]]
    assert taus == pytest.approx(np.linspace(0, 1e-7, 5))


def test_correlate_undriven_emitter_is_dark(tmp_path, capsys):
    out = tmp_path / "dark.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "0",
                   "--output", str(out)])
    assert rc == cli.EXIT_DEGENERATE
    assert "dark" in capsys.readouterr().err


def test_correlate_rejects_bad_grid_flags(tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
            "--output", str(out)]
    assert cli.main(base + ["--tau-points", "0"]) == cli.EXIT_CONFIG
    assert cli.main(base + ["--tau-max=-1e-9"]) == cli.EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_correlate_rejects_non_finite_tau_max(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
                   "--output", str(out), "--tau-max", bad])
    assert rc == cli.EXIT_CONFIG
    assert "tau-max must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_rejects_a_delay_that_overflows_the_propagator(tmp_path, capsys):
    """The grid is 0, 5e299, 1e300: the propagator at 5e299 overflows double
    precision, so the run fails on that delay instead of writing nan rows."""
    out = tmp_path / "x.csv"
    rc = cli.main(["correlate", "--preset", "gamma-globulin", "--rabi", "1e13",
                   "--output", str(out), "--tau-max", "1e300", "--tau-points", "3"])
    assert rc == cli.EXIT_CONFIG
    assert "t = 5e+299" in capsys.readouterr().err
    assert not out.exists()


def off_cone_cfg(tmp_path):
    """rabi/omegaL = 0.30: strong drive, and a collapsed state that leaves
    the positive cone within a few delays."""
    cfg = tmp_path / "off_cone.cfg"
    cfg.write_text(
        "omega0 = 4228507432267.1143\nomegaL = 33831139112034.574\n"
        "rabi = 10253141234189.902\ndipole_ratio = 0.17128596459608617\n"
        "gamma0 = 17592445.36897007\n", encoding="utf-8")
    return cfg


def test_correlate_exits_2_when_the_collapsed_state_leaves_the_positive_cone(
        tmp_path, capsys):
    """Unchecked, this input wrote g12 = -0.34132701 at tau = 1.7221726e-08."""
    cfg = off_cone_cfg(tmp_path)
    out = tmp_path / "x.csv"
    with pytest.warns(model.PerturbativeDriveWarning):
        rc = cli.main(["correlate", "--config", str(cfg), "--output", str(out)])
    assert rc == cli.EXIT_DEGENERATE
    assert "is not positive: lambda_min/Tr" in capsys.readouterr().err
    assert not out.exists()


# --- verify-heff ------------------------------------------------------------------


def test_verify_heff_passes(capsys):
    rc = cli.main(["verify-heff", "--preset", "gamma-globulin", "--rabi", "1e13"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "derivation check passed" in text
    for name in ("bloch_siegert", "pair_creation", "mode_displacement"):
        assert name in text


@pytest.mark.parametrize("name", ["gamma-globulin", "gan-dot"])
def test_verify_heff_passes_at_zero_drive(name, capsys):
    rc = cli.main(["verify-heff", "--preset", name, "--rabi", "0"])
    assert rc == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.endswith("derivation check passed\n")
    assert captured.err == ""


def test_verify_heff_truncation_guard(capsys):
    """N = 1 leaves no room for two excitations, and N = 65 is past the bound
    that keeps the operators small; N = 64 runs and passes."""
    for n, rc in (("1", cli.EXIT_CONFIG), ("65", cli.EXIT_CONFIG), ("64", cli.EXIT_OK)):
        assert cli.main(["verify-heff", "--preset", "gamma-globulin", "--rabi", "1e13",
                         "--mode-truncation", n]) == rc
        err = capsys.readouterr().err
        assert (f"mode truncation must be >= 2 and <= 64, got {n}" in err) is (rc != cli.EXIT_OK)


def test_verify_heff_help_and_refusal_name_one_bound(monkeypatch, capsys):
    """The truncation bound is heff's: moved there, the flag's help and the
    refusal of a truncation past it both follow."""
    monkeypatch.setattr(heff, "_MAX_TRUNCATION", 5)
    with pytest.raises(SystemExit):
        cli.main(["verify-heff", "--help"])
    assert "Fock-space cutoff N (2 to 5)" in " ".join(capsys.readouterr().out.split())
    assert cli.main(["verify-heff", "--preset", "gamma-globulin", "--rabi", "1e13",
                     "--mode-truncation", "6"]) == cli.EXIT_CONFIG
    assert "mode truncation must be >= 2 and <= 5, got 6" in capsys.readouterr().err


@pytest.mark.parametrize("field, factor, noted", [
    ("c_pump", 0.0, "pair_creation"),  # target zero, measured not
    ("c_cross", 1.05, None),  # a plain 5% deviation carries no note
])
def test_verify_heff_fails_on_a_misstated_coefficient(monkeypatch, capsys, field, factor,
                                                      noted):
    real = cli.model.from_physical

    def misstated(params):
        eff = real(params)
        return dataclasses.replace(eff, **{field: getattr(eff, field) * factor})

    monkeypatch.setattr(cli.model, "from_physical", misstated)
    rc = cli.main(["verify-heff", "--preset", "gamma-globulin", "--rabi", "1e13"])
    assert rc == cli.EXIT_DEGENERATE
    captured = capsys.readouterr()
    assert captured.err == "derivation check FAILED\n"
    lines = captured.out.splitlines()
    assert len(lines) == 3 and "derivation check passed" not in captured.out
    for line in lines:
        if line.startswith(f"{noted} "):
            assert line.endswith("  [expected exactly zero]")
        else:
            assert "[" not in line


@pytest.mark.parametrize("excess, rc", [(3e-9, cli.EXIT_OK), (3e-8, cli.EXIT_DEGENERATE)],
                         ids=["inside", "outside"])
def test_the_derivation_gate_sits_at_1e_8(monkeypatch, capsys, excess, rc):
    """c_cross misstated by 1 + 3e-9 passes and by 1 + 3e-8 fails: 3x inside
    and 3x outside verify-heff's tolerance.  The check's own deviations are
    about 4e-16, so the misstatement is what the gate sees."""
    real = cli.model.from_physical

    def misstated(params):
        eff = real(params)
        return dataclasses.replace(eff, c_cross=eff.c_cross * (1.0 + excess))

    monkeypatch.setattr(cli.model, "from_physical", misstated)
    assert cli.main(["verify-heff", "--preset", "gamma-globulin", "--rabi", "1e13"]) == rc
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("mode_displacement ")
    assert float(line.rsplit(" ", 1)[1]) == pytest.approx(excess, rel=1e-6)


# --- configuration errors ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["steady", "--preset", "nope", "--rabi", "1e12"], "unknown preset"),
        (["steady", "--rabi", "1e12"], "missing required"),
        (["steady", "--preset", "gamma-globulin", "--rabi", "6e15"],
         "second-order treatment"),
        (["steady", "--preset", "gamma-globulin", "--rabi", "fast"],
         "invalid float value"),
        (["sweep", "--preset", "gamma-globulin", "--output", "unused.csv",
          "--points", "abc"], "invalid int value"),
        (["sweep", "--preset", "gamma-globulin", "--points", "2",
          "--output", "/no/such/dir/s.csv"], "cannot write output file /no/such/dir/s.csv: "),
        (["correlate", "--preset", "gamma-globulin", "--rabi", "1e13", "--tau-points", "2",
          "--output", "/no/such/dir/c.csv"], "cannot write output file /no/such/dir/c.csv: "),
    ],
)
def test_config_errors_exit_1(argv, fragment, capsys):
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_missing_config_file_names_path(capsys):
    rc = cli.main(["steady", "--config", "/no/such/file.cfg", "--rabi", "1e12"])
    assert rc == cli.EXIT_CONFIG
    assert "/no/such/file.cfg" in capsys.readouterr().err


def test_bad_config_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = gamma-globulin\nwavelength = 5\n", encoding="utf-8")
    assert cli.main(["steady", "--config", str(cfg), "--rabi", "1e12"]) == cli.EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def test_config_file_with_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark, as some editors write one, reads as no mark."""
    text = "preset = gan-dot\nrabi = 1e13\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert cli.main(["steady", "--config", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert cli.main(["steady", "--config", str(marked)]) == 0
    assert capsys.readouterr().out == expected


def test_config_file_not_utf8_names_path(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9 drive\npreset = gan-dot\n".encode("latin-1"))
    assert cli.main(["steady", "--config", str(cfg), "--rabi", "1e13"]) == cli.EXIT_CONFIG
    assert f"cannot read config file {cfg}:" in capsys.readouterr().err


# --- module entry point --------------------------------------------------------------


def test_module_invocation(tmp_path, child_env):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thzpair.cli", "sweep", "--preset", "gamma-globulin",
         "--output", str(out), "--points", "2"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(read(out).splitlines()) == 3


def test_closed_pair_channel_warns_once_per_sweep(tmp_path, child_env):
    """18 of these 200 gan-dot points have a closed pair channel; the
    warning's message is constant, so the default filter shows it once."""
    cfg = tmp_path / "gd.cfg"
    cfg.write_text("preset = gan-dot\nomega_max = 1e15\npoints = 200\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "thzpair.cli", "sweep", "--config", str(cfg),
         "--output", str(tmp_path / "gd.csv")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("PairChannelClosedWarning") == 1
    assert "warning: PairChannelClosedWarning: pair channel closed: pair_freq <= 0\n" in proc.stderr


def test_cli_prints_a_physics_warning_as_one_line(tmp_path, child_env):
    """On the command line a warning is one `warning:` line with no package
    source line; the error that follows still sets the exit code."""
    proc = subprocess.run(
        [sys.executable, "-m", "thzpair.cli", "correlate", "--config",
         str(off_cone_cfg(tmp_path)), "--output", str(tmp_path / "x.csv")],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == cli.EXIT_DEGENERATE, proc.stderr
    assert ("warning: PerturbativeDriveWarning: rabi/omegaL > 0.25; second-order drive "
            "corrections may be inaccurate\n") in proc.stderr
    assert ".py:" not in proc.stderr


def test_module_invocation_error_path(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "thzpair.cli", "steady", "--preset", "bogus",
         "--rabi", "1e12"],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 1
    assert "unknown preset" in proc.stderr
