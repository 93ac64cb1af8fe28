"""Command-line interface: steady states, sweeps, correlations, verification.

Exit codes: 0 success, 1 configuration error, 2 numerical/physical
degeneracy (no unique steady state, dark channel, unphysical state, failed
verification), 3 sweep finished with failed grid points.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import correlations, dynamics, heff, model

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "sweep_csv", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_PARTIAL_SWEEP = 3

CSV_HEADER = "omega_rabi,sz,p2,g12,g21,cs_lhs,cs_rhs,violated,pair_freq"

# A solve that fails on its numerics or physics rather than on its input.
_DEGENERATE = (
    dynamics.DegenerateSteadyStateError,
    dynamics.NoRelaxationError,
    dynamics.PhysicalityError,
    correlations.ChannelDarkError,
)


@dataclass(frozen=True)
class SweepSpec:
    """Rabi-frequency grid over a fixed set of base parameters."""

    base: model.PhysicalParams
    omega_min: float = 1e11
    omega_max: float = 1e13
    points: int = 200
    spacing: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.omega_min) and math.isfinite(self.omega_max)):
            raise model.ConfigError("omega_min and omega_max must be finite")
        if self.spacing not in ("log", "linear"):
            raise model.ConfigError(f"spacing must be log or linear, got {self.spacing!r}")
        if self.points < 2:
            raise model.ConfigError("points must be >= 2")
        if self.omega_max <= self.omega_min:
            raise model.ConfigError("omega_max must exceed omega_min")
        if self.spacing == "log" and self.omega_min <= 0:
            raise model.ConfigError("log spacing needs omega_min > 0")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.omega_min, self.omega_max, self.points)
        return np.linspace(self.omega_min, self.omega_max, self.points)


@dataclass(frozen=True, slots=True)
class SweepRow:
    omega_rabi: float
    sz: float
    p2: float
    g12: float
    g21: float
    cs_lhs: float
    cs_rhs: float
    violated: bool
    pair_freq: float
    failed: bool = False


def _sweep_point(base: model.PhysicalParams, omega: float) -> SweepRow:
    eff = model.from_physical(model.with_rabi(base, omega))
    gen = dynamics.build_adjoint_generator(eff)
    ss = dynamics.steady_state(gen)
    rep = correlations.cauchy_schwarz(ss)
    return SweepRow(omega, ss.s_z, ss.p_excited, rep.g12, rep.g21, rep.cs_lhs, rep.cs_rhs,
                    rep.violated, float(eff.pair_freq))


def _sweep_point_guarded(base: model.PhysicalParams, omega: float) -> SweepRow:
    try:
        return _sweep_point(base, omega)
    except (ValueError, *_DEGENERATE):  # ValueError includes ConfigError and LinAlgError
        nan = float("nan")
        return SweepRow(omega, nan, nan, nan, nan, nan, nan, False, nan, failed=True)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate the grid; one row per grid point, in grid order.

    Rows are computed serially whatever ``workers`` is.  A point is a few
    hundred microseconds of small-matrix numpy that holds the interpreter
    lock, so a thread pool ran slower than serial (273 against 194 ms for the
    default 200-point grid on a 2-core machine).  ``workers`` is still
    accepted so that callers passing it keep working.
    """
    return [_sweep_point_guarded(spec.base, w) for w in spec.grid().tolist()]


def _fmt(x: float) -> str:
    return format(x, ".9g")


def sweep_csv(rows) -> str:
    """Deterministic CSV serialization, 9 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        values = map(_fmt, (r.omega_rabi, r.sz, r.p2, r.g12, r.g21, r.cs_lhs, r.cs_rhs))
        lines.append(",".join([*values, "true" if r.violated else "false", _fmt(r.pair_freq)]))
    return "\n".join(lines) + "\n"


# --- configuration assembly -------------------------------------------------


_GRID_KEYS = ("omega_min", "omega_max", "points", "spacing")  # SweepSpec keywords


def _resolve(args) -> tuple:
    """(PhysicalParams, SweepSpec keyword arguments) for a subcommand.

    Sources merge preset <- config file <- flags, later wins; the grid keys
    are split off here and only ``sweep`` uses them.
    """
    mapping: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise model.ConfigError(f"cannot read config file {args.config}: {exc}")
        mapping.update(model.parse_config(text))
    if args.preset is not None:
        mapping["preset"] = args.preset
    if getattr(args, "rabi", None) is not None:
        mapping["rabi"] = args.rabi
        mapping.pop("e0_field", None)
        mapping.pop("p12_debye", None)
    for key in ("points", "spacing"):
        if getattr(args, key, None) is not None:
            mapping[key] = getattr(args, key)
    grid = {key: mapping.pop(key) for key in _GRID_KEYS if key in mapping}
    return model.params_from_mapping(mapping), grid


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise model.ConfigError(f"cannot write output file {path}: {exc}")


# --- subcommands -------------------------------------------------------------


def cmd_steady(args) -> int:
    params, _ = _resolve(args)
    eff = model.from_physical(params)
    gen = dynamics.build_adjoint_generator(eff)
    ss = dynamics.steady_state(gen)
    print(f"omega_rabi   = {_fmt(eff.omega_rabi)}  1/s")
    print(f"sz           = {_fmt(ss.s_z)}")
    print(f"p2           = {_fmt(ss.p_excited)}")
    print(f"delta_eff    = {_fmt(eff.delta_eff)}  1/s")
    print("channel frequencies (1/s):")
    print(f"  optical    = {_fmt(eff.omega0 + eff.bs_shift)}")
    print(f"  laser      = {_fmt(eff.omegaL)}")
    print(f"  pair       = {_fmt(eff.pair_freq)}")
    print("channel rates (1/s):")
    print(f"  gamma_R    = {_fmt(eff.gamma_R)}")
    print(f"  gamma_L    = {_fmt(eff.gamma_L)}")
    print(f"  gamma_T    = {_fmt(eff.gamma_T)}")
    print(f"  pump       = {_fmt(eff.c_pump * eff.gamma_T)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    params, grid = _resolve(args)
    spec = SweepSpec(base=params, **grid)
    rows = run_sweep(spec)
    _write_text(args.output, sweep_csv(rows))
    failed = sum(r.failed for r in rows)
    if failed:
        print(f"{failed} of {len(rows)} grid points failed", file=sys.stderr)
        return EXIT_PARTIAL_SWEEP
    return EXIT_OK


def cmd_correlate(args) -> int:
    params, _ = _resolve(args)
    eff = model.from_physical(params)
    gen = dynamics.build_adjoint_generator(eff)
    ss = dynamics.steady_state(gen)
    tau_max = args.tau_max
    if tau_max is None:
        if eff.gamma_R <= 0:
            raise model.ConfigError("tau-max required when gamma_R is zero")
        tau_max = 10.0 / eff.gamma_R
    if not 0.0 < tau_max < math.inf:  # also rejects nan
        raise model.ConfigError(f"tau-max must be finite and > 0, got {tau_max}")
    if args.tau_points < 1:
        raise model.ConfigError("tau-points must be >= 1")
    taus = np.linspace(0.0, tau_max, args.tau_points)
    g12 = correlations.g2_tau(1, 2, gen, ss, taus)
    g21 = correlations.g2_tau(2, 1, gen, ss, taus)
    lines = ["tau,g12,g21"]
    for t, a, b in zip(taus, g12, g21):
        lines.append(f"{_fmt(t)},{_fmt(a)},{_fmt(b)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify_heff(args) -> int:
    params, _ = _resolve(args)
    eff = model.from_physical(params)
    if args.mode_truncation < 2:
        raise model.ConfigError("mode-truncation must be >= 2")
    report = heff.verify_derivation(params, eff, n_trunc=args.mode_truncation)
    for c in report.checks:
        line = (
            f"{c.name:18s} measured {c.measured:.12g} "
            f"target {c.target:.12g} deviation {c.deviation:.3g}"
        )
        if c.note:
            line += f"  [{c.note}]"
        print(line)
    if report.all_within(1e-8):
        print("derivation check passed")
        return EXIT_OK
    print("derivation check FAILED", file=sys.stderr)
    return EXIT_DEGENERATE


class _Parser(argparse.ArgumentParser):
    """Reports a malformed or missing flag as a ConfigError, so main exits 1
    for it like any other configuration error (argparse itself exits 2)."""

    def error(self, message):
        raise model.ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thzpair",
        description=(
            "Photon-pair emission from a driven two-level emitter with "
            "unequal permanent dipole moments: steady states, correlation "
            "functions, and a derivation self-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_rabi=True):
        p.add_argument("--preset", help="named parameter set (gamma-globulin, gan-dot)")
        p.add_argument("--config", help="key = value parameter file")
        if with_rabi:
            p.add_argument("--rabi", type=float, help="Rabi frequency (1/s)")

    p = sub.add_parser("steady", help="steady-state report for one drive strength")
    common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", help="CSV sweep over Rabi frequency")
    common(p, with_rabi=False)
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--points", type=int, help="grid points (default 200)")
    spacing = p.add_mutually_exclusive_group()
    spacing.add_argument(
        "--log", dest="spacing", action="store_const", const="log",
        help="logarithmic grid (default)",
    )
    spacing.add_argument(
        "--linear", dest="spacing", action="store_const", const="linear",
        help="linear grid",
    )
    p.set_defaults(func=cmd_sweep, spacing=None)

    p = sub.add_parser("correlate", help="two-time correlations g12/g21 vs delay")
    common(p)
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument(
        "--tau-max", type=float, help="largest delay (s); default 10/gamma_R"
    )
    p.add_argument("--tau-points", type=int, default=200, help="delay grid size")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser(
        "verify-heff",
        help="re-derive the effective coefficients on a truncated mode",
    )
    common(p)
    p.add_argument(
        "--mode-truncation", type=int, default=3, help="Fock-space cutoff N (>= 2)"
    )
    p.set_defaults(func=cmd_verify_heff)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _DEGENERATE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:  # ConfigError and any other invalid input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
