"""Command-line interface: steady states, sweeps, correlations, verification.

Exit codes: 0 success, 1 configuration error, 2 numerical/physical
degeneracy (no unique steady state, dark channel, unphysical state, failed
verification), 3 sweep finished with failed grid points.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import correlations, dynamics, heff, model
from .model import SweepSpec  # re-exported with the rest of the sweep API

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "sweep_csv", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERATE = 2
EXIT_PARTIAL_SWEEP = 3

# A solve that fails on its numerics or physics rather than on its input.
_DEGENERATE = (
    dynamics.DegenerateSteadyStateError,
    dynamics.PhysicalityError,
    correlations.ChannelDarkError,
    np.linalg.LinAlgError,  # a ValueError, so main must catch it before ValueError
)


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


def _solve(params: model.PhysicalParams) -> tuple:
    """(EffectiveModel, AdjointGenerator, steady BlochState) at params."""
    eff = model.from_physical(params)
    gen = dynamics.build_adjoint_generator(eff)
    return eff, gen, dynamics.steady_state(gen)


def _sweep_point(base: model.PhysicalParams, omega: float) -> SweepRow:
    try:
        eff, _, ss = _solve(model.with_rabi(base, omega))
        rep = correlations.cauchy_schwarz(ss)
    except (model.ConfigError, *_DEGENERATE):
        nan = float("nan")
        return SweepRow(omega, nan, nan, nan, nan, nan, nan, False, nan, failed=True)
    return SweepRow(omega, ss.s_z, ss.p_excited, rep.g12, rep.g21, rep.cs_lhs, rep.cs_rhs,
                    rep.violated, eff.pair_freq)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list:
    """Evaluate the grid; one row per grid point, in grid order.

    Rows are computed serially whatever ``workers`` is.  A point is a few
    hundred microseconds of small-matrix numpy that holds the interpreter
    lock, so a thread pool ran slower than serial (273 against 194 ms for the
    default 200-point grid on a 2-core machine).  ``workers`` is still
    accepted so that callers passing it keep working.
    """
    return [_sweep_point(spec.base, w) for w in spec.grid().tolist()]


def _fmt(x: float) -> str:
    return format(x, ".9g")


# The CSV columns are SweepRow's fields but ``failed``, formatted by field type.
_CELL = {"float": _fmt, "bool": lambda b: "true" if b else "false"}
_COLUMNS = [(f.name, _CELL[f.type]) for f in fields(SweepRow) if f.name != "failed"]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _csv(header: str, rows) -> str:
    """The header, then one comma-joined line of cells per row; each line ends in "\n"."""
    return "\n".join([header, *(",".join(cells) for cells in rows)]) + "\n"


def sweep_csv(rows) -> str:
    """Deterministic CSV serialization, 9 significant digits."""
    return _csv(CSV_HEADER, ([cell(getattr(r, name)) for name, cell in _COLUMNS] for r in rows))


# --- configuration assembly -------------------------------------------------


def _resolve(args) -> tuple:
    """(PhysicalParams, SweepSpec keyword arguments) for a subcommand.

    Sources merge preset <- config file <- flags, later wins; a flag counts
    when its name is a config key.  The grid keys are split off here and
    only ``sweep`` uses them.
    """
    mapping: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8-sig") as fh:  # BOM or not
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise model.ConfigError(f"cannot read config file {args.config}: {exc}")
        mapping.update(model.parse_config(text))
    flags = {k: v for k, v in vars(args).items() if k in model.CONFIG_KEYS and v is not None}
    if "rabi" in flags:  # replaces the file's field route to the drive
        mapping.pop("e0_field", None)
        mapping.pop("p12_debye", None)
    mapping.update(flags)
    grid = {f.name: mapping.pop(f.name) for f in fields(SweepSpec) if f.name in mapping}
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
    eff, _, ss = _solve(params)
    print(f"omega_rabi   = {_fmt(eff.omega_rabi)}  1/s")
    print(f"sz           = {_fmt(ss.s_z)}")
    print(f"p2           = {_fmt(ss.p_excited)}")
    print(f"delta_eff    = {_fmt(eff.delta_eff)}  1/s")
    print("channel frequencies (1/s):")
    print(f"  optical    = {_fmt(params.omega0 + eff.bs_shift)}")
    print(f"  laser      = {_fmt(params.omegaL)}")
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
    ## the flags are checked before the solve, so a bad one is named whatever the point does
    if args.tau_max is not None and not 0.0 < args.tau_max < math.inf:  # also rejects nan
        raise model.ConfigError(f"tau-max must be finite and > 0, got {args.tau_max}")
    if not 1 <= args.tau_points <= model.MAX_POINTS:
        raise model.ConfigError(f"tau-points must be >= 1 and <= {model.MAX_POINTS}")
    eff, gen, ss = _solve(params)
    tau_max = args.tau_max or 10.0 / eff.gamma_R
    if tau_max == math.inf:  # the default, where gamma_R < ~1e-307
        raise model.ConfigError(f"the default tau-max 10/gamma_R overflows double precision "
                                f"at gamma_R = {eff.gamma_R:.3g} 1/s")
    taus = np.linspace(0.0, tau_max, args.tau_points)
    g12 = correlations.g2_tau(1, 2, gen, ss, taus)
    g21 = correlations.g2_tau(2, 1, gen, ss, taus)
    _write_text(args.output, _csv("tau,g12,g21", (map(_fmt, row) for row in zip(taus, g12, g21))))
    return EXIT_OK


def cmd_verify_heff(args) -> int:
    params, _ = _resolve(args)
    eff = model.from_physical(params)
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
        p.add_argument("--preset",
                       help=f"named parameter set ({', '.join(model.preset_names())})")
        p.add_argument("--config", help="key = value parameter file")
        if with_rabi:
            p.add_argument("--rabi", type=float, help="Rabi frequency (1/s)")

    p = sub.add_parser("steady", help="steady-state report for one drive strength")
    common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("sweep", help="CSV sweep over Rabi frequency")
    common(p, with_rabi=False)
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--points", type=int, help=f"grid points (default {SweepSpec.points})")
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
        "--mode-truncation", type=int, default=3, help="Fock-space cutoff N (2 to 64)"
    )
    p.set_defaults(func=cmd_verify_heff)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    # formatwarning, not showwarning: pytest.warns and catch_warnings still record
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _DEGENERATE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:  # ConfigError and any other invalid input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
