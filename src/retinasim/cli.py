"""Command-line front end.

Subcommands: ``enroll`` (measure/store a map), ``identify`` (one session
against a stored map), ``montecarlo`` (bulk trials + CSV artifacts),
``solve`` (all protocol constants for a configuration), ``pattern``
(pattern-strategy rates and the intensity optimum), ``bounds``
(stopping-time/drift/optimality bounds and the eavesdropping physics).

Exit codes: 0 accept/success, 1 reject, 2 usage error (bad flags, values or
files), 3 infeasible plan (a configuration no protocol instance satisfies).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import physics_bounds
from .alpha_map import AlphaMap, save
from .errors import ConfigError, DomainError, InfeasibleError, MapFormatError
from .harness import (
    STRATEGIES,
    RunConfig,
    _DISTRIBUTION_FIELDS,
    _require_coverage,
    _resolve_map,
    load_config,
    montecarlo,
    prepare,
    run_session,
    trial_rng,
)
from .photon_stats import gk
from .strategy_bayes import drift_bounds, optimality_lower_bound, stopping_time_bounds
from .strategy_pattern import false_positive_rate, optimize_intensity
from .subjects import Adaptive, EveContext

__all__ = [
    "main",
    "cmd_enroll",
    "cmd_identify",
    "cmd_montecarlo",
    "cmd_solve",
    "cmd_pattern",
    "cmd_bounds",
]


def _u64(text: str) -> int:
    try:
        value = int(text)
        if 0 <= value < 2**64:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")


#: Each override flag: the ``RunConfig`` field it sets and its argparse options.
_OVERRIDES = {
    "--seed": ("master_seed", dict(type=_u64, metavar="U64", help="master seed")),
    "--trials": ("trials", dict(type=int, metavar="N", help="number of trials")),
    "--strategy": (
        "strategy", dict(choices=STRATEGIES, help="identification strategy")
    ),
    "--subject": (
        "subject", dict(metavar="KIND", help="alice | eve:<strategy> | interactive")
    ),
    "--out": ("out_dir", dict(metavar="DIR", help="output directory")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retinasim",
        description="Photon-counting retinal identification: solvers and simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand takes ``--config`` and the override flags its handler reads.
    for name, handler, help_text, flags in (
        ("enroll", cmd_enroll, "generate or import a stored map", ("--seed", "--out")),
        ("identify", cmd_identify, "run one identification session",
         ("--seed", "--strategy", "--subject")),
        ("montecarlo", cmd_montecarlo, "run bulk trials and emit artifacts",
         tuple(_OVERRIDES)),
        ("solve", cmd_solve, "print all protocol constants", ()),
        ("pattern", cmd_pattern, "pattern-strategy rates and optimum", ()),
        ("bounds", cmd_bounds, "protocol bounds and physics report", ()),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="FILE", help="JSON run configuration")
        for flag in flags:
            field, options = _OVERRIDES[flag]
            p.add_argument(flag, dest=field, **options)
        p.set_defaults(handler=handler)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {
        field: value
        for field, _options in _OVERRIDES.values()
        if (value := getattr(args, field, None)) is not None
    }
    return dataclasses.replace(config, **overrides)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enroll(config: RunConfig) -> int:
    """Write the subject's map in the persistence format."""
    if config.out_dir is None:
        raise ConfigError("field 'out_dir' is required: pass --out or set it")
    alpha_map = _resolve_map(config)
    path = Path(config.out_dir) / "map.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    save(alpha_map, path)
    source = config.map_file if config.map_file else f"synthetic seed {config.map_seed}"
    print(f"enrolled map: {alpha_map.width}x{alpha_map.height} spots, "
          f"band [{alpha_map.alpha_min}, {alpha_map.alpha_max}] ({source})")
    print(f"wrote {path}")
    return 0


def _interactive_rule(context: EveContext) -> float:
    prompt = f"round {context.round_index + 1}: flash sent"
    if context.photon_count is not None:
        prompt += f" (detector count: {context.photon_count})"
    print(f"{prompt} - seen? [y/n] ", end="", flush=True)
    line = sys.stdin.readline()
    if not line:
        raise ConfigError("interactive session aborted: stdin closed")
    return 1.0 if line.strip().lower() in ("y", "yes", "1") else 0.0


def cmd_identify(config: RunConfig) -> int:
    """Run one session, trial 0 of the ``montecarlo`` run with the same
    seed; print the plan, the transcript and the decision."""
    interactive = config.subject == "interactive"
    if interactive and not STRATEGIES[config.strategy].asks_subject:
        raise ConfigError(f"strategy {config.strategy!r} asks the subject nothing, "
                          "so subject 'interactive' cannot answer it")
    context = prepare(
        dataclasses.replace(config, subject="eve:faircoin") if interactive else config
    )
    if interactive:
        context = dataclasses.replace(context, subject=Adaptive(_interactive_rule))
    print(f"strategy: {config.strategy}   subject: {config.subject}   "
          f"seed: {config.master_seed}")
    entry = STRATEGIES[config.strategy]
    print(entry.plan_line(context))
    result = run_session(context, trial_rng(config.master_seed, 0))
    print("\n".join(entry.session_lines(context, result)))
    return 0 if result.accepted else 1


def cmd_montecarlo(config: RunConfig) -> int:
    """Run the configured trials, print the aggregate, write artifacts."""
    stats, _records = montecarlo(config)
    print(f"strategy: {config.strategy}   subject: {config.subject}   "
          f"trials: {stats.n_trials}   seed: {config.master_seed}")
    print(f"accepted: {stats.accepted}   rejected: {stats.rejected}   "
          f"timed out: {stats.timed_out}")
    if stats.t_mean is not None:
        se = stats.t_stderr if stats.t_stderr is not None else 0.0
        print(f"stopping time: mean {stats.t_mean:.3f} +- {se:.3f} "
              f"(terminated trials)")
    if stats.drift_mean is not None:
        print(f"per-round drift: {stats.drift_mean:+.5f} +- "
              f"{stats.drift_stderr:.5f}")
    print(f"boundary violations: {stats.boundary_violations}")
    if config.out_dir is not None:
        print(f"artifacts written to {config.out_dir}")
    return 0


def _bounds_lines(
    config: RunConfig, alpha_map: AlphaMap, q: float, i_tilde: float
) -> list[str]:
    q_min = gk(config.k, alpha_map.alpha_min * i_tilde)
    bound_alice, bound_eve = stopping_time_bounds(q, q_min, config.p_fp, config.p_fn)
    mu_alice, mu_eve = drift_bounds(q)
    n_min = optimality_lower_bound(q, config.p_fp)
    return [
        "sequential-test bounds",
        f"  E[T | honest]   <= {bound_alice:.4f}  (ceil {math.ceil(bound_alice)})",
        f"  E[T | impostor] <= {bound_eve:.4f}  (ceil {math.ceil(bound_eve)}; "
        f"q_min={q_min:.6g})",
        f"  drift: honest >= {mu_alice:+.5f}/round, impostor <= {mu_eve:+.5f}/round",
        f"  any test with p_fp <= {config.p_fp:g} needs mean length >= {n_min}",
    ]


def _physics_lines() -> list[str]:
    model = physics_bounds.EyeThermalModel()
    d_theta = physics_bounds.temperature_resolution(model)
    thermal = physics_bounds.thermal_energy_resolution(model)
    magnetic = physics_bounds.magnetic_energy_resolution(1e-19, 1.0)
    dipole = physics_bounds.dipole_attenuation(0.01, 0.1)
    return [
        "eavesdropping physics (orders of magnitude)",
        f"  bulk heating per pulse:        {d_theta:.3e} K",
        f"  thermal detectability (hbar):  {thermal:.3e}",
        f"  magnetic detectability (hbar): {magnetic:.3e} "
        f"(1e-19 T/rtHz, 1 s)",
        f"  dipole falloff 1 cm -> 10 cm:  {dipole:.0f}x",
    ]


#: Nominal glyph size for the pattern report's bound: the reference glyph
#: "2" has 25 cells (library glyphs have 20-28; each question draws one).
NOMINAL_GLYPH_SPOTS = 25


def _pattern_lines(config: RunConfig, alpha_map: AlphaMap) -> list[str]:
    lines = ["pattern strategy"]
    menus = [(40, 6), (18, 8)]
    configured = (config.pattern_menu, config.pattern_questions)
    if configured not in menus:
        menus.append(configured)
    for m_entries, m_questions in menus:
        rate = false_positive_rate(m_entries, m_questions)
        lines.append(
            f"  menu {m_entries:>3}, {m_questions} questions: "
            f"p_fp = (1/{m_entries})^{m_questions} = {float(rate):.4e}"
        )
    lines.append(
        "  honest-failure optimum over class-edge pairs "
        f"({NOMINAL_GLYPH_SPOTS} pattern + {config.pattern_noise} noise spots, "
        f"limits {config.pattern_miss_limit}/{config.pattern_noise_limit}, "
        f"{config.pattern_questions} questions):"
    )
    if config.pattern_noise == 0:
        lines.append("    no optimum: the bound needs at least one noise spot")
        return lines
    pairs = sorted({
        (alpha_map.alpha_min, alpha_map.alpha_max),
        (alpha_map.alpha_min, config.pattern_high_min),
        (config.pattern_low_max, alpha_map.alpha_max),
        (config.pattern_low_max, config.pattern_high_min),
    })
    for alpha_low, alpha_high in pairs:
        try:
            i_star, p_fn_star = optimize_intensity(
                NOMINAL_GLYPH_SPOTS, config.pattern_noise, config.pattern_miss_limit,
                config.pattern_noise_limit, alpha_low, alpha_high, config.k,
                config.pattern_questions,
            )
            lines.append(f"    alpha=({alpha_low}, {alpha_high}): "
                         f"i_tilde* = {i_star:.1f}, p_fn* = {p_fn_star:.6e}")
        except InfeasibleError:
            lines.append(f"    alpha=({alpha_low}, {alpha_high}): "
                         f"bound vacuous over the whole intensity range")
    return lines


def _naive_line(config: RunConfig, alpha_map: AlphaMap) -> str:
    """The naive plan a run would use, or why no run could use one."""
    try:
        plan = STRATEGIES["naive"].plan(config, alpha_map)["naive_plan"]
    except (ConfigError, InfeasibleError) as exc:
        return f"  infeasible: {exc}"
    return (f"  mu = {plan.mu} spots, nu = {plan.nu} pulses/spot "
            f"(total {plan.mu * plan.nu}), window ({plan.n_l}, {plan.n_r})")


def cmd_solve(config: RunConfig) -> int:
    """Print every protocol constant for the configuration: the serial and
    naive plans are the ones a run of that strategy sizes."""
    alpha_map = _resolve_map(config)
    serial = STRATEGIES["serial"].plan(config, alpha_map)
    plan, i_tilde = serial["serial_plan"], serial["i_tilde"]
    classes = "  ".join(f"{name}={getattr(config, name)}"
                        for name in _DISTRIBUTION_FIELDS[config.distribution])
    print("\n".join([
        "operating point",
        f"  classes: {classes}  K={config.k}",
        f"  wrong-answer probability q = {plan.q:.6f}",
        f"  pulse intensity i_tilde    = {i_tilde:.4f}",
        "fixed-length test",
        f"  decision fraction w = {plan.w:.6f}, rounds N = {plan.n_rounds}",
        "per-spot counting test",
        _naive_line(config, alpha_map),
        *_bounds_lines(config, alpha_map, plan.q, i_tilde),
        *_pattern_lines(config, alpha_map),
        *_physics_lines(),
    ]))
    return 0


def cmd_pattern(config: RunConfig) -> int:
    """Print the pattern-strategy report."""
    print("\n".join(_pattern_lines(config, _resolve_map(config))))
    return 0


def cmd_bounds(config: RunConfig) -> int:
    """Print the sequential bounds and the physics report."""
    alpha_map = _resolve_map(config)
    _require_coverage(config, alpha_map)
    q, i_tilde = config.operating_point()
    print("\n".join(_bounds_lines(config, alpha_map, q, i_tilde) + _physics_lines()))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        config = _config_from_args(args)
        return args.handler(config)
    except (DomainError, MapFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
