"""Command-line front end.

Subcommands: micro (fine field run), macro (coarse model run), weak
(memoryless weak model run), reduce (convolution-product reduction trace),
compare (paired verification experiments).
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import __version__
from .convolution import ConvTerm, reduce_by_parts
from .errors import ConfigError, HolodiscError
from .forcing import SignalSpec
from .harness import (
    EXPERIMENTS,
    FineSide,
    _write_csv,
    run_macro_forced,
    run_paired,
    spec_from_dict,
)
from .macromodel import VARIANTS, ModelConfig, alternating_signs
from .microscale import SCHEMES, burgers_form, exact_steps
from .weakmodel import build_weak_model

def _parse_signal(text: str | None) -> SignalSpec:
    """A SignalSpec from inline JSON or a path to a JSON file."""
    if text is None:
        return SignalSpec(kind="constant", value=1.0)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        if not os.path.exists(text):
            raise ConfigError(
                f"forcing must be inline JSON or a JSON file path, got {text!r}"
            ) from None
        with open(text) as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("forcing JSON must be an object of SignalSpec fields")
    try:
        return SignalSpec(**data)
    except TypeError as exc:
        raise ConfigError(f"bad forcing fields: {exc}") from None


def _parse_rates(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"rates must be comma-separated numbers, got {text!r}")
    if not rates:
        raise ConfigError(f"need at least one rate in {text!r}")
    return rates


# The options micro, macro and weak share, declared once; _options applies
# a run of them in the order named.
_SHARED = {
    "alpha": click.option("--alpha", default=0.3, show_default=True),
    "eps": click.option("--eps", default=0.05, show_default=True),
    "gamma": click.option("--gamma", default=1.0, show_default=True),
    "h": click.option("--h", "H", default=float(np.pi / 2), show_default=True,
                      help="Element half-width."),
    "m": click.option("--m", default=4, show_default=True, help="Element count."),
    "dt": click.option("--dt", default=1e-3, show_default=True),
    "tend": click.option("--tend", default=10.0, show_default=True),
    "u0": click.option("--u0", default=1.0, show_default=True,
                       help="Constant initial state."),
    "scheme": click.option("--scheme", default="rk4", show_default=True,
                           type=click.Choice(SCHEMES)),
    "forcing": click.option("--forcing", default=None,
                            help="SignalSpec as inline JSON or a JSON file path."),
    "seed": click.option("--seed", default=20260819, show_default=True),
    "record_every": click.option("--record-every", default=10, show_default=True),
    "out": click.option("--out", default=None, type=click.Path(),
                        help="CSV output path."),
}


def _options(names: str):
    """Apply the shared options named (space-separated), first on top."""
    def apply(command):
        for name in reversed(names.split()):
            command = _SHARED[name](command)
        return command

    return apply


@click.group()
@click.version_option(version=__version__, prog_name="holodisc")
def main():
    """Forced multiscale dynamics and their coarse closures."""


@main.command()
@click.option("--n", default=32, show_default=True, help="Grid points.")
@click.option("--dx", default=float(np.pi / 16), show_default=True)
@_options("alpha eps dt tend u0")
@click.option("--form", default="advective", show_default=True,
              type=click.Choice(["advective", "conservative", "skew"]))
@_options("scheme")
@click.option("--profile", default="uniform", show_default=True,
              type=click.Choice(["uniform", "cos2x"]),
              help="Spatial forcing profile.")
@_options("forcing seed record_every out")
def micro(n, dx, alpha, eps, dt, tend, u0, form, scheme, profile, forcing,
          seed, record_every, out):
    """Run the fine periodic field under one forcing signal."""
    if n < 1:
        raise ConfigError(f"--n must be at least 1 grid point, got {n}")
    signal = _parse_signal(forcing)
    x = dx * np.arange(n)
    prof = np.ones(n) if profile == "uniform" else np.cos(2.0 * x)
    fine = FineSide(np.full(n, u0), prof[None], burgers_form(dx, alpha, eps, form))
    run = run_paired([signal], seed, tend, dt, scheme, fine,
                     record_every=record_every)
    times, hist = run.times, run.u
    if out:
        _write_csv(out, ",".join(["t"] + [f"u{i}" for i in range(n)]), [times, hist])
        click.echo(f"wrote {out}")
    click.echo(
        f"steps={exact_steps(tend, dt)} final_mean={np.mean(hist[-1]):.6g} "
        f"sup={np.max(np.abs(hist)):.6g}"
    )


def _mode_pattern(profile, m):
    """The (m, 3) modes a unit scalar signal drives: mode 0 on every element
    for a uniform profile, mode 1 by the element signs for an alternating
    one; refuses an odd alternating ring."""
    pattern = np.zeros((m, 3))
    if profile != "alternating":
        pattern[:, 0] = 1.0
    elif m % 2:
        raise ConfigError("alternating profile needs an even element count")
    else:
        pattern[:, 1] = alternating_signs(m)
    return pattern


def _macro_assemble(variant, profile, m):
    """Map scalar signal values to the variant's forcing object."""
    if variant == "ssm1":
        return lambda vals, t: float(vals[0])
    if variant == "lattice":
        if profile != "uniform":
            raise ConfigError("lattice runs support only the uniform profile")
        ones = np.ones(2 * m)
        return lambda vals, t: ones * vals[0]
    # Mode-coefficient variants: refuse an odd alternating ring before the run.
    pattern = _mode_pattern(profile, m)
    return lambda vals, t: pattern * vals[0]


@main.command()
@click.option("--model", "variant", default="ssm1", show_default=True,
              type=click.Choice(list(VARIANTS)))
@_options("alpha eps gamma h m dt tend u0 scheme")
@click.option("--profile", default="uniform", show_default=True,
              type=click.Choice(["uniform", "alternating"]),
              help="How the scalar signal is laid out in space "
                   "(ignored by ssm1, whose drive is already the "
                   "alternating mode's scalar).")
@_options("forcing seed record_every out")
@click.option("--dump-bank", is_flag=True, help="Append memory states to the CSV.")
def macro(variant, alpha, eps, gamma, H, m, dt, tend, u0, scheme, profile,
          forcing, seed, record_every, out, dump_bank):
    """Run a coarse model under one forcing signal."""
    signal = _parse_signal(forcing)
    cfg = ModelConfig(
        variant=variant, alpha=alpha, eps=eps, gamma=gamma, H=H, m=m,
        dt=dt, scheme=scheme,
    )
    assemble = _macro_assemble(variant, profile, m)
    times, U_hist, bank_hist, _ = run_macro_forced(
        cfg, np.full(m, u0), [signal], assemble, tend, seed,
        record_every=record_every,
    )
    if out:
        cols = [U_hist[:, j] for j in range(m)]
        names = [f"U{j}" for j in range(m)]
        if dump_bank and bank_hist.shape[1]:
            cols += [bank_hist[:, j] for j in range(bank_hist.shape[1])]
            names += [f"z{j}" for j in range(bank_hist.shape[1])]
        _write_csv(out, ",".join(["t"] + names), [times] + cols)
        click.echo(f"wrote {out}")
    click.echo(
        f"model={variant} final_mean={np.mean(U_hist[-1]):.6g} "
        f"sup={np.max(np.abs(U_hist)):.6g} memory_states={bank_hist.shape[1]}"
    )


@main.command()
@click.option("--model", "variant", default="ssm1", show_default=True,
              type=click.Choice(["ssm1", "strongquad"]))
@_options("alpha eps gamma h m dt tend u0")
@click.option("--profile", default="uniform", show_default=True,
              type=click.Choice(["uniform", "alternating"]),
              help="Mode pattern for strongquad harmonic forcing.")
@_options("forcing")
@click.option("--mode-scales", default="1,1,1", show_default=True,
              help="Per-mode intensity scales for strongquad white noise.")
@_options("seed record_every out")
@click.option("--report", is_flag=True, help="Print the drift report JSON.")
def weak(variant, alpha, eps, gamma, H, m, dt, tend, u0, profile, forcing,
         mode_scales, seed, record_every, out, report):
    """Run a weak (memoryless) coarse model under a harmonic or white-noise
    signal."""
    signal = _parse_signal(forcing)
    if signal.kind == "constant":
        raise ConfigError(
            "weak models need --forcing with a harmonic or white-noise signal"
        )
    scheme = "euler-maruyama" if signal.kind == "white-noise" else "rk4"
    cfg = ModelConfig(
        variant=variant, alpha=alpha, eps=eps, gamma=gamma, H=H, m=m,
        dt=dt, scheme=scheme, seed=seed,
    )
    pattern = (_mode_pattern(profile, m)
               if variant == "strongquad" and signal.kind == "harmonic" else None)
    scales = _parse_rates(mode_scales)
    model = build_weak_model(cfg, signal, pattern, scales)
    times, hist = model.run(np.full(m, u0), tend, record_every=record_every)
    if out:
        _write_csv(out, ",".join(["t"] + [f"U{j}" for j in range(m)]), [times, hist])
        click.echo(f"wrote {out}")
    if report:
        click.echo(json.dumps(model.drift_report(), indent=2, sort_keys=True))
    click.echo(
        f"model={variant} weak final_mean={np.mean(hist[-1]):.6g} "
        f"sup={np.max(np.abs(hist)):.6g}"
    )


@main.command()
@click.option("--coefficient", default=1.0, show_default=True)
@click.option("--left-rates", required=True,
              help="Comma-separated rates of the left factor, e.g. '1,2'.")
@click.option("--right-rates", required=True,
              help="Comma-separated rates of the right factor.")
@click.option("--left", default="rho", show_default=True,
              help="Name of the left input signal.")
@click.option("--right", default="mu", show_default=True,
              help="Name of the right input signal.")
def reduce(coefficient, left_rates, right_rates, left, right):
    """Reduce a product of iterated convolutions by parts; print the trace."""
    term = ConvTerm(
        coeff=coefficient,
        left_rates=_parse_rates(left_rates),
        right_rates=_parse_rates(right_rates),
        left=left,
        right=right,
    )
    result = reduce_by_parts(term)
    click.echo(json.dumps(result.to_dict(), indent=2))


@main.command()
@click.option("--experiment", required=True,
              type=click.Choice(sorted(EXPERIMENTS)))
@click.option("--config", default=None, type=click.Path(exists=True),
              help="JSON file of ExperimentSpec overrides.")
@click.option("--out-dir", default=None, type=click.Path(),
              help="Directory for CSV traces and the report JSON.")
def compare(experiment, config, out_dir):
    """Run a paired verification experiment and print its report."""
    overrides = None
    if config:
        with open(config) as fh:
            overrides = json.load(fh)
    spec = spec_from_dict(experiment, overrides)
    report = EXPERIMENTS[experiment](spec, out_dir)
    click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True, default=str))
    if not report.passed:
        sys.exit(1)


def entry():
    """Console entry point: package errors exit with code 2, not a traceback."""
    try:
        main(standalone_mode=True)
    except HolodiscError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    entry()
