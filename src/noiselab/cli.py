"""Command-line front end.

Subcommands: schedule (gamma/logSNR table), train, sample, sweep,
oracle-curve. Exit codes: 0 success, 1 bad configuration or flags,
2 runtime failure, 3 threshold violation under --check.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import Config, ConfigError, parse_config, write_config
from .core import NonFiniteError
from .datasets import make_dataset
from .denoiser import load_params, save_params
from .io import (
    tile_images,
    write_loss_csv,
    write_pgm,
    write_samples_csv,
    write_sweep_csv,
    write_sweep_errors_csv,
)
from .metrics import redundancy_curve
from .sampler import generate
from .schedules import gamma, log_snr, parse_schedule
from .sweep import check_sweep, run_sweep
from .training import TrainingDiverged, train

_OK, _CONFIG_ERROR, _RUNTIME_ERROR, _CHECK_FAILED = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    """Flag mistakes are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="noiselab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schedule", help="print a t,gamma,logsnr table")
    sp.add_argument("--spec", required=True,
                    help="schedule string, e.g. linear or cosine:0.2,1,1")
    sp.add_argument("--scale", type=float, default=1.0, help="input scale b")
    sp.add_argument("--points", type=int, default=11, help="grid size over [0, 1]")
    sp.add_argument("--out-dir", default=None, help="write schedule.csv here instead of stdout")

    tp = sub.add_parser("train", help="fit a denoiser from a config file")
    tp.add_argument("--config", required=True)
    tp.add_argument("--out-dir", required=True)
    tp.add_argument("--seed", type=int, default=None, help="override [train] seed")

    sa = sub.add_parser("sample", help="draw samples from a checkpoint")
    sa.add_argument("--config", required=True)
    sa.add_argument("--checkpoint", required=True)
    sa.add_argument("--n", type=int, default=1000, help="sample count")
    sa.add_argument("--out-dir", required=True)
    sa.add_argument("--seed", type=int, default=None, help="override [sampler] seed")

    sw = sub.add_parser("sweep", help="run a (schedule, scale) grid")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--seed", type=int, default=None, help="override [sweep] base_seed")
    sw.add_argument("--check", type=float, default=None,
                    help="exit 3 if any cell metric exceeds this value")

    oc = sub.add_parser("oracle-curve", help="dump exact denoising MSE over (gamma, rho)")
    oc.add_argument("--dim", type=int, default=32)
    oc.add_argument("--rhos", default="0 0.25 0.5 0.75 0.9 0.99",
                    help="whitespace-separated AR(1) correlations")
    oc.add_argument("--gammas", default="0.1 0.3 0.5 0.7 0.9",
                    help="whitespace-separated gamma values")
    oc.add_argument("--scale", type=float, default=1.0, help="input scale b")
    oc.add_argument("--out-dir", default=None, help="write redundancy.csv here instead of stdout")
    return p


def _ensure_dir(path_str: str) -> Path:
    path = Path(path_str)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(out_dir, filename: str, lines, stdout) -> None:
    text = "\n".join(lines) + "\n"
    if out_dir is None:
        stdout.write(text)
    else:
        (_ensure_dir(out_dir) / filename).write_text(text, encoding="ascii")


def _cmd_schedule(args, stdout) -> int:
    try:
        spec = parse_schedule(args.spec)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    if not 0.0 < args.scale <= 1.0:
        raise ConfigError(f"--scale must lie in (0, 1], got {args.scale}")
    ts = np.linspace(0.0, 1.0, args.points)
    gs = gamma(spec, ts)
    lines = ["t,gamma,logsnr"]
    for t, g in zip(ts, gs):
        # logSNR is +inf at gamma = 1 (the t = 0 endpoint)
        snr = float("inf") if g >= 1.0 else float(log_snr(spec, float(t), args.scale))
        lines.append(f"{float(t)!r},{float(g)!r},{snr!r}")
    _emit(args.out_dir, "schedule.csv", lines, stdout)
    return _OK


def _require(cfg: Config, section: str):
    value = getattr(cfg, section)
    if value is None:
        raise ConfigError(f"missing [{section}] section")
    return value


def _with_seed(settings, name: str, seed):
    """settings with the field ``name`` set from --seed; a bad value is a flag error."""
    if seed is None:
        return settings
    try:
        return replace(settings, **{name: seed})
    except ValueError as e:
        raise ConfigError(f"--seed: {e}") from None


def _cmd_train(args, stdout) -> int:
    cfg = parse_config(args.config)
    dspec = _require(cfg, "dataset")
    compound = _require(cfg, "compound")
    tcfg = _with_seed(_require(cfg, "train"), "seed", args.seed)

    out = _ensure_dir(args.out_dir)
    data = make_dataset(dspec)
    arch = cfg.net.build_arch(data.shape[1])
    params, ema, history = train(data, arch, compound, tcfg)

    save_params(out / "params.bin", params)
    save_params(out / "ema.bin", ema)
    write_loss_csv(out / "loss.csv", history)
    write_config(out / "config.txt", replace(cfg, train=tcfg))
    final = f"; final batch loss {history[-1][1]:.6g}" if history else ""
    stdout.write(f"trained {tcfg.steps} steps{final}\n")
    return _OK


def _cmd_sample(args, stdout) -> int:
    cfg = parse_config(args.config)
    dspec = _require(cfg, "dataset")
    compound = _require(cfg, "compound")
    scfg = _with_seed(_require(cfg, "sampler"), "seed", args.seed)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, got {args.n}")

    params = load_params(args.checkpoint)
    if params.arch.in_dim != dspec.data_dim:
        raise ConfigError(
            f"checkpoint {args.checkpoint} has in_dim {params.arch.in_dim}, "
            f"but [dataset] has data_dim {dspec.data_dim}"
        )
    out = _ensure_dir(args.out_dir)
    samples = generate(params, compound, scfg, args.n)
    if dspec.kind == "toy_image":
        side = int(round(math.sqrt(samples.shape[1])))
        write_pgm(out / "samples.pgm", tile_images(samples, side))
        written = "samples.pgm"
    else:
        write_samples_csv(out / "samples.csv", samples)
        written = "samples.csv"
    write_config(out / "config.txt", replace(cfg, sampler=scfg))
    stdout.write(f"wrote {samples.shape[0]} samples to {out / written}\n")
    return _OK


def _cmd_sweep(args, stdout) -> int:
    cfg = parse_config(args.config)
    if cfg.sweep is not None:
        cfg = replace(cfg, sweep=_with_seed(cfg.sweep, "base_seed", args.seed))
    check_sweep(cfg)  # before the out dir exists, so a bad config leaves nothing behind

    out = _ensure_dir(args.out_dir)
    result = run_sweep(cfg)
    write_sweep_csv(out / "sweep.csv", result.rows)
    write_config(out / "config.txt", cfg)
    errors = out / "sweep_errors.csv"
    if result.ok:
        errors.unlink(missing_ok=True)  # left by an earlier run into this directory
    else:
        write_sweep_errors_csv(errors, result.rows)
    for row in result.rows:
        if row.status != 0:
            stdout.write(f"cell ({row.schedule}, {row.scale}) failed: {row.error}\n")
    stdout.write(
        f"{len(result.rows)} cells, {result.n_failed} failed; wrote {out / 'sweep.csv'}\n"
    )
    if not result.ok:
        stdout.write(f"wrote the failed cells to {errors}\n")
        return _RUNTIME_ERROR
    if args.check is not None:
        worst = max(row.metric for row in result.rows)
        if worst > args.check:
            stdout.write(f"check failed: worst {result.metric_name} {worst!r} > {args.check!r}\n")
            return _CHECK_FAILED
        stdout.write(f"check passed: worst {result.metric_name} {worst!r} <= {args.check!r}\n")
    return _OK


def _parse_float_list(raw: str, flag: str):
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ConfigError(f"{flag} expects whitespace-separated numbers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def _cmd_oracle_curve(args, stdout) -> int:
    rhos = _parse_float_list(args.rhos, "--rhos")
    gammas = _parse_float_list(args.gammas, "--gammas")
    if args.dim < 1:
        raise ConfigError(f"--dim must be >= 1, got {args.dim}")
    try:
        table = redundancy_curve(rhos, gammas, args.dim, scale=args.scale)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    lines = ["gamma,rho,mse"]
    for i, g in enumerate(gammas):
        for j, r in enumerate(rhos):
            lines.append(f"{float(g)!r},{float(r)!r},{float(table[i, j])!r}")
    _emit(args.out_dir, "redundancy.csv", lines, stdout)
    return _OK


_COMMANDS = {
    "schedule": _cmd_schedule,
    "train": _cmd_train,
    "sample": _cmd_sample,
    "sweep": _cmd_sweep,
    "oracle-curve": _cmd_oracle_curve,
}


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, stdout)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return _CONFIG_ERROR
    except (TrainingDiverged, NonFiniteError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _RUNTIME_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
