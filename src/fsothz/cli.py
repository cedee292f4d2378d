"""Command-line front end: metric sweeps and figure bundles as CSV.

Output schema (one header row, 9 significant digits, deterministic order):

    sweep_value,metric,method,value,ci_lo,ci_hi,flags

``metric`` is command:link with an optional case label, ``flags`` a
semicolon-joined token list (truncation, validity and approximation
warnings).  Exit codes: 0 success, 2 configuration error, 3 numerical
integrity failure (the failing operation is named on stderr), which
includes an analytical outage outside [0, 1], an ABER outside [0, A n0]
or a capacity that is negative or not finite; asymptotic rows are flagged
instead.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import config as cfgmod
from . import metrics_analytic as ma
from . import monte_carlo as mc
from .errors import (ConfigError, DomainError, MeijerGUnsupportedError,
                     NumericalIntegrityError)
from .figures import FIGURE_IDS, figure_jobs
from .switching import count_switch_events, evaluate_soft_trace

METHODS = ("analytical", "asymptotic", "mc", "all")
COMMANDS = ("outage", "capacity", "aber", "diversity", "trace")

CSV_HEADER = "sweep_value,metric,method,value,ci_lo,ci_hi,flags"

# decorrelates per-sweep-point RNG substreams
_POINT_SEED_STRIDE = 1_000_003

# an asymptotic outage outside [0, 1]: the SNR is below the high-SNR regime
FLAG_ASYMPTOTIC_OUT_OF_REGIME = "asymptotic-out-of-regime"
# a Monte Carlo estimate left undefined because no slot transmitted
FLAG_MC_NO_TRANSMISSION = "mc-no-transmission"
# the closed-form THz law carries the N_r-branch MRC sum as one alpha-mu
# variate, which is exact only for alpha = 2
FLAG_THZ_MRC_APPROX = "thz-mrc-approx"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _row(sweep_value, metric, method, value, ci_lo=None, ci_hi=None, flags=()):
    lo = value if ci_lo is None else ci_lo
    hi = value if ci_hi is None else ci_hi
    return (float(sweep_value), str(metric), str(method), float(value),
            float(lo), float(hi), ";".join(sorted(flags)))


def _metric_name(command: str, link: str, label: str) -> str:
    return f"{command}:{link}" + (f":{label}" if label else "")


def _check_range(command: str, name: str, value: float, sweep_value: float,
                 mod: ma.Modulation) -> None:
    """Refuse an analytical value outside its range instead of printing it."""
    if command == "outage":
        ok, span = 0.0 <= value <= 1.0, "[0, 1]"
    elif command == "capacity":
        ok, span = 0.0 <= value < math.inf, "[0, inf)"
    else:
        ok, span = 0.0 <= value <= mod.a * mod.n0, f"[0, A n0 = {mod.a * mod.n0:g}]"
    if not ok:
        raise NumericalIntegrityError(
            f"{name} = {value!r} at sweep value {sweep_value:g} lies outside {span}")


def _point_rows(cfg: cfgmod.ScenarioConfig, command: str, methods: tuple,
                links: tuple, sweep_value: float, seed: int, samples: int,
                label: str = "", capacity_variant: str = "",
                modulation: ma.Modulation = None) -> list:
    """All CSV rows for one sweep point of one job."""
    point_cfg = cfg.with_sweep_value(sweep_value) if cfg.sweep else cfg
    spec = point_cfg.system_spec()
    mod = modulation if modulation is not None else point_cfg.modulation
    thz_approx = spec.thz.alpha != 2.0 and spec.thz.n_rx > 1
    rows = []
    for link in links:
        name = _metric_name(command, link, label)
        approx = ((FLAG_THZ_MRC_APPROX,)
                  if thz_approx and "thz" in ma.LINKS[link].hops else ())
        if "analytical" in methods:
            if capacity_variant == "closed" and link in ("fso", "thz"):
                res = getattr(ma, f"capacity_{link}")(
                    spec.threshold(link), spec, closed_form_only=True)
            elif command == "aber":
                res = ma.aber_link(spec, mod, link)
            else:
                res = getattr(ma, f"{command}_link")(spec, link)
            _check_range(command, name, res.value, sweep_value, mod)
            rows.append(_row(sweep_value, name, "analytical", res.value,
                             flags=res.flags.union(approx)))
        if "asymptotic" in methods and command == "outage":
            val = ma.asymptotic_outage(spec, link)
            flags = approx + (() if 0.0 <= val <= 1.0
                              else (FLAG_ASYMPTOTIC_OUT_OF_REGIME,))
            rows.append(_row(sweep_value, name, "asymptotic", val,
                             flags=flags))
        if "mc" in methods:
            if command == "aber":
                est = mc.estimate_aber(spec, mod, samples, seed, link)
            else:
                est = getattr(mc, f"estimate_{command}")(
                    spec, samples, seed, link)
            flags = ((FLAG_MC_NO_TRANSMISSION,) if math.isnan(est.value)
                     else ())
            rows.append(_row(sweep_value, name, "mc", est.value,
                             est.ci_lo, est.ci_hi, flags))
    return rows


def _point_worker(payload) -> list:
    return _point_rows(*payload)


def _expand_methods(method: str, command: str) -> tuple:
    if method == "all":
        if command == "outage":
            return ("analytical", "asymptotic", "mc")
        return ("analytical", "mc")
    if method == "asymptotic" and command != "outage":
        raise ConfigError(
            f"the asymptotic method applies to outage only, not {command}")
    return (method,)


def _sweep_payloads(cfg, command, methods, links, seed, samples,
                    label="", capacity_variant="", modulation=None,
                    sweep_values=None):
    sweep = cfg.sweep
    if sweep_values is not None and len(sweep_values):
        values = list(sweep_values)
    elif sweep is not None:
        values = list(sweep.values())
    else:
        values = [cfg.sections["simulation"]["transmit_snr_db"]]
    payloads = []
    for i, v in enumerate(values):
        payloads.append((cfg, command, methods, links, float(v),
                         seed + _POINT_SEED_STRIDE * i, samples, label,
                         capacity_variant, modulation))
    return payloads


def _run_payloads(payloads, workers: int) -> list:
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_point_worker, payloads))
    else:
        chunks = [_point_worker(p) for p in payloads]
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def _emit(rows, out_path) -> None:
    rows = sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    lines = [CSV_HEADER]
    for sweep_value, metric, method, value, lo, hi, flags in rows:
        lines.append(",".join((_fmt(sweep_value), metric, method, _fmt(value),
                               _fmt(lo), _fmt(hi), flags)))
    text = "\n".join(lines) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_config(path_or_name: str) -> cfgmod.ScenarioConfig:
    if os.path.exists(path_or_name):
        return cfgmod.load_config(path_or_name)
    name = path_or_name.removesuffix(".ini")
    return cfgmod.load_config(cfgmod.bundled_config_path(name))


def _trace_rows(cfg: cfgmod.ScenarioConfig, seed: int, samples: int,
                rho: float) -> list:
    """Paired soft/hard switch counts over 20 seeds on identical draws."""
    spec = cfg.system_spec()
    if cfg.sections["switching"]["mode"] == "hard":
        cfg = cfg.soft(2.0)
    soft = cfg.system_spec().policy
    hard = (cfg.replaced("switching", mode="hard").system_spec()
            .policy.as_soft())
    n_slots = max(samples, mc.MIN_SAMPLES)
    rows = []
    for s in range(20):
        gf, gt = mc.sample_trace_snrs(spec, n_slots, rho, seed + s)
        for pol_name, pol in (("soft", soft), ("hard", hard)):
            counts = count_switch_events(evaluate_soft_trace(gf, gt, pol))
            rows.append(_row(seed + s, f"switch_count:{pol_name}", "mc",
                             counts.total))
            rows.append(_row(seed + s, f"link_switches:{pol_name}", "mc",
                             counts.link_switches))
            rows.append(_row(seed + s, f"outage_transitions:{pol_name}", "mc",
                             counts.outage_transitions))
    return rows


def _diversity_rows(cfg: cfgmod.ScenarioConfig) -> list:
    spec = cfg.system_spec()
    orders = ma.diversity_order(spec)
    snr = spec.transmit_snr_db
    return [_row(snr, f"diversity:{link}", "analytical",
                 getattr(orders, link))
            for link in ma.LINKS]


def _cmd_run(args) -> int:
    cfg = _resolve_config(args.config)
    if args.seed is not None:
        cfg = cfg.replaced("simulation", seed=args.seed)
    if args.samples is not None:
        cfg = cfg.replaced("simulation", samples=args.samples)
    if args.rho is not None:
        cfg = cfg.replaced("simulation", rho=args.rho)
    seed, samples = cfg.seed, cfg.samples
    if args.command == "diversity":
        rows = _diversity_rows(cfg)
    elif args.command == "trace":
        rows = _trace_rows(cfg, seed, samples, cfg.rho)
    else:
        methods = _expand_methods(args.method, args.command)
        payloads = _sweep_payloads(cfg, args.command, methods,
                                   tuple(ma.LINKS), seed, samples)
        rows = _run_payloads(payloads, args.workers)
    _emit(rows, args.out)
    return 0


def _cmd_figure(args) -> int:
    rows = []
    for job in figure_jobs(args.id):
        cfg = job.config
        if args.seed is not None:
            cfg = cfg.replaced("simulation", seed=args.seed)
        if args.samples is not None:
            cfg = cfg.replaced("simulation", samples=args.samples)
        payloads = _sweep_payloads(
            cfg, job.command, job.methods, job.links, cfg.seed, cfg.samples,
            label=job.label, capacity_variant=job.capacity_variant,
            modulation=job.modulation, sweep_values=job.sweep_values)
        rows.extend(_run_payloads(payloads, args.workers))
    _emit(rows, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsothz",
        description="Hybrid FSO/THz backhaul performance sweeps (CSV output)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="evaluate one metric over the config sweep")
    run.add_argument("command", choices=COMMANDS)
    run.add_argument("--config", default="default",
                     help="config path or bundled name (default: bundled default)")
    run.add_argument("--method", choices=METHODS, default="analytical")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--rho", type=float, default=None)
    run.add_argument("--out", default=None, help="output CSV path (default stdout)")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel sweep-point workers")
    run.set_defaults(func=_cmd_run)

    fig = sub.add_parser("figure", help="emit the CSV bundle for a figure id")
    fig.add_argument("id", choices=FIGURE_IDS)
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--samples", type=int, default=None)
    fig.add_argument("--out", default=None)
    fig.add_argument("--workers", type=int, default=1)
    fig.set_defaults(func=_cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalIntegrityError, MeijerGUnsupportedError) as exc:
        op = getattr(exc, "condition", None)
        where = f" [{op}]" if op else ""
        print(f"numerical integrity error{where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
