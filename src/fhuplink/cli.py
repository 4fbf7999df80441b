"""Command-line front end: config parsing, dispatch, CSV output.

Commands mirror the library surface: single campaigns, densification
sweeps, named parameter sweeps, per-link rate curves, the closed-form
versus Monte Carlo validation suite, and synthetic topology generation.
Every CSV carries a comment header with the effective config, its hash,
and the master seed, so any run can be reproduced from its output alone.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings

import numpy as np

from .config import (ConfigError, RunConfig, build_topology, config_sha256,
                     parse_config, provenance_lines)
from .experiments import (cm_ratio_of, densification_sweep,
                          per_link_rate_curves, resolve_dr_override,
                          run_campaign, scale_to_cm, summary_row, sweep)
from .outage import run_validation
from .topology import generate_topology, save_coordinates


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header_lines, rows) -> str:
    """Comment header, the first row's keys as the column line, the rows."""
    out = [f"# {line}" if not line.startswith("#") else line
           for line in header_lines]
    out.append(",".join(rows[0]))
    for row in rows:
        out.append(",".join(_fmt(value) for value in row.values()))
    return "\n".join(out) + "\n"


def _header(command, cfg: RunConfig, extra):
    lines = [f"fhuplink {command}"]
    lines.extend(f"{key} = {val}" for key, val in extra.items())
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"config_sha256 = {config_sha256(cfg)}")
    lines.append("config:")
    lines.extend(f"  {ln}" for ln in provenance_lines(cfg))
    return lines


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    for key in ("seed", "threads"):
        name = f"FHUPLINK_{key.upper()}"
        text = os.environ.get(name)
        if text is None:
            continue
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
        if getattr(args, key, None) is None:    # options beat the environment
            try:
                cfg = cfg.replace(**{key: value})
            except ConfigError as exc:
                raise ConfigError(f"{name}={text}: {exc}") from None
    updates = {key: getattr(args, key) for key in ("seed", "threads", "trials")
               if getattr(args, key, None) is not None}
    return cfg.replace(**updates) if updates else cfg


def _list_option(args, dest, cast=float):
    """The comma-separated values of an option, or None when it is absent."""
    text = getattr(args, dest)
    if text is None:
        return None
    values = [cast(v.strip()) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"--{dest.replace('_', '-')} needs at least one "
                         f"comma-separated value, got {text!r}")
    return values


def _cm_topology(args, cfg: RunConfig, extra):
    """The run's topology, rescaled to --cm (noted in extra) when given."""
    topo = build_topology(cfg)
    if args.cm is None:
        return topo
    extra["cm"] = _fmt(args.cm)
    return scale_to_cm(topo, cfg.density_per_km2, args.cm)


def _run_command(sub, name, func, summary, trials=True,
                 out="output CSV path (stdout when omitted)"):
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--config", help="run-config file (defaults when omitted)")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--threads", type=int, help="worker process count" if trials
                   else "ignored: this command runs in one process")
    if trials:
        p.add_argument("--trials", type=int, help="trials per campaign point")
    p.add_argument("--out", help=out)
    return p


def cmd_campaign(args) -> int:
    cfg = _load_config(args)
    extra = {}
    topo = _cm_topology(args, cfg, extra)
    cm = cm_ratio_of(topo, cfg.density_per_km2)
    override = resolve_dr_override(cfg, cm, sweep_default="realized")
    stats, _ = run_campaign(topo, cfg, d_r_override=override)
    row = {**summary_row(cm, stats), "mean_interferers": stats.mean_interferers,
           "mean_denied": stats.mean_denied}
    _emit(_csv_text(_header("campaign", cfg, extra), [row]), args.out)
    return 0


def cmd_densify(args) -> int:
    cfg = _load_config(args)
    ratios = _list_option(args, "ratios") or cfg.cm_ratios
    rows = densification_sweep(build_topology(cfg), cfg, ratios)
    extra = {"ratios": ",".join(_fmt(r) for r in ratios)}
    _emit(_csv_text(_header("densify", cfg, extra), rows), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = sweep(cfg, args.axis, _list_option(args, "values", str),
                 ratios=_list_option(args, "ratios"))
    extra = {"axis": args.axis, "values": args.values}
    _emit(_csv_text(_header("sweep", cfg, extra), rows), args.out)
    return 0


def cmd_links(args) -> int:
    cfg = _load_config(args)
    extra = {"links": args.links, "beta_db": args.beta_db}
    topo = _cm_topology(args, cfg, extra)
    rows = per_link_rate_curves(topo, cfg, args.links,
                                _list_option(args, "beta_db"))
    _emit(_csv_text(_header("links", cfg, extra), rows), args.out)
    return 0


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    records, all_ok = run_validation(args.profiles, args.samples, cfg.seed,
                                     beta=cfg.beta_linear)
    n_ok = sum(r["within_4_stderr"] for r in records)
    for r in records:
        status = "ok" if r["within_4_stderr"] else "FAIL"
        print(f"profile {r['profile']:3d}: n={r['n_interferers']:2d} "
              f"m0={r['m0']} gamma0={r['gamma0']:.3e} "
              f"closed={r['eps_closed_form']:.6f} "
              f"mc={r['eps_monte_carlo']:.6f} se={r['stderr']:.2e} "
              f"{status}")
    print(f"{n_ok}/{len(records)} within 4 standard errors")
    if args.out:
        extra = {"profiles": args.profiles, "samples": args.samples}
        _emit(_csv_text(_header("validate", cfg, extra), records), args.out)
    return 0 if all_ok else 1


def cmd_gen_topo(args) -> int:
    rng = np.random.default_rng(args.seed)
    topo = generate_topology(args.kind, args.count, args.extent, rng)
    save_coordinates(args.out, topo.bs_xy,
                     comment=(f"fhuplink gen-topo kind={args.kind} "
                              f"count={args.count} extent={args.extent} "
                              f"seed={args.seed}"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fhuplink",
        description="Frequency-hopping mmWave uplink outage/ASE simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _run_command(sub, "campaign", cmd_campaign,
                     "average outage over one topology")
    p.add_argument("--cm", type=float,
                   help="rescale the topology to this BS-per-mobile ratio")

    p = _run_command(sub, "densify", cmd_densify, "sweep the BS-per-mobile ratio")
    p.add_argument("--ratios", help="comma-separated C/M ratios")

    p = _run_command(sub, "sweep", cmd_sweep, "sweep a named parameter")
    p.add_argument("--axis", required=True,
                   help="config key to sweep, or L_over_Lj (hopset over "
                        "block size)")
    p.add_argument("--values", required=True,
                   help="comma-separated values, written as in a config "
                        "file (integer keys take integers)")
    p.add_argument("--ratios", help="comma-separated C/M ratios")

    p = _run_command(sub, "links", cmd_links, "per-uplink outage vs code rate",
                     trials=False)
    p.add_argument("--links", type=int, default=8,
                   help="number of sampled uplinks")
    p.add_argument("--beta-db", default="-3,0,3,6,9", dest="beta_db",
                   help="comma-separated SINR thresholds in dB")
    p.add_argument("--cm", type=float,
                   help="rescale the topology to this BS-per-mobile ratio")

    p = _run_command(sub, "validate", cmd_validate,
                     "closed form vs Monte Carlo agreement report", trials=False,
                     out="report CSV path (no CSV when omitted)")
    p.add_argument("--profiles", type=int, default=50,
                   help="random interference profiles to check")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo samples per profile")

    p = sub.add_parser("gen-topo", help="write a synthetic BS coordinate file")
    p.add_argument("--kind", default="uniform-random",
                   choices=["uniform-random", "grid"])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--extent", type=float, required=True,
                   help="square side in km")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_topo)
    return parser


def main(argv=None) -> int:
    words = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(words) - 1, 0, -1):  # argparse reads -3,0 as an option
        if words[i - 1] in ("--ratios", "--values", "--beta-db") \
                and re.match(r"-[\d.]", words[i]):
            words[i - 1:i + 1] = [f"{words[i - 1]}={words[i]}"]
    args = build_parser().parse_args(words)
    with warnings.catch_warnings():     # a warning, like an error, is one line
        warnings.showwarning = lambda message, *_: print(
            f"fhuplink {args.command}: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ConfigError, ValueError, OSError, RuntimeError) as exc:
            print(f"fhuplink {args.command}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
