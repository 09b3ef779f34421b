"""Command-line surface.

Subcommands: simulate, direct, adjoint, fd-check, report.  Every run writes
CSV/JSON artifacts plus a provenance sidecar carrying the full effective
configuration, so identical invocations reproduce identical files.

Exit codes: 0 success, 1 numerical failure (for fd-check also a gradient
that is not finite), 2 validation/usage failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import adjoint as adjoint_mod
from . import gallery
from .direct import direct_gradient, simulate
from .integrate import IntegratorConfig
from .oracle import DEFAULT_H_REL, check_h_rel, fd_cost_sensitivity


class CliError(Exception):
    pass


def _parse_params(pairs, rho0):
    values = rho0.rho.copy()
    labels = list(rho0.labels)
    for pair in pairs or ():
        if "=" not in pair:
            raise CliError(f"--params expects name=value, got '{pair}'")
        name, _, raw = pair.partition("=")
        if name not in labels:
            raise CliError(f"unknown parameter '{name}'; available: {labels}")
        try:
            value = float(raw)
        except ValueError as exc:
            raise CliError(f"parameter '{name}' value '{raw}' is not a number") from exc
        if not np.isfinite(value):
            raise CliError(f"parameter '{name}' value '{raw}' is not finite")
        values[labels.index(name)] = value
    return values


# config keys that the flag of the same name overrides
_FLAG_KEYS = ("model", "cost", "t0", "tf", "rtol", "atol", "event_tol", "format", "h_rel")
# every key some command reads, so that one config file serves them all
_CONFIG_KEYS = _FLAG_KEYS + ("params",)


def _load_config_file(path):
    """The JSON object in ``path``, each field checked as its flag is: model
    and cost are strings, the numeric fields numbers, params a list of
    NAME=VALUE strings and format csv or json.  A key outside _CONFIG_KEYS
    is refused rather than ignored."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must hold a JSON object, "
                       f"got a {type(cfg).__name__}")

    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise CliError(f"config file {path}: unknown keys {unknown}; "
                       f"accepted: {list(_CONFIG_KEYS)}")

    def refuse(key, what):
        raise CliError(f"config file {path}: '{key}' must be {what}, got {cfg[key]!r}")

    for key in ("model", "cost"):
        if key in cfg and not isinstance(cfg[key], str):
            refuse(key, "a string")
    for key in ("t0", "tf", "rtol", "atol", "event_tol", "h_rel"):
        # JSON true/false load as bool, which Python counts as an int
        if key in cfg and (isinstance(cfg[key], bool)
                           or not isinstance(cfg[key], (int, float))):
            refuse(key, "a number")
    params = cfg.get("params", [])
    if not (isinstance(params, list) and all(isinstance(p, str) for p in params)):
        refuse("params", "a list of NAME=VALUE strings")
    if cfg.get("format", "csv") not in ("csv", "json"):
        refuse("format", "'csv' or 'json'")
    return cfg


def _effective(args) -> dict:
    """File config overridden by explicit CLI flags."""
    cfg = _load_config_file(args.config)
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "params", None):
        cfg.setdefault("params", []).extend(args.params)
    cfg.setdefault("model", "five-bar")
    cfg.setdefault("t0", 0.0)
    cfg.setdefault("format", "csv")
    return cfg


def _setup(cfg):
    registry = gallery.register_gallery()
    name = cfg["model"]
    if name not in registry:
        raise CliError(f"unknown model '{name}'; available: {sorted(registry)}")
    problem = registry[name]()
    rho = _parse_params(cfg.get("params"), problem.rho0)
    cost = problem.cost(cfg.get("cost"))
    t0 = float(cfg.get("t0", problem.t_span[0]))
    tf = float(cfg.get("tf", problem.t_span[1]))
    if not (np.isfinite(t0) and np.isfinite(tf) and tf > t0):
        raise CliError(f"need finite t0 < tf, got t0={t0!r}, tf={tf!r}")
    icfg = IntegratorConfig(
        rtol=float(cfg.get("rtol", problem.config.rtol)),
        atol=float(cfg.get("atol", problem.config.atol)),
        event_tol=float(cfg.get("event_tol", problem.config.event_tol)),
    )
    return problem, cost, rho, (t0, tf), icfg


def _outdir(args) -> Path:
    out = Path(args.out or "runout")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc, **dump_args):
    with open(path, "w") as fh:
        json.dump(doc, fh, **dump_args)
        fh.write("\n")


def _write_sidecar(path: Path, cfg, extra=None):
    doc = {"config": cfg}
    if extra:
        doc.update(extra)
    _write_json(path, doc, indent=2, sort_keys=True)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(out: Path, stem: str, header, rows, fmt: str):
    """Write a time-series table as CSV (default) or a JSON column bundle."""
    if fmt == "json":
        doc = {"columns": list(header),
               "rows": [[float(x) for x in row] for row in rows]}
        _write_json(out / f"{stem}.json", doc)
    else:
        _write_csv(out / f"{stem}.csv", header, rows)


def _state_header(dims, nc):
    return (["t"] + [f"q{i+1}" for i in range(dims.n)]
            + [f"v{i+1}" for i in range(dims.n)]
            + [f"z{i+1}" for i in range(nc)])


def _sample_times(traj, per_segment=200):
    times = []
    for seg in traj.segments:
        times.append(np.linspace(seg.t_start, seg.t_end,
                                 max(2, int(per_segment * (seg.t_end - seg.t_start)
                                            / max(traj.tF - traj.t0, 1e-12)) + 2)))
    return np.unique(np.concatenate(times))


def _sampled_rows(traj, field):
    """Rows [t, *y(t)] at the sample times, y being each segment's flat
    ``field``: "dense", the state [q; v; z], or "tangent", [Q; V; Z] row
    by row, both in the order of the table headers.  The sorted times are
    walked alongside the segments; each t takes the first segment whose
    span holds it, as ``HybridTrajectory.segment_at`` picks it, so a sample
    at an event time keeps its pre-event row."""
    segments, k, rows = traj.segments, 0, []
    for t in _sample_times(traj).tolist():
        while t > segments[k].t_end + 1e-12:
            k += 1
        rows.append([t] + getattr(segments[k], field).evaluate(t).tolist())
    return rows


def _events_json(traj):
    return [rec.to_json_dict() for rec in traj.events]


def cmd_simulate(args):
    cfg = _effective(args)
    problem, cost, rho, t_span, icfg = _setup(cfg)
    out = _outdir(args)
    traj = simulate(problem.dynamics, cost, problem.events, rho, t_span, icfg)
    fmt = cfg.get("format", "csv")
    _write_table(out, "trajectory", _state_header(traj.dims, cost.nc),
                 _sampled_rows(traj, "dense"), fmt)
    _write_json(out / "events.json", _events_json(traj), indent=2)
    res = traj.residuals
    _write_table(out, "residuals", ["t", "pos_residual", "vel_residual"],
                 list(zip(res.times, res.pos, res.vel)), fmt)
    _write_sidecar(out / "run.meta.json", cfg, {
        "command": "simulate",
        "events": len(traj.events),
        "max_pos_residual": res.max_pos(),
        "max_vel_residual": res.max_vel(),
    })
    print(f"simulate: {len(traj.events)} events, residuals "
          f"pos<={res.max_pos():.3e} vel<={res.max_vel():.3e} -> {out}")
    return 0


def _sensitivity_header(dims, nc):
    cols = ["t"]
    cols += [f"Q{i+1}_{j+1}" for i in range(dims.n) for j in range(dims.p)]
    cols += [f"V{i+1}_{j+1}" for i in range(dims.n) for j in range(dims.p)]
    cols += [f"Z{i+1}_{j+1}" for i in range(nc) for j in range(dims.p)]
    return cols


def cmd_direct(args):
    cfg = _effective(args)
    problem, cost, rho, t_span, icfg = _setup(cfg)
    out = _outdir(args)
    grad, traj, XF = direct_gradient(problem.dynamics, cost, problem.events,
                                     rho, t_span, icfg)
    _write_table(out, "sensitivity_direct", _sensitivity_header(traj.dims, cost.nc),
                 _sampled_rows(traj, "tangent"), cfg.get("format", "csv"))
    _write_json(out / "events.json", _events_json(traj), indent=2)
    doc = {"cost": cost.name, "parameters": list(problem.rho0.labels),
           "direct": grad.tolist()}
    _write_json(out / "gradient.json", doc, indent=2)
    _write_sidecar(out / "run.meta.json", cfg, {"command": "direct"})
    print(f"direct: dpsi/drho = {grad.ravel()} -> {out}")
    return 0


def cmd_adjoint(args):
    cfg = _effective(args)
    problem, cost, rho, t_span, icfg = _setup(cfg)
    out = _outdir(args)
    traj = simulate(problem.dynamics, cost, problem.events, rho, t_span, icfg)
    sol = adjoint_mod.propagate_adjoint(traj, cost)
    dims = traj.dims
    header = (["t"] + [f"lamQ{i+1}_{j+1}" for i in range(dims.n) for j in range(cost.nc)]
              + [f"lamV{i+1}_{j+1}" for i in range(dims.n) for j in range(cost.nc)]
              + [f"lamG{i+1}_{j+1}" for i in range(dims.p) for j in range(cost.nc)])
    fmt = cfg.get("format", "csv")
    rows_back = [[t] + row for t, row in zip(sol.times.tolist(), sol.series.tolist())]
    _write_table(out, "adjoint_backward", header, rows_back, fmt)
    _write_table(out, "adjoint_forward", header, rows_back[::-1], fmt)
    doc = {"cost": cost.name, "parameters": list(problem.rho0.labels),
           "adjoint": sol.gradient.tolist()}
    _write_json(out / "gradient.json", doc, indent=2)
    _write_sidecar(out / "run.meta.json", cfg, {"command": "adjoint"})
    print(f"adjoint: dpsi/drho = {sol.gradient.ravel()} -> {out}")
    return 0


def cmd_fd_check(args):
    cfg = _effective(args)
    problem, cost, rho, t_span, icfg = _setup(cfg)
    out = _outdir(args)
    h_rel = float(cfg.get("h_rel", DEFAULT_H_REL))
    check_h_rel(h_rel)  # a bad --h-rel fails before the direct pass runs
    grad_dir, traj, _ = direct_gradient(problem.dynamics, cost, problem.events,
                                        rho, t_span, icfg)
    grad_fd = fd_cost_sensitivity(problem.dynamics, cost, problem.events,
                                  rho, t_span, icfg, h_rel=h_rel, nominal=traj)
    sol = adjoint_mod.propagate_adjoint(traj, cost)

    table = []
    for j, label in enumerate(problem.rho0.labels):
        d, a, f = grad_dir[:, j], sol.gradient[:, j], grad_fd[:, j]
        scale = np.maximum(1.0, np.abs(d))
        table.append({
            "parameter": label,
            "direct": d.tolist(),
            "adjoint": a.tolist(),
            "fd": f.tolist(),
            # np.maximum, unlike max(), keeps a NaN from either side
            "max_rel_diff": float(np.maximum(np.max(np.abs(a - d) / scale),
                                             np.max(np.abs(f - d) / scale))),
        })
    _write_json(out / "fd_check.json", {"cost": cost.name, "h_rel": h_rel, "table": table},
                indent=2)
    _write_sidecar(out / "run.meta.json", cfg, {"command": "fd-check"})
    worst = float(np.max([row["max_rel_diff"] for row in table]))
    for row in table:
        print(f"  {row['parameter']:>10}: direct={row['direct']} adjoint={row['adjoint']} "
              f"fd={row['fd']} max_rel_diff={row['max_rel_diff']:.3e}")
    print(f"fd-check: worst max_rel_diff {worst:.3e} -> {out}")
    if not np.isfinite(worst):
        print("numerical failure: a gradient is not finite", file=sys.stderr)
        return 1
    return 0


def cmd_report(args):
    out = _outdir(args)
    meta_path = out / "run.meta.json"
    if not meta_path.exists():
        raise CliError(f"no stored run at {out} (missing run.meta.json)")
    with open(meta_path) as fh:
        meta = json.load(fh)
    print(json.dumps(meta, indent=2, sort_keys=True))
    for name in ("gradient.json", "fd_check.json", "events.json"):
        path = out / name
        if path.exists():
            with open(path) as fh:
                print(f"--- {name} ---")
                print(fh.read().rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsens",
        description="Hybrid multibody simulation with direct/adjoint sensitivities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_model=True):
        if needs_model:
            sp.add_argument("--model", help="gallery model name")
            sp.add_argument("--cost", help="cost name from the model's menu")
            sp.add_argument("--config", help="JSON config file (flags override)")
            sp.add_argument("--t0", type=float)
            sp.add_argument("--tf", type=float)
            sp.add_argument("--rtol", type=float)
            sp.add_argument("--atol", type=float)
            sp.add_argument("--event-tol", type=float, dest="event_tol")
            sp.add_argument("--params", action="append", metavar="NAME=VALUE")
            sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--out", help="output directory (default runout/)")

    for name, fn in (("simulate", cmd_simulate), ("direct", cmd_direct),
                     ("adjoint", cmd_adjoint)):
        sp = sub.add_parser(name)
        add_common(sp)
        sp.set_defaults(fn=fn)
    sp = sub.add_parser("fd-check")
    add_common(sp)
    sp.add_argument("--h-rel", type=float, dest="h_rel")
    sp.set_defaults(fn=cmd_fd_check)
    sp = sub.add_parser("report")
    add_common(sp, needs_model=False)
    sp.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures: singularities, integration
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
