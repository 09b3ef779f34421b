import csv
import json

import numpy as np
import pytest

import hybridsens.cli as cli
from hybridsens.cli import main


def max_rel_diff(a, d):
    """max |a - d| / max(1, |d|), as the fd-check table reports it."""
    a, d = np.array(a), np.array(d)
    return float(np.max(np.abs(a - d) / np.maximum(1.0, np.abs(d))))


def test_unknown_model_exits_2(tmp_path, capsys):
    assert main(["simulate", "--model", "warp-drive", "--out", str(tmp_path)]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_unknown_cost_exits_2(tmp_path, capsys):
    code = main(["direct", "--model", "bouncing-mass", "--cost", "nope",
                 "--out", str(tmp_path)])
    assert code == 2


def test_unknown_cost_message_is_printed_as_is(tmp_path, capsys):
    # not the repr that str() of its KeyError gives
    assert main(["simulate", "--model", "bouncing-mass", "--cost", "nope",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: unknown cost 'nope' for bouncing-mass; "
                                       "available: ['height-final', 'int-vy']\n")


def test_bad_param_exits_2(tmp_path):
    assert main(["simulate", "--model", "bouncing-mass", "--params", "zz=1",
                 "--out", str(tmp_path)]) == 2
    assert main(["simulate", "--model", "bouncing-mass", "--params", "h0=abc",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["--params", "e=nan"], ["--params", "h0=inf"], ["--tf", "-1"], ["--tf", "nan"],
    ["--t0", "0.5", "--tf", "0.5"], ["--rtol", "nan"], ["--rtol", "0"],
    ["--atol=-1e-9"], ["--event-tol", "nan"],
], ids=" ".join)
def test_bad_numeric_input_exits_2(tmp_path, argv):
    # refused where it enters: --rtol nan would otherwise reject every step
    # forever, --params e=nan fail at the first bounce
    assert main(["simulate", "--model", "bouncing-mass", *argv,
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("h_rel", ["0", "-1e-6", "nan", "inf"])
def test_fd_check_bad_h_rel_exits_2(tmp_path, capsys, h_rel):
    assert main(["fd-check", "--model", "bouncing-mass", f"--h-rel={h_rel}",
                 "--out", str(tmp_path)]) == 2
    assert "h_rel must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("where", ["file", "below-file"])
def test_unusable_out_exits_2(tmp_path, capsys, command, where):
    # an --out that names a file, or a path below one, is a usage error
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken if where == "file" else taken / "sub"
    argv = [command, "--out", str(out)]
    if command == "simulate":
        argv += ["--model", "bouncing-mass"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use") and "numerical failure" not in err


def test_report_on_a_missing_tree_exits_2_and_creates_nothing(tmp_path, capsys):
    # report only reads: a missing --out is no stored run, and stays missing
    assert main(["report", "--out", str(tmp_path / "missing" / "deep")]) == 2
    assert "no stored run" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_fd_check_non_finite_gradient_exits_1(tmp_path, capsys, monkeypatch):
    # a NaN in the last parameter's FD column must survive into that row's
    # max_rel_diff and the worst value, and fail the command
    fd = cli.fd_cost_sensitivity

    def nan_in_last_column(*args, **kwargs):
        grad = fd(*args, **kwargs)
        grad[:, -1] = np.nan
        return grad

    monkeypatch.setattr(cli, "fd_cost_sensitivity", nan_in_last_column)
    assert main(["fd-check", "--model", "bouncing-mass", "--out", str(tmp_path)]) == 1
    table = json.loads((tmp_path / "fd_check.json").read_text())["table"]
    assert np.isfinite(table[0]["max_rel_diff"])
    assert np.isnan(table[-1]["max_rel_diff"])
    captured = capsys.readouterr()
    assert "worst max_rel_diff nan" in captured.out
    assert "not finite" in captured.err


def test_sticking_contact_exits_1(tmp_path, capsys):
    code = main(["simulate", "--model", "bouncing-mass", "--params", "e=0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "StickingContactError" in capsys.readouterr().err


@pytest.mark.parametrize("x0, vy0", [("0.3", "6"), ("0.5", "6.5")])
def test_pushing_tether_exits_1(tmp_path, capsys, x0, vy0):
    # the capture lands on the upper half of the disc, where holding the
    # swing would take a pushing tether (stage multipliers below zero)
    code = main(["fd-check", "--model", "pendulum", "--params", f"x0={x0}",
                 "--params", f"vy0={vy0}", "--out", str(tmp_path)])
    assert code == 1
    assert "ConstraintReleaseError" in capsys.readouterr().err


def test_start_below_the_floor_exits_1(tmp_path, capsys):
    # a mass starting under its floor used to fall through it with no event
    code = main(["simulate", "--model", "bouncing-mass", "--params", "h0=-0.1",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "InadmissibleStartError" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def run_cli_subprocess(argv, **env):
    """``python -m hybridsens.cli *argv`` in a fresh process, with the
    package's sources on its path and ``env`` added to the environment."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "hybridsens.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


def test_non_finite_right_hand_side_exits_1(tmp_path):
    # m = 1e308 overflows the weight -m g to -inf at t0, where scipy's step
    # loop would never end; it is refused before scipy probes a step with
    # it.  In a subprocess: in process, the suite's error::RuntimeWarning
    # filter raises the model's overflow warning first
    proc = run_cli_subprocess(["simulate", "--model", "pendulum", "--params", "m=1e308",
                               "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert "IntegrationError" in proc.stderr
    assert "invalid value encountered" not in proc.stderr


def test_fd_check_oracle_reuses_the_direct_run(tmp_path, monkeypatch):
    # the oracle takes the direct pass's trajectory as its nominal run and
    # simulates only the 2 p perturbed ones
    import hybridsens.oracle as oracle

    calls = []
    sim = oracle.simulate
    monkeypatch.setattr(oracle, "simulate", lambda *a, **k: calls.append(a) or sim(*a, **k))
    assert main(["fd-check", "--model", "pendulum", "--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * 3


def test_simulate_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "bouncing-mass", "--out", str(out)]) == 0
    for name in ("trajectory.csv", "events.json", "residuals.csv", "run.meta.json"):
        assert (out / name).exists()
    events = json.loads((out / "events.json").read_text())
    assert len(events) == 2
    assert events[0]["kind"] == "VelocityJumpEvent"
    meta = json.loads((out / "run.meta.json").read_text())
    assert meta["config"]["model"] == "bouncing-mass"


def test_direct_and_adjoint_outputs(tmp_path):
    out = tmp_path / "d"
    assert main(["direct", "--model", "bouncing-mass", "--cost", "int-vy",
                 "--out", str(out)]) == 0
    grad = json.loads((out / "gradient.json").read_text())
    assert "direct" in grad and len(grad["direct"][0]) == 2

    out2 = tmp_path / "a"
    assert main(["adjoint", "--model", "bouncing-mass", "--cost", "int-vy",
                 "--out", str(out2)]) == 0
    grad2 = json.loads((out2 / "gradient.json").read_text())
    assert max_rel_diff(grad2["adjoint"], grad["direct"]) <= 1e-6
    assert (out2 / "adjoint_backward.csv").exists()
    assert (out2 / "adjoint_forward.csv").exists()


def test_fd_check_bouncing_mass(tmp_path):
    out = tmp_path / "fd"
    assert main(["fd-check", "--model", "bouncing-mass", "--out", str(out)]) == 0
    table = json.loads((out / "fd_check.json").read_text())["table"]
    assert {row["parameter"] for row in table} == {"h0", "e"}
    assert max(row["max_rel_diff"] for row in table) <= 1e-5


def test_params_override(tmp_path):
    out = tmp_path / "p"
    assert main(["simulate", "--model", "bouncing-mass", "--params", "h0=2.0",
                 "--tf", "0.5", "--out", str(out)]) == 0
    events = json.loads((out / "events.json").read_text())
    # from 2 m the first impact happens at sqrt(2*2/g) ~ 0.639 s > 0.5 s
    assert len(events) == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bouncing-mass", "tf": 0.5}))
    out = tmp_path / "c"
    assert main(["simulate", "--config", str(cfg), "--tf", "1.5",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "run.meta.json").read_text())
    assert meta["config"]["tf"] == 1.5
    assert meta["events"] == 2


@pytest.mark.parametrize("doc", [
    ["bouncing-mass"],
    {"model": "bouncing-mass", "tf": None},
    {"model": ["pendulum"]},
    {"model": "bouncing-mass", "params": "h0=1.1"},
    {"model": "bouncing-mass", "format": "xml"},
], ids=["top-level-list", "tf-null", "model-list", "params-string", "format-xml"])
def test_malformed_config_file_exits_2(tmp_path, capsys, doc):
    # checked as the flags are, before anything runs or is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config file" in capsys.readouterr().err
    assert not (out / "run.meta.json").exists()


@pytest.mark.parametrize("key", ["rtoll", "event-tol"])
def test_unknown_config_key_exits_2(tmp_path, capsys, key):
    # a misspelt key used to run at the default tolerances and be recorded
    # in run.meta.json as if it had been honoured
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bouncing-mass", "tf": 0.5, key: 1e-3}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"unknown keys ['{key}']" in err
    assert ("accepted: ['model', 'cost', 't0', 'tf', 'rtol', 'atol', 'event_tol', "
            "'format', 'h_rel', 'params']") in err
    assert not out.exists()


@pytest.mark.parametrize("model", ["bouncing-mass", "pendulum"])
def test_identical_invocations_bitwise_identical(tmp_path, model):
    for cmd in ("simulate", "direct", "adjoint", "fd-check"):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / cmd / tag
            assert main([cmd, "--model", model, "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1], cmd


def test_in_process_calls_share_one_parser_and_no_parsed_state(tmp_path):
    # main() builds its parser once per process; two calls of each command
    # with different --params on top of a config file's params must each
    # write bitwise what a call in a fresh process writes, so no parsed
    # state (the --params append list above all) carries over
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bouncing-mass", "tf": 1.2, "params": ["e=0.8"]}))

    def tree(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    parsers = set()
    for cmd in ("simulate", "direct", "adjoint", "fd-check"):
        for tag, h0 in (("first", "1.1"), ("second", "0.9")):
            argv = [cmd, "--config", str(cfg), "--params", f"h0={h0}"]
            out = tmp_path / cmd / tag
            assert main([*argv, "--out", str(out)]) == 0
            parsers.add(id(cli._PARSER))
            proc = run_cli_subprocess([*argv, "--out", str(out) + "-fresh"])
            assert proc.returncode == 0, proc.stderr
            assert tree(out) == tree(tmp_path / cmd / f"{tag}-fresh"), (cmd, tag)
        params = json.loads((out / "run.meta.json").read_text())["config"]["params"]
        assert params == ["e=0.8", "h0=0.9"], cmd
    assert len(parsers) == 1


def read_csv_table(path):
    """(header, rows of floats) of a CSV table the CLI wrote."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[float(x) for x in row] for row in rows]


@pytest.mark.parametrize("model, flags, events", [
    ("bouncing-mass", ["--tf", "6", "--cost", "int-vy"], 11),
    ("pendulum", [], 1),  # one capture
    ("five-bar", ["--tf", "0.6"], 1),  # one ground contact
], ids=["bouncing-mass", "pendulum", "five-bar"])
def test_tables_hold_the_library_values(tmp_path, model, flags, events):
    # each sampled row is the library's value at the row's t, exactly, and a
    # sample at an event time reads the pre-event segment, as segment_at does;
    # the library's run is swept with no samples, so its sensitivity_at sweeps
    # each row's step again where the command sampled it in its sweep
    from hybridsens.adjoint import propagate_adjoint
    from hybridsens.direct import direct_gradient, simulate

    tables = {}
    for cmd, stem in (("simulate", "trajectory"), ("direct", "sensitivity_direct"),
                      ("adjoint", "adjoint_backward")):
        assert main([cmd, "--model", model, *flags, "--out", str(tmp_path / cmd)]) == 0
        tables[stem] = read_csv_table(tmp_path / cmd / f"{stem}.csv")
    args = cli.build_parser().parse_args(["simulate", "--model", model, *flags])
    problem, cost, rho, t_span, icfg = cli._setup(cli._effective(args))
    request = (problem.dynamics, cost, problem.events, rho, t_span, icfg)
    traj = simulate(*request)
    _, sens, _ = direct_gradient(*request)
    sol = propagate_adjoint(traj, cost)
    assert len(traj.events) == events
    assert not any(len(seg.tangent.sample_times) for seg in sens.segments)

    def sensitivity(t):
        X = sens.sensitivity_at(t)
        return np.concatenate([X.Q.ravel(), X.V.ravel(), X.Z.ravel()])

    for stem, run, field, value_at in (
            ("trajectory", traj, "dense", lambda t: np.concatenate(traj.state_at(t))),
            ("sensitivity_direct", sens, "tangent", sensitivity)):
        header, rows = tables[stem]
        times = [row[0] for row in rows]
        assert times == sorted(set(times))
        for row in rows:
            assert len(row) == len(header)
            assert row[1:] == value_at(row[0]).tolist(), (stem, row[0])
        for before, after in zip(run.segments, run.segments[1:]):
            t_eve = before.t_end
            pre = getattr(before, field).node_states[-1]
            assert not np.array_equal(pre, getattr(after, field).node_states[0])
            assert rows[times.index(t_eve)][1:] == pre.tolist(), (stem, t_eve)

    header, rows = tables["adjoint_backward"]
    assert rows == [[t] + row for t, row in zip(sol.times.tolist(), sol.series.tolist())]
    assert len(header) == len(rows[0])


@pytest.mark.parametrize("model, flags", [("pendulum", []), ("five-bar", ["--tf", "0.6"])],
                         ids=["pendulum", "five-bar"])
def test_direct_samples_its_table_inside_the_one_sweep(tmp_path, monkeypatch, model, flags):
    # the direct command's table is sampled while the sweep has each step's
    # stages in hand: it calls the dynamics' Jacobians once per tangent stage
    # of one sweep (the forward run calls none), and sweeps no step again
    from hybridsens.constrained import DaeDynamics, PenaltyDynamics
    from hybridsens.direct import simulate
    from hybridsens.model import OdeDynamics

    calls, depth = [0], [0]

    def counted(jacobians):
        def outermost(*args, **kwargs):
            calls[0] += not depth[0]
            depth[0] += 1
            try:
                return jacobians(*args, **kwargs)
            finally:
                depth[0] -= 1
        return outermost

    for cls in (PenaltyDynamics, DaeDynamics, OdeDynamics):
        monkeypatch.setattr(cls, "jacobians", counted(cls.jacobians))
    assert main(["direct", "--model", model, *flags, "--out", str(tmp_path)]) == 0
    swept = calls[0]
    args = cli.build_parser().parse_args(["direct", "--model", model, *flags])
    problem, cost, rho, t_span, icfg = cli._setup(cli._effective(args))
    traj = simulate(problem.dynamics, cost, problem.events, rho, t_span, icfg)
    # seven stages on a segment's first step, six after it (FSAL)
    assert swept == sum(6 * len(seg.dense) + 1 for seg in traj.segments) == calls[0]


def test_rtol_below_the_floor_is_reported_and_recorded_on_every_call(tmp_path, capsys):
    # the stepper's own warning shows once per process; the command reports
    # the floor on each call and records the rtol it ran with
    floor = 'Setting `rtol = np.maximum(rtol, 2.220446049250313e-14)`'
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["simulate", "--model", "bouncing-mass", "--rtol", "1e-17",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count(floor) == 1, (tag, err)
        meta = json.loads((out / "run.meta.json").read_text())
        assert meta["config"]["rtol"] == 1e-17
        assert meta["rtol_used"] == 100 * np.finfo(float).eps
    assert main(["simulate", "--model", "bouncing-mass", "--out", str(tmp_path / "default")]) == 0
    assert floor not in capsys.readouterr().err
    assert "rtol_used" not in json.loads((tmp_path / "default" / "run.meta.json").read_text())


def test_five_bar_simulate_artifacts(tmp_path):
    out = tmp_path / "fb"
    assert main(["simulate", "--model", "five-bar", "--tf", "0.6",
                 "--out", str(out)]) == 0
    for name in ("trajectory.csv", "events.json", "residuals.csv"):
        assert (out / name).exists()
    events = json.loads((out / "events.json").read_text())
    assert len(events) == 1  # first ground contact near t ~ 0.28
    assert 0.25 < events[0]["t_eve"] < 0.32
    meta = json.loads((out / "run.meta.json").read_text())
    assert meta["max_pos_residual"] <= 1e-6
    assert meta["max_vel_residual"] <= 1e-5


def test_five_bar_adjoint_cli_agreement(tmp_path):
    grads = {}
    for cmd in ("direct", "adjoint"):
        out = tmp_path / cmd
        assert main([cmd, "--model", "five-bar", "--cost", "int-vy2",
                     "--tf", "1.0", "--out", str(out)]) == 0
        grads[cmd] = json.loads((out / "gradient.json").read_text())[cmd]
    assert max_rel_diff(grads["adjoint"], grads["direct"]) <= 1e-4


def test_single_threaded_blas_gives_the_same_artifacts(tmp_path):
    # the README advises OPENBLAS_NUM_THREADS=1 when several runs share a
    # machine (scipy's OpenBLAS otherwise busy-waits a second thread); the
    # penalty form's solves must then give bitwise the same numbers
    for cmd in ("direct", "adjoint"):
        argv = [cmd, "--model", "five-bar", "--tf", "0.6"]
        assert main([*argv, "--out", str(tmp_path / cmd / "in-process")]) == 0
        proc = run_cli_subprocess([*argv, "--out", str(tmp_path / cmd / "one-thread")],
                                  OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        outs = [{p.name: p.read_bytes() for p in sorted((tmp_path / cmd / tag).iterdir())}
                for tag in ("in-process", "one-thread")]
        assert outs[0] == outs[1], cmd


def test_report_rerenders(tmp_path, capsys):
    out = tmp_path / "r"
    main(["fd-check", "--model", "bouncing-mass", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fd_check.json" in text and "max_rel_diff" in text


def test_report_missing_run_exits_2(tmp_path):
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2


def test_report_on_a_corrupt_meta_file_names_it_and_exits_2(tmp_path, capsys):
    meta = tmp_path / "run.meta.json"
    meta.write_text("{not json")
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {meta}: ")


def test_json_format_tables(tmp_path):
    out = tmp_path / "j"
    assert main(["simulate", "--model", "bouncing-mass", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) > 10
    assert not (out / "trajectory.csv").exists()
