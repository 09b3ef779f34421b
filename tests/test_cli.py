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


def test_identical_invocations_bitwise_identical(tmp_path):
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        assert main(["fd-check", "--model", "bouncing-mass",
                     "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1]


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


def test_report_rerenders(tmp_path, capsys):
    out = tmp_path / "r"
    main(["fd-check", "--model", "bouncing-mass", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fd_check.json" in text and "max_rel_diff" in text


def test_report_missing_run_exits_2(tmp_path):
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2


def test_json_format_tables(tmp_path):
    out = tmp_path / "j"
    assert main(["simulate", "--model", "bouncing-mass", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "trajectory.json").read_text())
    assert doc["columns"][0] == "t"
    assert len(doc["rows"]) > 10
    assert not (out / "trajectory.csv").exists()
