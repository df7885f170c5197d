import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eeiwfa.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, cli
from eeiwfa.model import load_scenario


@pytest.fixture
def scenario_file(tmp_path):
    path = str(tmp_path / "scn.json")
    assert cli(["scenario", "gen", "--q", "3", "--n", "2", "--seed", "4",
                "--out", path, "--quiet"]) == EXIT_OK
    return path


def test_scenario_gen_and_show(scenario_file, capsys):
    s = load_scenario(scenario_file)
    assert s.Q == 3 and s.seed == 4
    assert cli(["scenario", "show", scenario_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "players: 3" in out and "sr(S):" in out


def test_scenario_gen_deterministic(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for path in (a, b):
        cli(["scenario", "gen", "--q", "2", "--n", "2", "--seed", "9",
             "--out", path, "--quiet"])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_br_solve_json_and_csv(tmp_path, scenario_file):
    cfg = str(tmp_path / "br.json")
    json.dump({"scenario": {"file": scenario_file}, "player": 0}, open(cfg, "w"))
    out = str(tmp_path / "br_out.json")
    assert cli(["br", "solve", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    res = json.load(open(out))
    assert {"p_hat", "p_unconstrained", "water_level", "Qbr"} <= set(res)
    out_csv = str(tmp_path / "br_out.csv")
    assert cli(["br", "solve", "--config", cfg, "--out", out_csv,
                "--format", "csv", "--quiet"]) == EXIT_OK
    header = open(out_csv).read().splitlines()[0]
    assert "p_hat" in header


def test_criteria_eval(tmp_path, scenario_file):
    cfg = str(tmp_path / "c.json")
    json.dump({"scenario": {"file": scenario_file}}, open(cfg, "w"))
    out = str(tmp_path / "crit.json")
    assert cli(["criteria", "eval", "--config", cfg, "--out", out,
                "--quiet"]) == EXIT_OK
    rep = json.load(open(out))
    assert "sr_S" in rep and "contraction_rhs_constant" in rep


def test_criteria_sweep_byte_identical(tmp_path):
    cfg = str(tmp_path / "sweep.json")
    json.dump({"Q": 2, "n": 2, "snr_db": [7.0], "sir_db": [5.0, 15.0],
               "trials": 6, "seed": 3, "channel_kind": "diagonal"},
              open(cfg, "w"))
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = str(tmp_path / name)
        assert cli(["criteria", "sweep", "--config", cfg, "--out", out,
                    "--quiet"]) == EXIT_OK
        outs.append(out)
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


def test_iwfa_run_byte_identical(tmp_path, scenario_file):
    cfg = str(tmp_path / "run.json")
    json.dump({"scenario": {"file": scenario_file},
               "schedule": {"mode": "asynchronous", "rho": 0.5, "d_max": 2},
               "max_slots": 60}, open(cfg, "w"))
    outs = []
    for name in ("t1.csv", "t2.csv"):
        out = str(tmp_path / name)
        assert cli(["iwfa", "run", "--config", cfg, "--seed", "7",
                    "--out", out, "--quiet"]) == EXIT_OK
        outs.append(out)
    assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


@pytest.mark.parametrize("config,slots", [
    ("benchmark.json", 24),
    ("benchmark_async.json", 83),
])
def test_iwfa_run_shipped_configs_slot_counts(tmp_path, capsys, config, slots):
    path = Path(__file__).resolve().parents[1] / "configs" / config
    out = str(tmp_path / "trace.csv")
    assert cli(["iwfa", "run", "--config", str(path), "--out", out]) == EXIT_OK
    assert f"converged after {slots} slots" in capsys.readouterr().out


def test_verify_lemmas_exit_codes(tmp_path):
    cfg = str(tmp_path / "lem.json")
    json.dump({
        "scenario": {"Q": 3, "n": 2, "snr_db": 7.0, "sir_db": 20.0, "seed": 2},
        "n_pairs": 40, "n_triples": 40, "sqrt_q": [2],
    }, open(cfg, "w"))
    out = str(tmp_path / "rep.json")
    assert cli(["verify", "lemmas", "--config", cfg, "--out", out,
                "--quiet"]) == EXIT_OK
    assert json.load(open(out))["passed"]


def test_verify_lemmas_failure_is_exit_2(tmp_path, monkeypatch):
    import eeiwfa.harness as harness

    monkeypatch.setitem(
        harness.LEMMA_DEFAULTS, "scenario",
        {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 20.0, "seed": 0},
    )

    def fake_report(*a, **k):
        return {"passed": False, "checks": {}, "sqrt_q": {}}

    monkeypatch.setattr(harness, "run_lemma_suite", fake_report)
    assert cli(["verify", "lemmas", "--quiet"]) == EXIT_CHECK


def test_unknown_flag_is_usage_error(capsys):
    assert cli(["iwfa", "run", "--bogus"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_config_file_is_validation_error():
    assert cli(["br", "solve", "--config", "/nonexistent.json"]) == EXIT_USAGE
    assert cli(["br", "solve"]) == EXIT_USAGE  # no scenario section


def test_console_entry_point():
    # the child finds the package where this process found it, installed or not
    import eeiwfa

    src = str(Path(eeiwfa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eeiwfa.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "scenario" in proc.stdout
