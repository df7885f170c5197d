import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eeiwfa import harness
from eeiwfa.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, cli
from eeiwfa.model import load_scenario, save_scenario, scenario_from_matrices


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
    header, values = csv.reader(open(out_csv, newline=""))
    assert "p_hat" in header and len(values) == len(header)
    assert json.loads(values[header.index("Qbr")]) == res["Qbr"]


def test_criteria_eval(tmp_path, scenario_file):
    cfg = str(tmp_path / "c.json")
    json.dump({"scenario": {"file": scenario_file}}, open(cfg, "w"))
    out = str(tmp_path / "crit.json")
    assert cli(["criteria", "eval", "--config", cfg, "--out", out,
                "--quiet"]) == EXIT_OK
    rep = json.load(open(out))
    assert "sr_S" in rep and "contraction_rhs_constant" in rep
    out_csv = str(tmp_path / "crit.csv")
    assert cli(["criteria", "eval", "--config", cfg, "--out", out_csv,
                "--format", "csv", "--quiet"]) == EXIT_OK
    header, values = csv.reader(open(out_csv, newline=""))
    assert set(header) == set(rep) and len(values) == len(header)
    assert json.loads(values[header.index("perron_w")]) == rep["perron_w"]


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
    monkeypatch.setitem(
        harness.LEMMA_DEFAULTS, "scenario",
        {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 20.0, "seed": 0},
    )

    def fake_report(*a, **k):
        return {"passed": False, "checks": {}, "sqrt_q": {}}

    monkeypatch.setattr(harness, "run_lemma_suite", fake_report)
    assert cli(["verify", "lemmas", "--quiet"]) == EXIT_CHECK


@pytest.mark.parametrize("argv", [
    "iwfa run --bogus",
    # each subcommand takes only the flags it reads
    "scenario gen --config nope.json",
    "scenario gen --format json",
    "scenario show {scn} --config nope.json",
    "scenario show {scn} --seed 1",
    "scenario show {scn} --out shown.txt",
    "scenario show {scn} --format json",
    "criteria sweep --config {sweep} --format csv",
    "iwfa run --config {iwfa} --format csv",
])
def test_unknown_flag_is_usage_error(tmp_path, scenario_file, capsys, monkeypatch, argv):
    # valid configs and a scratch directory, so the flag is all that is wrong
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(harness.OUT_DIR_ENV, raising=False)
    json.dump({**_SWEEP, "trials": 2}, open("sweep.json", "w"))
    json.dump({"scenario": {"file": scenario_file}, "max_slots": 3}, open("iwfa.json", "w"))
    args = argv.format(scn=scenario_file, sweep="sweep.json", iwfa="iwfa.json").split()
    assert cli([*args, "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage" in err.lower()


@pytest.mark.parametrize("dinkelbach", [
    {"epsilon": float("nan")},
    {"epsilon": float("inf")},
    {"max_iters": float("nan")},
])
def test_non_finite_dinkelbach_config_is_validation_error(
        tmp_path, scenario_file, capsys, dinkelbach):
    # json writes NaN and Infinity, and the CLI's json.load reads them back
    cfg = str(tmp_path / "br.json")
    json.dump({"scenario": {"file": scenario_file}, "player": 0,
               "dinkelbach": dinkelbach}, open(cfg, "w"))
    assert cli(["br", "solve", "--config", cfg, "--quiet"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_config_file_is_validation_error(tmp_path, scenario_file, capsys):
    assert cli(["br", "solve", "--config", "/nonexistent.json"]) == EXIT_USAGE
    assert cli(["br", "solve"]) == EXIT_USAGE  # no scenario section
    # a directory where a file is expected: the config, a scenario file, --out
    assert cli(["br", "solve", "--config", str(tmp_path)]) == EXIT_USAGE
    assert _run(tmp_path, "br solve", {"scenario": {"file": str(tmp_path)}}) == EXIT_USAGE
    cfg = str(tmp_path / "br.json")
    json.dump({"scenario": {"file": scenario_file}}, open(cfg, "w"))
    assert cli(["br", "solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all(line.startswith("error: ") for line in err)


def _child(*args):
    """Run a fresh interpreter that finds the package where this process
    found it, installed or not."""
    import eeiwfa

    src = str(Path(eeiwfa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = _child("-m", "eeiwfa.cli", "--help")
    assert proc.returncode == 0
    assert "scenario" in proc.stdout


def test_cli_needs_numpy_only():
    proc = _child("-c", "import sys, eeiwfa.cli; print(*sys.modules)")
    assert proc.returncode == 0
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "numpy" in loaded
    assert not loaded & {"scipy", "numba", "hypothesis"}


def _run(tmp_path, command, cfg, quiet=True):
    path = str(tmp_path / "cfg.json")
    json.dump(cfg, open(path, "w"))
    return cli([*command.split(), "--config", path, "--out", str(tmp_path / "out"),
                *(["--quiet"] if quiet else [])])


NAN = float("nan")
INF = float("inf")
_SCN = {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 10.0, "seed": 0}
_SWEEP = {"Q": 2, "n": 2, "snr_db": [5.0], "sir_db": [10.0]}
_LEMMAS = {"scenario": _SCN, "n_pairs": 2, "n_triples": 2, "sqrt_q": [2]}


@pytest.mark.parametrize("command,section", [
    ("br solve", {"dinkelbach": {"init": "current"}}),
    ("iwfa run", {"max_slots": 3, "dinkelbach": {"epsilon": 1e-9, "bogus": 1}}),
    ("criteria eval", {"smoothness": {"n_pairs": 2, "dinkelbach": {"init": "uniform"}}}),
    ("iwfa run", {"max_slot": 3}),
    ("br solve", {"scenario": {**_SCN, "chanel_kind": "full"}}),
    ("iwfa run", {"max_slots": 3, "schedule": {"mode": "asynchronous", "dmax": 2}}),
    ("br solve", {"playr": 1}),
    ("br solve", {"profile_fraction": 2.0}),
    ("criteria eval", {"variant": "sampled", "n_sample": 3}),
    ("verify lemmas", {**_LEMMAS, "scenario": {**_SCN, "sed": 1}}),
])
def test_unknown_config_key_is_validation_error(tmp_path, scenario_file, capsys,
                                                command, section):
    cfg = {"scenario": {"file": scenario_file}, **section}
    assert _run(tmp_path, command, cfg) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown key" in err


@pytest.mark.parametrize("command,cfg,message", [
    ("br solve", {"scenario": _SCN, "player": NAN}, "player must be an integer"),
    ("br solve", {"scenario": {**_SCN, "seed": NAN}}, "seed must be an integer"),
    ("br solve", {"scenario": {**_SCN, "seed": 2.5}}, "seed must be an integer"),
    ("br solve", {"scenario": {**_SCN, "Q": 2.5}}, "Q must be an integer"),
    ("criteria eval", {"scenario": _SCN, "smoothness": {"n_pairs": NAN}},
     "n_pairs must be an integer"),
    ("criteria eval", {"scenario": _SCN, "variant": "sampled", "n_samples": NAN},
     "n_samples must be an integer"),
    ("criteria sweep", {**_SWEEP, "trials": NAN}, "trials must be an integer"),
    ("criteria sweep", {**_SWEEP, "trials": 2.5}, "trials must be an integer"),
    ("criteria sweep", {**_SWEEP, "trials": 2, "Q": NAN}, "Q must be an integer"),
    ("criteria sweep", {**_SWEEP, "trails": 2}, "unknown key(s) in sweep config: trails"),
    ("verify lemmas", {**_LEMMAS, "n_pairs": NAN}, "n_pairs must be an integer"),
    ("verify lemmas", {**_LEMMAS, "n_pairs": 2.5}, "n_pairs must be an integer"),
    ("verify lemmas", {**_LEMMAS, "slack": NAN}, "slack must be a number"),
    ("iwfa run", {"scenario": _SCN, "max_slots": 3, "schedule": 3},
     "config section 'schedule' must be an object"),
    ("br solve", {"scenario": 5}, "config section 'scenario' must be an object"),
    ("br solve", {"scenario": {**_SCN, "snr_db": "x"}}, "snr_db must be a number"),
    ("br solve", {"scenario": {**_SCN, "power": "x"}}, "power must be a number"),
    ("br solve", {"scenario": {"file": ["a"]}}, "scenario file must be a path"),
    ("iwfa run", {"scenario": _SCN, "max_slots": 3,
                  "schedule": {"mode": "asynchronous", "rho": "x"}},
     "rho must be a number"),
    ("criteria sweep", {**_SWEEP, "snr_db": 5.0}, "snr_db in sweep config must be a list"),
    ("criteria sweep", {**_SWEEP, "snr_db": ["x"]}, "snr_db must be a number"),
    ("verify lemmas", {**_LEMMAS, "sqrt_q": 3}, "sqrt_q in lemma config must be a list"),
    # 10^(x/10) underflows to 0 or overflows
    ("br solve", {"scenario": {**_SCN, "snr_db": -INF}}, "snr_db = -inf is too low"),
    ("br solve", {"scenario": {**_SCN, "snr_db": -4000.0}}, "snr_db = -4000.0 is too low"),
    ("br solve", {"scenario": {**_SCN, "sir_db": -INF}}, "sir_db = -inf is too low"),
    ("br solve", {"scenario": {**_SCN, "sir_db": -4000.0}}, "sir_db = -4000.0 is too low"),
    # a noise variance of 0 is named, not left to the Rn check
    ("br solve", {"scenario": {**_SCN, "snr_db": 4000.0}},
     "snr_db = 4000.0 is too high: the noise variance it sets is 0"),
    ("br solve", {"scenario": {**_SCN, "snr_db": INF}}, "snr_db = inf is too high"),
    # bool is a numbers.Real in Python, so JSON true would otherwise pass as 1
    ("br solve", {"scenario": _SCN, "dinkelbach": {"epsilon": True}},
     "epsilon must be finite and positive"),
    ("br solve", {"scenario": _SCN, "player": False}, "player must be an integer"),
    ("br solve", {"scenario": {**_SCN, "power": True}}, "power must be a number"),
    ("criteria sweep", {**_SWEEP, "trials": True}, "trials must be an integer"),
    ("criteria sweep", {**_SWEEP, "snr_db": [True]}, "snr_db must be a number"),
    ("criteria eval", {"scenario": _SCN, "smoothness": {"perturbation": True}},
     "perturbation must lie in [0, 1]"),
    ("iwfa run", {"scenario": {**_SCN, "n": True}, "max_slots": 3}, "n must be an integer"),
    ("iwfa run", {"scenario": _SCN, "max_slots": True}, "max_slots must be an integer"),
    ("iwfa run", {"scenario": _SCN, "max_slots": 3,
                  "schedule": {"mode": "asynchronous", "rho": True}}, "rho must be a number"),
    # numpy would read [true, 0.5] as [1.0, 0.5]
    ("iwfa run", {"scenario": _SCN, "max_slots": 3,
                  "schedule": {"mode": "asynchronous", "rho": [True, 0.5]}},
     "rho must be a number"),
    ("criteria sweep", {**_SWEEP, "snr_db": []}, "sweep needs non-empty SNR and SIR grids"),
    ("br solve", {"scenario": {**_SCN, "channel_kind": "dense"}}, "channel_kind must be one of"),
    ("br solve", {"scenario": {**_SCN, "snr_convention": "peak"}},
     "snr_convention must be one of"),
])
def test_bad_config_numbers_and_keys_are_validation_errors(tmp_path, capsys, command,
                                                           cfg, message):
    assert _run(tmp_path, command, cfg) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_criteria_eval_smoothness_dinkelbach_section(tmp_path, scenario_file):
    cfg = {"scenario": {"file": scenario_file},
           "smoothness": {"n_pairs": 4, "dinkelbach": {"epsilon": 1e-8, "max_iters": 50}}}
    assert _run(tmp_path, "criteria eval", cfg) == EXIT_OK
    rep = json.load(open(tmp_path / "out"))
    assert rep["power_smoothness"]["n_pairs"] + rep["power_smoothness"]["n_skipped"] > 0


@pytest.mark.parametrize("settings", [
    {"max_slots": float("nan")},
    {"max_slots": 2.5},
    {"residual_tol": float("nan")},
    {"ne_every": float("nan")},
    {"thin": float("nan")},
    {"thin": 0},
    {"schedule": {"mode": "asynchronous", "rho": 0.5, "d_max": float("nan")}},
    {"seed": float("nan")},
])
def test_iwfa_run_rejects_non_finite_numbers(tmp_path, scenario_file, capsys, monkeypatch,
                                             settings):
    if "thin" in settings:
        # thin is checked with the rest of the config, before any slot runs
        def no_run(*args, **kwargs):
            raise AssertionError("run_iwfa called with a bad thin")

        monkeypatch.setattr(harness, "run_iwfa", no_run)
    cfg = {"scenario": {"file": scenario_file}, "max_slots": 3, **settings}
    assert _run(tmp_path, "iwfa run", cfg) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# The full JSON report of a tiny sampled-variant evaluation with a smoothness
# section, as the per-player frame-simplex draws and the per-pair Dinkelbach
# loop computed it: a change in either sampling rule's draws or stream order,
# or in how the sampled pairs are evaluated, shows here.
GOLDEN_EVAL_CONFIG = {"scenario": {"Q": 3, "n": 2, "snr_db": 5.0, "sir_db": 0.0, "seed": 2},
                      "variant": "sampled", "n_samples": 20, "smoothness": {"n_pairs": 20}}
GOLDEN_EVAL = {
    "contraction_rhs_constant": -10.835503360851193,
    "interference_ok_contraction": False,
    "interference_ok_qvi": False,
    "perron_degenerate": False,
    "perron_w": [0.06443487132889333, 0.8304890620243618, 0.5532956399744398],
    "power_smoothness": {"max_ratio_l2": 1.0338797491315455,
                         "max_ratio_weighted_inf": 0.6217534993483563,
                         "n_pairs": 20, "n_skipped": 0},
    "qvi_rhs_constant": -0.6387048183354217,
    "sigma_max_IplusS": 20.69689666292919,
    "sr_S": 11.835503360851193,
    "sr_Ssym": 14.219207623203184,
    "variant": "sampled-columnrank",
}


def test_criteria_eval_sampled_golden_report(tmp_path):
    assert _run(tmp_path, "criteria eval", GOLDEN_EVAL_CONFIG) == EXIT_OK
    assert json.load(open(tmp_path / "out")) == GOLDEN_EVAL


# --- malformed scenario documents -------------------------------------------------

@pytest.mark.parametrize("field,value,message", [
    ("H", None, "H[0][1] is not a matrix of [re, im] pairs"),   # a ragged row
    ("nT", [2.7, 2], "nT must hold Q positive antenna counts"),
    ("Q", True, "Q must be an integer >= 1"),
    ("nR", [True, 2], "nR must hold numbers, not booleans"),
    ("P", [True, 2.0], "P must hold numbers, not booleans"),
    ("P", ["2", "2"], "power budgets P must be finite and positive"),
    ("Psi", [1.0, [1.0]], "malformed scenario document"),
    ("Rn", [[[[NAN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]] * 2,
     "Rn has non-finite entries"),
])
def test_malformed_scenario_document_is_validation_error(tmp_path, capsys, field, value,
                                                         message):
    path = str(tmp_path / "scn.json")
    assert cli(["scenario", "gen", "--q", "2", "--n", "2", "--seed", "1",
                "--out", path, "--quiet"]) == EXIT_OK
    doc = json.load(open(path))
    if field == "H":
        doc["H"][0][1][1].pop()
    else:
        doc[field] = value
    json.dump(doc, open(path, "w"))
    assert cli(["scenario", "show", path]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert _run(tmp_path, "br solve", {"scenario": {"file": path}}) == EXIT_USAGE
    assert message in capsys.readouterr().err


# --- exit codes and report lines no other test reaches ------------------------------

def test_check_failure_is_exit_2(tmp_path, capsys, monkeypatch):
    from eeiwfa.errors import CheckFailure

    def failing(*a, **k):
        raise CheckFailure("criterion constants are inconsistently ordered")

    monkeypatch.setattr(harness, "evaluate_criteria", failing)
    assert _run(tmp_path, "criteria eval", {"scenario": _SCN}) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err == "check failed: criterion constants are inconsistently ordered\n"


def test_scenario_show_on_non_square_reduced_channels(tmp_path, capsys):
    # tall direct channels (nR > nT) reduce to non-square ones: no exact
    # interference matrix, so no spectral radius to show
    rng = np.random.default_rng(3)
    nT, nR = [2, 1], [3, 2]
    H = [[rng.standard_normal((nR[q], nT[r])) + 0j for r in range(2)] for q in range(2)]
    s = scenario_from_matrices(H, [np.eye(n) for n in nR], [1.0, 1.0], [1.0, 1.0])
    path = str(tmp_path / "tall.json")
    save_scenario(s, path)
    assert cli(["scenario", "show", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "antennas nT: [2, 1] nR: [3, 2]"
    assert out[-1] == "sr(S): n/a (non-square reduced channels)"


def test_iwfa_run_reports_an_error_inside_the_slot_loop(tmp_path, capsys):
    # the first Dinkelbach solve cannot reach 1e-13 in one iteration; the run
    # ends at once, keeps its (empty) trace and still exits 0
    cfg = {"scenario": _SCN, "max_slots": 3,
           "dinkelbach": {"epsilon": 1e-13, "max_iters": 1}}
    assert _run(tmp_path, "iwfa run", cfg, quiet=False) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "error after 0 slots; final ne residual nan",
        "error: Dinkelbach did not reach epsilon=1e-13 within 1 iterations"
        " (last gap 2.696e-01)",
        str(tmp_path / "out"),
    ]


def test_criteria_sweep_prints_one_line_per_cell(tmp_path, capsys):
    cfg = {**_SWEEP, "sir_db": [10.0, 20.0], "trials": 2}
    assert _run(tmp_path, "criteria sweep", cfg, quiet=False) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "cell snr=5.0 sir=10.0: contraction 0.500 qvi 0.500",
        "cell snr=5.0 sir=20.0: contraction 1.000 qvi 1.000",
        str(tmp_path / "out"),
        str(tmp_path / "out_cells.csv"),
    ]


def test_verify_lemmas_prints_each_check_and_the_sqrtq_ratio(tmp_path, capsys):
    assert _run(tmp_path, "verify lemmas", _LEMMAS, quiet=False) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "lipschitz: ok (max ratio 1.02124, constant 1.43126)",
        # the monotonicity "max ratio" is its smallest margin, not a ratio
        "monotonicity: ok (max ratio 0.856199, constant 0.591138)",
        "power-set-smoothness: ok (max ratio 1, constant 1)",
        "sqrt(Q) ratio Q=2: 1.414213562373 vs 1.414213562373",
        str(tmp_path / "out"),
    ]
