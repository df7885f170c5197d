import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eeiwfa.cli as cli_module
from eeiwfa import harness
from eeiwfa.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, cli
from eeiwfa.model import load_scenario, save_scenario, scenario_from_matrices

import blas_core
import numpy_dispatch
from test_equilibrium import scaled_identity_scenario


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


# SHA-256 of the JSON report of configs/lemmas.json, as the per-pair loop of
# the verifiers computed it: a change in a draw, its stream order, the
# evaluation of a sample or the chunking of the samples shows here. One hash
# per OpenBLAS core, as IWFA_TRACES_SHA256 below.
LEMMAS_REPORT_SHA256 = {
    "SkylakeX": "8833f9cb2fbf5b1a839deb6555dfad2f34ef89b99b05298005dc0e9398e930b7",
    "Haswell": "5da8925d39f6e22b1ea26fec15ca9796950dc9b2d6c3303f3f08a2704236ad80",
    "Katmai": "c5a2ee19415f8a89e40ef81526498fb32676917bb79fe2e590b503319762358a",
}


def test_verify_lemmas_shipped_config_report_is_pinned(tmp_path):
    path = Path(__file__).resolve().parents[1] / "configs" / "lemmas.json"
    out = tmp_path / "rep.json"
    assert cli(["verify", "lemmas", "--config", str(path), "--out", str(out),
                "--quiet"]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == blas_core.pinned(LEMMAS_REPORT_SHA256)


def _strict_json(path):
    """The JSON document at ``path``, read as RFC 8259 has it: no NaN or
    Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


@pytest.mark.parametrize("settings,check", [
    # no pairs: the monotonicity margin stays at its infinite start
    ({"n_pairs": 0}, "monotonicity"),
    # sr(S^s) >= 1: monotonicity is skipped, its ratio NaN
    ({"scenario": {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 0.0, "seed": 0}},
     "monotonicity"),
])
def test_verify_lemmas_writes_strict_json(tmp_path, settings, check):
    assert _run(tmp_path, "verify lemmas", {**_LEMMAS, **settings}) == EXIT_OK
    report = _strict_json(tmp_path / "out")
    assert report["passed"] and report["checks"][check]["max_ratio"] is None


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


def _child(*args, cwd=None, **env):
    """Run a fresh interpreter that finds the package where this process
    found it, installed or not, with the variables ``env`` added."""
    import eeiwfa

    src = str(Path(eeiwfa.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


def test_iwfa_traces_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # The rates take their logs from libm, so a trace is the same bytes
    # whichever of its SIMD loops numpy dispatches to on this CPU.
    found = numpy_dispatch.found()
    if not found:
        pytest.skip("numpy found no SIMD target above its baseline")
    off = {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}
    lost = _child(numpy_dispatch.__file__, **off)
    assert (lost.returncode, lost.stdout.split()) == (0, [])
    configs = Path(__file__).resolve().parents[1] / "configs"
    for config in ("benchmark.json", "benchmark_async.json"):
        runs = []
        for name, env in (("default", {}), ("baseline", off)):
            (tmp_path / name).mkdir(exist_ok=True)
            proc = _child("-m", "eeiwfa.cli", "iwfa", "run", "--config", str(configs / config),
                          "--out", config + ".csv", cwd=tmp_path / name, **env)
            runs.append((proc.returncode, proc.stdout, proc.stderr,
                         (tmp_path / name / (config + ".csv")).read_bytes()))
        assert runs[0][0] == 0 and runs[0] == runs[1]


# Across OpenBLAS cores the kernels sum in other orders, so floats move in
# their last bits while every count, flag and termination holds. Largest
# differences measured against the default core (SkylakeX) under Haswell and
# Prescott: sweep floats 1.0e-14 relative (sr_S), EE 1.7e-15 relative, the
# residual columns and the final residual 2.3e-13 absolute (on residuals up
# to 127). The bounds are about twice those.
CORE_SWEEP_REL, CORE_EE_REL, CORE_RESIDUAL_ABS = 2e-14, 4e-15, 5e-13
CORE_BOUNDS = {"ee": (CORE_EE_REL, 0.0), "block_residual": (0.0, CORE_RESIDUAL_ABS),
               "ne_residual": (0.0, CORE_RESIDUAL_ABS),
               **dict.fromkeys(("sr_S", "sr_Ssym", "sigma_max_IplusS", "qvi_rhs",
                                "contraction_rhs"), (CORE_SWEEP_REL, 0.0))}
PINNED_SWEEP = {"Q": 8, "n": 4, "snr_db": [0.0, 10.0], "sir_db": [0.0, 10.0, 20.0],
                "trials": 10, "seed": 0, "channel_kind": "diagonal"}


def _core_outputs(tmp_path, name, env):
    """stdout and the CSV files of the pinned sweep and of ``iwfa run`` on
    both benchmark configs, run in children under the variables ``env``."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    json.dump(PINNED_SWEEP, open(tmp_path / "sweep.json", "w"))
    cwd = tmp_path / name
    cwd.mkdir()
    runs = {}
    for out, args in (("sync.csv", ("iwfa", "run", "--config", configs / "benchmark.json")),
                      ("async.csv", ("iwfa", "run", "--config", configs / "benchmark_async.json")),
                      ("sweep.csv", ("criteria", "sweep", "--config", tmp_path / "sweep.json"))):
        proc = _child("-m", "eeiwfa.cli", *map(str, args), "--out", out, cwd=cwd, **env)
        assert (proc.returncode, proc.stderr) == (0, "")
        runs[out] = proc.stdout
    return runs, {path.name: harness.read_csv(path) for path in sorted(cwd.glob("*.csv"))}


def test_outputs_agree_across_openblas_cores(tmp_path):
    if not blas_core.dynamic_arch():
        pytest.skip("numpy's BLAS is not a dynamic-arch OpenBLAS")
    stdout, files = _core_outputs(tmp_path, "default", {})
    assert sorted(files) == ["async.csv", "sweep.csv", "sweep_cells.csv", "sync.csv"]
    for core in ("Haswell", "Prescott"):
        other_stdout, other_files = _core_outputs(tmp_path, core, {"OPENBLAS_CORETYPE": core})
        for name, text in stdout.items():
            # the slot count and termination exactly, the final residual to its bound
            for a, b in itertools.zip_longest(text.split(), other_stdout[name].split()):
                assert a == b or abs(float(a) - float(b)) <= CORE_RESIDUAL_ABS, (core, name)
        for name, (schema, header, rows) in files.items():
            other_schema, other_header, other_rows = other_files[name]
            assert (other_schema, other_header, len(other_rows)) == (schema, header, len(rows))
            for j, column in enumerate(header):
                rel, tol = CORE_BOUNDS.get(column, (0.0, 0.0))
                for row, other in zip(rows, other_rows):
                    a, b = float(row[j]), float(other[j])
                    assert abs(a - b) <= rel * abs(a) + tol, (core, name, column)


# SHA-256 of the CSV traces of three `iwfa run`s: configs/benchmark.json
# (synchronous), configs/benchmark_async.json (d_max 3, so delayed readers
# gather older profiles) and an asynchronous run on identity channels, whose
# whitened grams have tied eigenvalues. One hash per OpenBLAS core, each
# taken in a child process with OPENBLAS_CORETYPE naming the core: SkylakeX
# (the default on AVX-512 CPUs), Haswell (also what Zen selects) and Katmai
# (what Prescott and Core2 select).
IWFA_TRACES_SHA256 = {
    "SkylakeX": "ee7ae9d9d8b2bca909ec707248f0e09b49cea3fd6b05721349b9d278ffedf300",
    "Haswell": "32598ca0a177fe817bd9d34cd32dc0ec2549a6b8417a09f120bdc9637c14cd42",
    "Katmai": "ce45a64b805e3aa3e5b4f5db429fb38c0fac24dbd47b6598e67f5f83f6a9a5fe",
}


def _iwfa_traces_digest(tmp_path):
    """SHA-256 of the three pinned ``iwfa run`` CSV traces, in order."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    identity = tmp_path / "identity.json"
    save_scenario(scaled_identity_scenario(4, 0.5, n=3), str(identity))
    json.dump({"scenario": {"file": str(identity)},
               "schedule": {"mode": "asynchronous", "rho": 0.5, "d_max": 2},
               "max_slots": 60, "seed": 5}, open(tmp_path / "identity_run.json", "w"))
    digest = hashlib.sha256()
    for i, config in enumerate((configs / "benchmark.json", configs / "benchmark_async.json",
                                tmp_path / "identity_run.json")):
        out = tmp_path / f"trace{i}.csv"
        assert cli(["iwfa", "run", "--config", str(config), "--out", str(out),
                    "--quiet"]) == EXIT_OK
        digest.update(out.read_bytes())
    return digest.hexdigest()


def test_iwfa_run_traces_are_pinned(tmp_path):
    assert _iwfa_traces_digest(tmp_path) == blas_core.pinned(IWFA_TRACES_SHA256)


def test_console_entry_point():
    proc = _child("-m", "eeiwfa.cli", "--help")
    assert proc.returncode == 0
    assert "scenario" in proc.stdout


def test_help_returns_zero_with_the_usage_on_stdout(capsys):
    assert cli(["iwfa", "run", "--help"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: eeiwfa iwfa run ") and err == ""


def test_the_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: built.append(1) or build())
    cli_module._parser.cache_clear()
    path = str(tmp_path / "scn.json")
    assert cli(["scenario", "gen", "--q", "2", "--n", "2", "--out", path, "--quiet"]) == EXIT_OK
    assert cli(["scenario", "show", path, "--quiet"]) == EXIT_OK
    assert cli(["scenario", "show", "--bogus"]) == EXIT_USAGE
    assert len(built) == 1


@pytest.mark.parametrize("command", ["br solve --config", "scenario show"])
def test_json_that_is_not_utf8_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")   # UTF-16 with its byte-order mark
    assert cli([*command.split(), str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_json_is_read_as_utf8_whatever_the_locale(tmp_path, scenario_file):
    # Under the C locale with UTF-8 mode off, open() would decode as ASCII.
    scn = json.load(open(scenario_file))
    scn["meta"]["note"] = "caf\u00e9"
    (tmp_path / "s.json").write_text(json.dumps(scn, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "c.json").write_text(
        '{"scenario": {"file": "s.json"}, "variant": "carr\u00e9"}', encoding="utf-8")
    env = {"LC_ALL": "C", "PYTHONUTF8": "0"}
    proc = _child("-m", "eeiwfa.cli", "scenario", "show", "s.json", "--quiet",
                  cwd=tmp_path, **env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    proc = _child("-m", "eeiwfa.cli", "criteria", "eval", "--config", "c.json", "--quiet",
                  cwd=tmp_path, **env)
    # the one error line names the variant decoded from UTF-8 (stderr
    # escapes what ASCII cannot hold)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "carr\\xe9" in proc.stderr


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
EYE2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]   # as [re, im] pairs
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
     "snr_convention must be one of"),    ("verify lemmas", {**_LEMMAS, "n_triples": -1}, "n_triples must be an integer >= 0"),
    ("verify lemmas", {**_LEMMAS, "sqrt_q": [0]}, "sqrt_q[0] must be an integer >= 1"),
    ("verify lemmas", {**_LEMMAS, "sqrt_q": [2, "x"]}, "sqrt_q[1] must be an integer >= 1"),
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


@pytest.mark.parametrize("settings", [
    {"n_triples": -1},
    {"n_triples": 2.5},
    {"sqrt_q": [0]},
    {"sqrt_q": [2, True]},
])
def test_verify_lemmas_checks_its_config_before_any_verifier(tmp_path, capsys, monkeypatch,
                                                             settings):
    def no_run(*args, **kwargs):
        raise AssertionError("verify_lipschitz called with a bad config")

    monkeypatch.setattr(harness, "verify_lipschitz", no_run)
    assert _run(tmp_path, "verify lemmas", {**_LEMMAS, **settings}) == EXIT_USAGE
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
    "perron_w": [0.06443487132889332, 0.8304890620243617, 0.5532956399744399],
    "power_smoothness": {"max_ratio_l2": 1.0338797491315457,
                         "max_ratio_weighted_inf": 0.6217534993482087,
                         "n_pairs": 20, "n_skipped": 0},
    "qvi_rhs_constant": -0.6387048183354217,
    "sigma_max_IplusS": 20.6968966629292,
    "sr_S": 11.835503360851193,
    "sr_Ssym": 14.21920762320319,
    "variant": "sampled-columnrank",
}
# the report per OpenBLAS core: GOLDEN_EVAL is SkylakeX's; under Haswell and
# Katmai the floats move in their last bits and every flag and count holds
GOLDEN_EVALS = {
    "SkylakeX": GOLDEN_EVAL,
    "Haswell": {
        **GOLDEN_EVAL,
        "contraction_rhs_constant": -10.835503360851199,
        "perron_w": [0.06443487132889326, 0.830489062024362, 0.5532956399744392],
        "power_smoothness": {"max_ratio_l2": 1.0338797491315375,
                             "max_ratio_weighted_inf": 0.6217534993483563,
                             "n_pairs": 20, "n_skipped": 0},
        "qvi_rhs_constant": -0.6387048183354213,
        "sigma_max_IplusS": 20.696896662929223,
        "sr_S": 11.835503360851199,
        "sr_Ssym": 14.219207623203197,
    },
    "Katmai": {
        **GOLDEN_EVAL,
        "contraction_rhs_constant": -10.835503360851188,
        "perron_w": [0.06443487132889336, 0.8304890620243618, 0.5532956399744396],
        "power_smoothness": {"max_ratio_l2": 1.033879749131509,
                             "max_ratio_weighted_inf": 0.621753499348504,
                             "n_pairs": 20, "n_skipped": 0},
        "qvi_rhs_constant": -0.6387048183354216,
        "sigma_max_IplusS": 20.69689666292919,
        "sr_S": 11.835503360851188,
        "sr_Ssym": 14.219207623203182,
    },
}


def test_criteria_eval_sampled_golden_report(tmp_path):
    assert _run(tmp_path, "criteria eval", GOLDEN_EVAL_CONFIG) == EXIT_OK
    assert json.load(open(tmp_path / "out")) == blas_core.pinned(GOLDEN_EVALS)


def test_criteria_eval_csv_puts_the_smoothness_columns_last(tmp_path):
    # the JSON report sorts its keys; the CSV keeps the report's own order
    path = str(tmp_path / "c.json")
    json.dump(GOLDEN_EVAL_CONFIG, open(path, "w"))
    out = str(tmp_path / "crit.csv")
    assert cli(["criteria", "eval", "--config", path, "--out", out,
                "--format", "csv", "--quiet"]) == EXIT_OK
    header, _ = csv.reader(open(out, newline=""))
    assert header == [
        "variant", "sr_S", "sr_Ssym", "sigma_max_IplusS", "perron_w", "perron_degenerate",
        "qvi_rhs_constant", "contraction_rhs_constant", "interference_ok_qvi",
        "interference_ok_contraction", "power_smoothness.max_ratio_l2",
        "power_smoothness.max_ratio_weighted_inf", "power_smoothness.n_pairs",
        "power_smoothness.n_skipped",
    ]


def assert_csv_cells_parse_to_the_json_report(tmp_path, command, cfg):
    # every cell that is not one of the report's strings is a plain number,
    # a 0/1 flag, a JSON list or null, and parses to the JSON report's value;
    # none is a numpy scalar's repr, Python's None or a bare nan
    path = str(tmp_path / "c.json")
    json.dump(cfg, open(path, "w"))
    for fmt in ("json", "csv"):
        assert cli([*command.split(), "--config", path, "--out", str(tmp_path / fmt),
                    "--format", fmt, "--quiet"]) == EXIT_OK

    def flat(obj, prefix=""):
        if not isinstance(obj, dict):
            return {prefix[:-1]: obj}
        return {key: value for k, v in obj.items()
                for key, value in flat(v, f"{prefix}{k}.").items()}

    report = flat(json.load(open(tmp_path / "json")))
    header, values = csv.reader(open(tmp_path / "csv", newline=""))
    row = dict(zip(header, values))
    assert {k: v if isinstance(report.get(k), str) else json.loads(v)
            for k, v in row.items()} == report


def test_criteria_eval_csv_cells_parse_to_the_json_report(tmp_path):
    assert_csv_cells_parse_to_the_json_report(tmp_path, "criteria eval", GOLDEN_EVAL_CONFIG)


def test_verify_lemmas_csv_cells_parse_to_the_json_report(tmp_path):
    # sr(S^s) > 1 here: the monotonicity check is skipped with a NaN ratio,
    # and no check has a witness
    scenario = {"Q": 3, "n": 2, "snr_db": 7.0, "sir_db": -10.0, "seed": 3}
    assert_csv_cells_parse_to_the_json_report(
        tmp_path, "verify lemmas", {**_LEMMAS, "scenario": scenario})


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
    ("meta", "x", "meta must be a dict"),
    ("seed", 1.5, "seed must be an integer >= 0"),
    ("seed", "abc", "seed must be an integer >= 0"),
    ("H", [[EYE2] * 3] * 3, "H must be a Q x Q table of matrices"),   # 3 x 3 at Q = 2
])
def test_malformed_scenario_document_is_validation_error(tmp_path, capsys, field, value,
                                                         message):
    path = str(tmp_path / "scn.json")
    assert cli(["scenario", "gen", "--q", "2", "--n", "2", "--seed", "1",
                "--out", path, "--quiet"]) == EXIT_OK
    doc = json.load(open(path))
    if value is None:
        doc["H"][0][1][1].pop()
    else:
        doc[field] = value
    json.dump(doc, open(path, "w"))
    assert cli(["scenario", "show", path]) == EXIT_USAGE
    err = capsys.readouterr().err   # one line, no traceback
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert _run(tmp_path, "br solve", {"scenario": {"file": path}}) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


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
    # ends at once, keeps its (empty) trace and exits 1, as br solve does
    cfg = {"scenario": _SCN, "max_slots": 3,
           "dinkelbach": {"epsilon": 1e-13, "max_iters": 1}}
    assert _run(tmp_path, "iwfa run", cfg, quiet=False) == EXIT_USAGE
    assert (tmp_path / "out").is_file()
    assert capsys.readouterr().out.splitlines() == [
        "error after 0 slots; final ne residual nan",
        "error: Dinkelbach did not reach epsilon=1e-13 within 1 iterations"
        " (last gap 2.696e-01)",
        str(tmp_path / "out"),
    ]


def test_iwfa_run_quiet_still_reports_its_error_on_stderr(tmp_path, capsys):
    # --quiet silences stdout, not the reason a run failed: the error line
    # reaches stderr, as every other command's error does
    cfg = {"scenario": _SCN, "max_slots": 3,
           "dinkelbach": {"epsilon": 1e-13, "max_iters": 1}}
    assert _run(tmp_path, "iwfa run", cfg) == EXIT_USAGE
    assert (tmp_path / "out").is_file()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Dinkelbach did not reach epsilon=1e-13 within 1"
                            " iterations (last gap 2.696e-01)\n")


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
