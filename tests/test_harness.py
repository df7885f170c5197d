import dataclasses
import hashlib
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eeiwfa import equilibrium, harness, model
from eeiwfa.equilibrium import criteria, interference_matrix_square
from eeiwfa.errors import CheckFailure, InvalidInputError
from eeiwfa.harness import (
    best_response_config,
    criteria_config,
    evaluate_criteria,
    iwfa_config,
    lemma_config,
    read_csv,
    resolve_out,
    run_criteria_sweep,
    run_lemma_suite,
    scenario_from_config,
    solve_best_response,
    sweep_config,
)
from eeiwfa.model import generate_scenario, reduce_scenario

SMALL_SWEEP = {
    "Q": 3,
    "n": 2,
    "snr_db": [7.0],
    "sir_db": [0.0, 10.0, 20.0],
    "trials": 12,
    "seed": 4,
    "channel_kind": "diagonal",
}


def test_resolve_out_env(monkeypatch, tmp_path):
    monkeypatch.setenv("EEIWFA_OUT_DIR", str(tmp_path))
    assert resolve_out(None, "x.csv") == str(tmp_path / "x.csv")
    assert resolve_out("y.csv", "x.csv") == "y.csv"
    monkeypatch.delenv("EEIWFA_OUT_DIR")
    assert resolve_out(None, "x.csv") == "x.csv"
    with pytest.raises(InvalidInputError, match="out must be a path"):
        resolve_out(1, "x.csv")  # open() would write to file descriptor 1


# Per-trial (sr_S, sr_Ssym, ok_qvi, ok_contraction) of a tiny sweep, as the
# all-ones power iteration computed them: a drift in scenario generation,
# reduction, the interference matrix or the Perron pair shows here.
GOLDEN_SWEEP = {"Q": 3, "n": 2, "snr_db": [5.0], "sir_db": [0.0, 10.0], "trials": 3,
                "seed": 2, "channel_kind": "diagonal", "snr_convention": "per-stream"}
GOLDEN_TRIALS = [
    (21.82280562539931, 27.48156459346567, 0, 0),
    (1.489406733480807, 1.7120703247983355, 0, 0),
    (0.91526493191405, 1.0556326408810555, 0, 1),
    (0.2503929327809573, 0.3800216462066275, 1, 1),
    (0.4155190104111455, 0.5458097730291243, 1, 1),
    (0.16785640387333078, 0.17065732589017601, 1, 1),
]


def test_criteria_sweep_golden_values(tmp_path):
    res = run_criteria_sweep(GOLDEN_SWEEP, out=str(tmp_path / "golden.csv"))
    _, header, rows = read_csv(res["out"])
    cols = {name: i for i, name in enumerate(header)}
    assert len(rows) == len(GOLDEN_TRIALS)
    for row, (sr, sr_sym, ok_qvi, ok_contraction) in zip(rows, GOLDEN_TRIALS):
        assert abs(float(row[cols["sr_S"]]) - sr) <= 1e-9 * sr
        assert abs(float(row[cols["sr_Ssym"]]) - sr_sym) <= 1e-9 * sr_sym
        assert int(row[cols["ok_qvi"]]) == ok_qvi
        assert int(row[cols["ok_contraction"]]) == ok_contraction


# SHA-256 of the trial and cell files of two sweeps, taken before a chunk's
# reduction, interference matrices and criteria took a trial axis: a change
# in the last bit of any trial's report shows here.
@pytest.mark.parametrize("grid, trials_sha, cells_sha", [
    ({"Q": 8, "n": 4, "snr_db": [0.0, 10.0], "sir_db": [0.0, 10.0, 20.0], "trials": 10,
      "seed": 0, "channel_kind": "diagonal"},
     "89befd413ced1871a2388f8ad9af7e18d37d1e4f535c3e16040a284bf4ace33d",
     "34794043549800e001ba558abb11ba96599b4c1c60846b6b7c08287828f9a41d"),
    ({"Q": 5, "n": 3, "snr_db": [5.0], "sir_db": [0.0, 20.0], "trials": 12,
      "seed": 2**64 + 9, "channel_kind": "full"},
     "9b22751c29d4830085f7069b3eb913cdd1d61869aa2250fb9a58ff9766fcec28",
     "bc4f17b44ce5b8265ece1291a856584157c0684043af45c2c5fbe121332f1b6a"),
])
def test_sweep_outputs_are_pinned(tmp_path, grid, trials_sha, cells_sha):
    res = run_criteria_sweep(grid, out=str(tmp_path / "s.csv"))
    for path, want in ((res["out"], trials_sha), (res["cells_out"], cells_sha)):
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == want


def test_scenario_from_config_inline_and_file(tmp_path):
    cfg = {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 0.0, "seed": 1}
    s = scenario_from_config(cfg)
    assert s.Q == 2
    from eeiwfa.model import save_scenario

    path = tmp_path / "s.json"
    save_scenario(s, path)
    t = scenario_from_config({"file": str(path)})
    assert np.array_equal(t.H[0][1], s.H[0][1])
    with pytest.raises(InvalidInputError):
        scenario_from_config({"Q": 2})
    with pytest.raises(InvalidInputError, match="unknown key"):
        scenario_from_config({"file": str(path), "seed": 1})  # a file section is alone


def test_criteria_sweep_rows_and_cells(tmp_path):
    out = str(tmp_path / "sweep.csv")
    res = run_criteria_sweep(SMALL_SWEEP, out=out)
    schema, header, rows = read_csv(res["out"])
    assert "criteria-sweep schema v1" in schema
    assert "channel_kind=diagonal" in schema
    assert len(rows) == 3 * 12
    cols = {name: i for i, name in enumerate(header)}
    for row in rows:
        ok_qvi = int(row[cols["ok_qvi"]])
        ok_con = int(row[cols["ok_contraction"]])
        assert ok_con >= ok_qvi  # per-trial criterion implication
        assert float(row[cols["sr_S"]]) <= float(row[cols["sr_Ssym"]]) + 1e-9
    _, cheader, cells = read_csv(res["cells_out"])
    assert len(cells) == 3
    fracs = [float(c[cheader.index("frac_contraction")]) for c in cells]
    assert fracs == sorted(fracs)  # monotone in SIR for this seeded config


def test_criteria_sweep_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_criteria_sweep(SMALL_SWEEP, out=out1)
    run_criteria_sweep(SMALL_SWEEP, out=out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_sweep_allows_all_or_nothing_cells_of_one_trial(tmp_path):
    # one trial per cell: each fraction is 0 or 1, where the per-cell
    # standard error is 0; these seeds each have a 1 -> 0 step in SIR
    grid = {"Q": 8, "n": 4, "snr_db": [10.0], "sir_db": [8.0, 10.0, 12.0, 14.0],
            "trials": 1}
    for seed in (6, 10, 11, 12, 20, 26):
        res = run_criteria_sweep({**grid, "seed": seed}, out=str(tmp_path / "s.csv"))
        assert res["rows"] == 4


def trial_seed(master, cell, trial):
    return int(np.random.SeedSequence((master, cell, trial)).generate_state(1)[0])


def per_trial_row(cell, trial, seed):
    """A sweep's trial row from the per-trial pipeline, formatted as written."""
    rep = criteria(interference_matrix_square(reduce_scenario(
        generate_scenario(**cell, seed=seed))))
    row = [cell["snr_db"], cell["sir_db"], trial, seed, rep.sr_S, rep.sr_Ssym,
           rep.sigma_max_IplusS, rep.qvi_rhs_constant, rep.contraction_rhs_constant,
           rep.interference_ok_qvi, rep.interference_ok_contraction]
    return [str(harness._fmt(x)) for x in row]


def chunked_draws(monkeypatch, edit=lambda s: s):
    """Record the seed count of each generate_scenario call of the sweep,
    whose scenarios pass through ``edit``."""
    sizes = []
    draw = harness.generate_scenario

    def recorded(*args, seed, **kw):
        sizes.append(len(seed))
        return [edit(s) for s in draw(*args, seed=seed, **kw)]

    monkeypatch.setattr(harness, "generate_scenario", recorded)
    return sizes


@pytest.mark.parametrize("grid, chunks", [
    ({"Q": 4, "n": 3, "snr_db": [0.0, 10.0], "sir_db": [0.0, 15.0], "trials": 9,
      "channel_kind": "diagonal"}, [9]),
    ({"Q": 4, "n": 3, "snr_db": [0.0, 10.0], "sir_db": [0.0, 15.0], "trials": 9,
      "channel_kind": "full", "snr_convention": "total-power", "power": 2.0}, [9]),
    ({"Q": 1, "n": 2, "snr_db": [5.0], "sir_db": [float("inf")], "trials": 6}, [6]),
    # 16 trials a chunk, 17 trials span two: 4096 // 16^2 = 16 matrices
    # bound the first, 64^2 8^2 // (Q^2 n^2) = 16 entries the other two
    ({"Q": 16, "n": 2, "snr_db": [5.0], "sir_db": [10.0], "trials": 17,
      "channel_kind": "full"}, [16, 1]),
    ({"Q": 16, "n": 8, "snr_db": [5.0], "sir_db": [10.0], "trials": 17,
      "channel_kind": "full"}, [16, 1]),
    ({"Q": 4, "n": 32, "snr_db": [5.0], "sir_db": [10.0], "trials": 17}, [16, 1]),
])
def test_sweep_rows_equal_the_per_trial_pipeline(tmp_path, monkeypatch, grid, chunks):
    sizes = chunked_draws(monkeypatch)
    res = run_criteria_sweep({**grid, "seed": 5}, out=str(tmp_path / "s.csv"))
    _, _, rows = read_csv(res["out"])
    cell_keys = ("Q", "n", "power", "channel_kind", "snr_convention")
    base = {key: grid[key] for key in cell_keys if key in grid}
    want = []
    for ci, (snr, sir) in enumerate(itertools.product(grid["snr_db"], grid["sir_db"])):
        for t in range(grid["trials"]):
            cell = {"channel_kind": "diagonal", **base, "snr_db": snr, "sir_db": sir}
            want.append(per_trial_row(cell, t, trial_seed(5, ci, t)))
    assert rows == want
    cells = len(grid["snr_db"]) * len(grid["sir_db"])
    assert sizes == chunks * cells
    assert max(sizes) * grid["Q"] ** 2 <= 4096
    assert max(sizes) * (grid["Q"] * grid["n"]) ** 2 <= 64 * 64 * 8 * 8


def edited_direct_channels(s, faults):
    """The scenario ``s`` with the (q, i) diagonal entries of ``faults``
    zeroed in player q's direct channel."""
    T = s.H.array.copy()
    for q, i in faults:
        T[q, q, i, i] = 0.0
    return dataclasses.replace(s, H=model.ChannelTable(T, s.nR, s.nT))


def test_a_chunk_raises_the_per_trial_loops_first_error(monkeypatch):
    # trial 1's player 3 keeps a direct channel of rank 1, which fails only
    # when its interference matrix is taken; trial 3 loses player 2's direct
    # channel and trial 5 player 0's, which fail in the reduction. One chunk
    # draws all eight; it fails in the reduction and is then run again one
    # trial at a time, up to trial 1.
    grid = {"Q": 4, "n": 2, "snr_db": [5.0], "sir_db": [10.0], "trials": 8, "seed": 1}
    seeds = [trial_seed(1, 0, t) for t in range(8)]
    faults = {seeds[1]: [(3, 0)], seeds[3]: [(2, 0), (2, 1)], seeds[5]: [(0, 0), (0, 1)]}

    def edit(s):
        return edited_direct_channels(s, faults[s.seed]) if s.seed in faults else s

    cell = {"Q": 4, "n": 2, "snr_db": 5.0, "sir_db": 10.0, "channel_kind": "diagonal"}
    first = ("^direct channel of player 3 is not full row rank \\(reduced to 2x1\\);"
             " use interference_matrix_sampled for full-column-rank channels$")
    with pytest.raises(InvalidInputError, match=first):
        for seed in seeds:
            criteria(interference_matrix_square(reduce_scenario(
                edit(generate_scenario(**cell, seed=seed)))))
    sizes = chunked_draws(monkeypatch, edit)
    with pytest.raises(InvalidInputError, match="^player 2 has a zero direct channel$"):
        reduce_scenario([edit(s) for s in generate_scenario(**cell, seed=seeds)])
    with pytest.raises(InvalidInputError, match=first):
        run_criteria_sweep(grid, out="unused.csv")
    assert sizes == [8, 1, 1]


def test_a_failing_chunk_builds_each_trials_matrices_once_more(monkeypatch):
    # trial 1's player 3 keeps a direct channel of rank 1: the chunk of eight
    # passes the reduction and fails when its matrices are taken, on the
    # ranks it no longer shares. Only the sweep runs the trials again, one
    # at a time up to trial 1; the list forms do not rerun their items.
    grid = {"Q": 4, "n": 2, "snr_db": [5.0], "sir_db": [10.0], "trials": 8, "seed": 1}
    faulty = trial_seed(1, 0, 1)
    chunked_draws(monkeypatch, lambda s: edited_direct_channels(s, [(3, 0)])
                  if s.seed == faulty else s)
    stacks = []
    rows = equilibrium._normalized_rows

    def recorded(games):
        stacks.append(len(games))
        return rows(games)

    monkeypatch.setattr(equilibrium, "_normalized_rows", recorded)
    with pytest.raises(InvalidInputError, match="^direct channel of player 3 is not full row"
                                                " rank \\(reduced to 2x1\\)"):
        run_criteria_sweep(grid, out="unused.csv")
    assert stacks == [8, 1, 1]


def test_sweep_still_rejects_a_real_drop_in_sir(tmp_path, monkeypatch):
    # every trial passes the contraction criterion on one side of 11 dB SIR
    # and none on the other: 20/20 -> 0/20 is far beyond the allowance
    passes_below = [True]
    monkeypatch.setattr(harness, "interference_matrix_square",
                        lambda reduced: [rs.meta["sir_db"] for rs in reduced])
    monkeypatch.setattr(harness, "criteria", lambda sirs: [SimpleNamespace(
        sr_S=0.5, sr_Ssym=0.5, sigma_max_IplusS=1.5, qvi_rhs_constant=0.5,
        contraction_rhs_constant=0.5, interference_ok_qvi=False,
        interference_ok_contraction=(sir < 11.0) == passes_below[0]) for sir in sirs])
    grid = {"Q": 2, "n": 2, "snr_db": [5.0], "sir_db": [10.0, 12.0], "trials": 20}
    out = str(tmp_path / "s.csv")
    with pytest.raises(CheckFailure, match=r"1\.0000@10\.0 -> 0\.0000@12\.0 beyond 3 sigma"):
        run_criteria_sweep(grid, out=out)
    # a rise passes, and the cell file keeps the per-cell (Wald) standard errors
    passes_below[0] = False
    run_criteria_sweep(grid, out=out)
    cells = (tmp_path / "s_cells.csv").read_text().splitlines()
    assert cells[-2:] == ["5.0,10.0,20,0.0,0.0,0.0,0.0", "5.0,12.0,20,1.0,0.0,0.0,0.0"]


def test_criteria_sweep_validation():
    with pytest.raises(InvalidInputError):
        run_criteria_sweep({**SMALL_SWEEP, "trials": 0}, out="unused.csv")
    # the config reader owns every count, so a shipped config is checked in full
    for key, value in (("Q", 0), ("n", 2.5)):
        with pytest.raises(InvalidInputError, match=f"^{key} must be an integer >= 1$"):
            sweep_config({**SMALL_SWEEP, key: value})


def test_integral_float_counts_are_written_as_integers():
    lemma = {"scenario": {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 20.0, "seed": 2},
             "n_pairs": 10.0, "n_triples": 10, "seed": 1.0, "sqrt_q": [2]}
    assert json.dumps(run_lemma_suite(lemma)["n_pairs"]) == "10"


# The reader of each shipped config's command; a config added to configs/
# must be added here, so that a tightened key table cannot reject it unseen.
CONFIG_READERS = {
    "benchmark.json": iwfa_config,
    "benchmark_async.json": iwfa_config,
    "br_example.json": best_response_config,
    "criteria_example.json": criteria_config,
    "lemmas.json": lemma_config,
    "sweep_grid.json": sweep_config,
}


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1]
                                         / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_config_passes_its_reader(path):
    with open(path) as fh:
        CONFIG_READERS[path.name](json.load(fh))


def test_lemma_suite_passes_on_default_style_config():
    cfg = {
        "scenario": {"Q": 4, "n": 2, "snr_db": 7.0, "sir_db": 20.0, "seed": 2},
        "n_pairs": 60,
        "n_triples": 60,
        "sqrt_q": [2, 4],
    }
    report = run_lemma_suite(cfg)
    assert report["passed"]
    assert report["checks"]["lipschitz"]["status"] == "ok"
    assert report["checks"]["power-set-smoothness"]["status"] == "ok"
    assert set(report["sqrt_q"]) == {"2", "4"}
    assert json.dumps(report)  # JSON-serializable


def test_solve_best_response_config():
    cfg = {
        "scenario": {"Q": 2, "n": 2, "snr_db": 7.0, "sir_db": 0.0, "seed": 3},
        "player": 1,
    }
    res = solve_best_response(cfg)
    assert res["player"] == 1
    assert res["p_hat"] <= 2.0 + 1e-12
    assert len(res["Qbr"]) == 2
    with pytest.raises(InvalidInputError):
        solve_best_response({**cfg, "player": 7})


def test_evaluate_criteria_variants():
    cfg = {
        "scenario": {"Q": 3, "n": 2, "snr_db": 7.0, "sir_db": 10.0, "seed": 5},
        "variant": "square",
    }
    a = evaluate_criteria(cfg)
    b = evaluate_criteria({**cfg, "variant": "rowrank"})
    c = evaluate_criteria({**cfg, "variant": "sampled", "n_samples": 3})
    assert abs(a["sr_S"] - b["sr_S"]) <= 1e-9
    assert abs(a["sr_S"] - c["sr_S"]) <= 1e-8
    with pytest.raises(InvalidInputError):
        evaluate_criteria({**cfg, "variant": "nope"})


def test_sweep_saturates_at_infinite_sir(tmp_path):
    res = run_criteria_sweep(
        {"Q": 3, "n": 2, "snr_db": [7.0], "sir_db": [100.0], "trials": 10,
         "seed": 0, "channel_kind": "diagonal"},
        out=str(tmp_path / "sat.csv"),
    )
    _, header, cells = read_csv(res["cells_out"])
    assert float(cells[0][header.index("frac_contraction")]) == 1.0
    assert float(cells[0][header.index("frac_qvi")]) == 1.0
