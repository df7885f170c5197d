"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import json
import time

import numpy as np
import pytest

import eeiwfa as ee
from eeiwfa.cli import EXIT_OK, cli
from eeiwfa.harness import read_csv, run_criteria_sweep, run_lemma_suite
from eeiwfa.linalg import pseudo_inverse, realify
from eeiwfa.model import StrategyProfile, scenario_from_matrices

from conftest import crandn, random_hermitian, random_psd, rowrank_oracle
from test_best_response import scalar_ee_grid_max
from test_model import scalar_scenario


@contextlib.contextmanager
def criterion(number, title, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion {number:2d} ({title}): PASS ({elapsed:.1f} s)")
    assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.1f} s"


BENCH_NET = dict(Q=8, n=4, snr_db=7.0, power=4.0, circuit_power=1.0)


def test_c01_br_cross_formulation():
    with criterion(1, "BR cross-formulation", 10.0):
        rng = np.random.default_rng(101)
        for k in range(100):
            Q = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            # one player has no cross channel: sir_db=inf draws the same scenario
            s = ee.generate_scenario(Q, n, 7.0, 0.0 if Q > 1 else np.inf, seed=k)
            rs = ee.reduce_scenario(s)
            prof = StrategyProfile(
                [random_psd(rng, n, trace=float(rng.uniform(0, rs.P[q])) or 0.1)
                 for q in range(Q)]
            )
            q = int(rng.integers(0, Q))
            res = ee.best_response(rs, q, prof)
            proj = ee.projection_best_response(rs, q, prof, res.p_hat)
            assert np.abs(proj - res.Qbr).max() <= 1e-8


def test_c02_dinkelbach_vs_grid_oracle():
    with criterion(2, "Dinkelbach vs grid oracle", 5.0):
        rs = ee.reduce_scenario(scalar_scenario(g=1.0, sigma2=1.0, psi=1.0))
        p_u = ee.best_response(rs, 0, StrategyProfile.uniform(rs)).p_unconstrained
        assert abs(p_u - scalar_ee_grid_max(1.0, 1.0)) <= 1e-6
        assert abs(p_u - (np.e - 1.0)) <= 1e-6
        rng = np.random.default_rng(202)
        for _ in range(20):
            g = float(rng.uniform(0.3, 3.0))
            psi = float(rng.uniform(0.3, 3.0))
            rs = ee.reduce_scenario(scalar_scenario(g=g, sigma2=1.0, psi=psi))
            p_u = ee.best_response(rs, 0, StrategyProfile.uniform(rs)).p_unconstrained
            assert abs(p_u - scalar_ee_grid_max(g, psi)) <= 1e-5


def test_c03_schwenk_ordering_and_sweep(tmp_path):
    with criterion(3, "spectral-radius ordering + sweep", 60.0):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            A = rng.uniform(0.0, 2.0, size=(n, n))
            sr = ee.spectral_radius(A)[0]
            sr_sym = ee.spectral_radius(0.5 * (A + A.T))[0]
            assert sr <= sr_sym + 1e-9
        for k in range(20):
            s = ee.generate_scenario(int(rng.integers(2, 5)), int(rng.integers(1, 4)),
                                     7.0, float(rng.uniform(-5, 15)), seed=k)
            S = ee.interference_matrix_square(ee.reduce_scenario(s)).S
            assert ee.spectral_radius(S)[0] <= ee.spectral_radius(0.5 * (S + S.T))[0] + 1e-9
        res = run_criteria_sweep(
            {"Q": 8, "n": 4, "snr_db": [7.0], "sir_db": [-5.0, 0.0, 5.0, 10.0],
             "trials": 50, "seed": 1, "channel_kind": "diagonal"},
            out=str(tmp_path / "grid_sweep.csv"),
        )
        _, header, rows = read_csv(res["out"])
        assert len(rows) == 200
        cols = {name: i for i, name in enumerate(header)}
        for row in rows:
            assert int(row[cols["ok_contraction"]]) >= int(row[cols["ok_qvi"]])
            assert float(row[cols["sr_S"]]) <= float(row[cols["sr_Ssym"]]) + 1e-9


def test_c04_bound_suite():
    with criterion(4, "Lipschitz/monotonicity/power-set bounds", 120.0):
        # benchmark-family network at an SIR where sr(S^s) < 1 so the
        # monotonicity bound certifies (sr_sym = 0.70 at this seed)
        s = ee.generate_scenario(sir_db=20.0, seed=3, **BENCH_NET)
        rs = ee.reduce_scenario(s)
        lip = ee.verify_lipschitz(rs, n_pairs=500, seed=0, slack=1e-9)
        assert lip.status == "ok", lip.notes
        mono = ee.verify_monotonicity(rs, n_pairs=500, seed=1, slack=1e-9)
        assert mono.status == "ok", mono.notes
        smooth = ee.verify_power_set_smoothness(rs, n_triples=500, seed=2, slack=1e-9)
        assert smooth.status == "ok", smooth.notes


def test_c05_sqrtq_lower_bound():
    with criterion(5, "sqrt(Q) Lipschitz lower bound", 10.0):
        for Q in (2, 4, 8):
            rs = ee.reduce_scenario(ee.identity_channel_scenario(Q, n=2))
            ratio = ee.sqrtq_observed_ratio(rs, seed=0)
            assert abs(ratio - np.sqrt(Q)) <= 1e-9


def test_c06_benchmark_convergence():
    with criterion(6, "benchmark-network convergence, sync vs async", 120.0):
        dk = ee.DinkelbachConfig(epsilon=1e-9)
        s = ee.generate_scenario(sir_db=0.0, seed=0, **BENCH_NET)
        rs = ee.reduce_scenario(s)
        sync = ee.run_iwfa(rs, ee.UpdateSchedule("synchronous", 8),
                           max_slots=400, residual_tol=1e-9, cfg=dk)
        asyn = ee.run_iwfa(
            rs, ee.UpdateSchedule("asynchronous", 8, rho=0.5, d_max=3, seed=0),
            max_slots=1200, residual_tol=1e-9, cfg=dk,
        )
        assert sync.termination == "converged"
        assert asyn.termination == "converged"
        # the runs of configs/benchmark.json and configs/benchmark_async.json
        assert len(sync.slots) == 24
        assert len(asyn.slots) == 83
        assert sync.ne_residual[-1] <= 1e-6
        assert asyn.ne_residual[-1] <= 1e-6
        dist = ee.block_max_distance(sync.final_profile, asyn.final_profile,
                                     sync.weights)
        assert dist <= 1e-4
        # pre-floor residual curve decreases monotonically on a log scale
        r = sync.block_residual
        pre = r[r > 1e-6]
        assert len(pre) >= 5
        assert all(pre[i + 1] < pre[i] for i in range(1, len(pre) - 1))


def test_c07_low_sir_phenomenology():
    with criterion(7, "low-SIR oscillation phenomenology", 300.0):
        dk = ee.DinkelbachConfig(epsilon=1e-9)
        labels = []
        for seed in range(10):
            s = ee.generate_scenario(sir_db=-18.0, seed=seed, **BENCH_NET)
            rs = ee.reduce_scenario(s)
            tr = ee.run_iwfa(rs, ee.UpdateSchedule("synchronous", 8),
                             max_slots=600, residual_tol=1e-9, cfg=dk,
                             ne_every=0)
            assert tr.error is None
            assert tr.termination in ("converged", "oscillating", "max_slots")
            labels.append(tr.termination)
        assert "oscillating" in labels, labels


def test_c08_complex_real_bijection():
    with criterion(8, "complex/real bijection", 5.0):
        rng = np.random.default_rng(808)
        for _ in range(500):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            X = crandn(rng, m, n)
            Y = crandn(rng, n, k)
            assert np.abs(realify(X @ Y) - realify(X) @ realify(Y)).max() <= 1e-10
            H = random_hermitian(rng, m)
            R = realify(H)
            assert np.abs(R - R.T).max() <= 1e-10
            lam = np.sort(np.linalg.eigvalsh(H))
            lam2 = np.sort(np.linalg.eigvalsh(0.5 * (R + R.T)))
            assert np.abs(np.repeat(lam, 2) - lam2).max() <= 1e-10


def test_c09_variant_consistency():
    with criterion(9, "interference-matrix variant consistency", 30.0):
        rng = np.random.default_rng(909)
        for k in range(20):
            s = ee.generate_scenario(3, 3, 7.0, float(rng.uniform(-5, 15)), seed=k)
            want = rowrank_oracle(s.H)
            Sr = ee.interference_matrix_rowrank(s)
            # 1e-10 agreement relative to the entry scale: near-singular
            # direct channels blow the entries up to O(cond^2)
            assert np.abs(want - Sr.S).max() <= 1e-10 * max(1.0, want.max())
        for _ in range(100):
            Q = 2
            H = [[crandn(rng, 2, 4) for _ in range(Q)] for _ in range(Q)]
            s = scenario_from_matrices(H, [np.eye(2)] * Q, [2.0] * Q, [1.0] * Q)
            Sr = ee.interference_matrix_rowrank(s)
            for q in range(Q):
                for r in range(Q):
                    if q == r:
                        continue
                    unfactored = np.linalg.norm(
                        pseudo_inverse(H[q][q]) @ H[q][r], 2
                    ) ** 2
                    assert Sr.S[q, r] <= unfactored + 1e-10


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "CLI byte determinism", 60.0):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        bench = str(root / "configs" / "benchmark.json")
        outs = []
        for name in ("run1.csv", "run2.csv"):
            out = str(tmp_path / name)
            assert cli(["iwfa", "run", "--config", bench, "--seed", "7",
                        "--out", out, "--quiet"]) == EXIT_OK
            outs.append(out)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        sweep_cfg = str(tmp_path / "sweep.json")
        json.dump({"Q": 3, "n": 2, "snr_db": [7.0], "sir_db": [0.0, 10.0],
                   "trials": 8, "seed": 2, "channel_kind": "diagonal"},
                  open(sweep_cfg, "w"))
        outs = []
        for name in ("sw1.csv", "sw2.csv"):
            out = str(tmp_path / name)
            assert cli(["criteria", "sweep", "--config", sweep_cfg,
                        "--out", out, "--quiet"]) == EXIT_OK
            outs.append(out)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()


def test_lemma_suite_cli_config_passes():
    # the shipped verification config must hold end to end (backs criterion 4)
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = json.load(open(root / "configs" / "lemmas.json"))
    cfg["n_pairs"] = 100
    cfg["n_triples"] = 100
    report = run_lemma_suite(cfg)
    assert report["passed"]
    assert report["checks"]["monotonicity"]["status"] == "ok"
