"""Batch experiment drivers behind the CLI.

Monte-Carlo criterion sweeps over an SNR/SIR grid, paired synchronous and
asynchronous convergence runs, and the bound-verification suite. All outputs
are seeded and byte-reproducible: CSV files start with a versioned schema
comment, floats are written in shortest round-trip form, and row order
follows trial indices.
"""

import csv
import dataclasses
import json
import math
import os

import numpy as np

from .best_response import DinkelbachConfig, best_response
from .equilibrium import (
    PowerSmoothnessConfig,
    criteria,
    identity_channel_scenario,
    interference_matrix_rowrank,
    interference_matrix_sampled,
    interference_matrix_square,
    sqrtq_observed_ratio,
    verify_lipschitz,
    verify_monotonicity,
    verify_power_set_smoothness,
)
from .errors import CheckFailure, InvalidInputError, check_count
from .iwfa import block_max_distance, kept_slots, make_schedule, run_iwfa
from .model import StrategyProfile, generate_scenario, load_scenario, reduce_scenario

OUT_DIR_ENV = "EEIWFA_OUT_DIR"


def resolve_out(path, default_name):
    """Pick an output path: explicit > $EEIWFA_OUT_DIR/default > ./default."""
    if path:
        return path
    base = os.environ.get(OUT_DIR_ENV, "").strip()
    return os.path.join(base, default_name) if base else default_name


def _fmt(x):
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, float):
        return repr(x)
    return x


def write_csv(path, schema, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# eeiwfa {schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def read_csv(path):
    """Read back a harness CSV: (schema line, header, rows as strings)."""
    with open(path, newline="") as fh:
        schema = None
        lines = []
        for line in fh:
            if line.startswith("#") and schema is None:
                schema = line[1:].strip()
                continue
            lines.append(line)
        rows = list(csv.reader(lines))
    return schema, rows[0], rows[1:]


def scenario_from_config(cfg, seed=None):
    """Realize the ``scenario`` section of a config.

    Either ``{"file": path}`` or inline generation parameters
    (Q, n, snr_db, sir_db, seed, power, circuit_power, channel_kind,
    snr_convention). ``seed`` overrides the config's seed.
    """
    if "file" in cfg:
        return load_scenario(cfg["file"])
    try:
        return generate_scenario(
            Q=cfg["Q"], n=cfg["n"], snr_db=cfg["snr_db"], sir_db=cfg["sir_db"],
            seed=seed if seed is not None else cfg["seed"],
            power=cfg.get("power"),
            circuit_power=cfg.get("circuit_power", 1.0),
            channel_kind=cfg.get("channel_kind", "full"),
            snr_convention=cfg.get("snr_convention", "per-stream"),
        )
    except KeyError as exc:
        raise InvalidInputError(f"scenario config is missing {exc}") from None


def _trial_seed(master, cell, trial):
    return int(np.random.SeedSequence((master, cell, trial)).generate_state(1)[0])


def _check_keys(section, allowed, name):
    """``section`` when it is a config object whose keys are all in
    ``allowed``; a non-object or an unknown key raises InvalidInputError."""
    if not isinstance(section, dict):
        raise InvalidInputError(f"{name} must be an object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise InvalidInputError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return section


def _with_defaults(config, defaults, name, extra=()):
    """``defaults`` updated by ``config``, whose keys must be theirs or ``extra``."""
    config = {} if config is None else config
    return {**defaults, **_check_keys(config, {*defaults, *extra}, name)}


# --- criterion sweep --------------------------------------------------------

SWEEP_DEFAULTS = {
    "Q": 8,
    "n": 4,
    "snr_db": [0.0, 5.0, 10.0, 15.0],
    "sir_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
    "trials": 200,
    "seed": 0,
    "channel_kind": "diagonal",
    "snr_convention": "per-stream",
}

TRIAL_HEADER = ["snr_db", "sir_db", "trial", "seed", "sr_S", "sr_Ssym",
                "sigma_max_IplusS", "qvi_rhs", "contraction_rhs",
                "ok_qvi", "ok_contraction"]
CELL_HEADER = ["snr_db", "sir_db", "trials", "frac_contraction",
               "stderr_contraction", "frac_qvi", "stderr_qvi"]


def run_criteria_sweep(config=None, out=None, seed=None, verbose=False):
    """Monte-Carlo sweep of the uniqueness criteria over an SNR/SIR grid.

    Writes one row per trial plus a per-cell summary file with success
    fractions and their binomial standard errors; checks that the success
    fraction is non-decreasing in SIR at fixed SNR (3-sigma allowance) and
    that every trial satisfies ok_qvi => ok_contraction.
    """
    cfg = _with_defaults(config, SWEEP_DEFAULTS, "sweep config",
                         ("power", "circuit_power", "out"))
    master = check_count(seed if seed is not None else cfg["seed"], "seed", 0)
    trials = check_count(cfg["trials"], "trials", 1)
    snrs = [float(x) for x in cfg["snr_db"]]
    sirs = [float(x) for x in cfg["sir_db"]]
    if not snrs or not sirs:
        raise InvalidInputError("sweep needs non-empty SNR and SIR grids")
    out = resolve_out(out or cfg.get("out"), "criteria_sweep.csv")
    cells_out = os.path.splitext(out)[0] + "_cells.csv"

    rows = []
    cell_rows = []
    fractions = {}
    for ci, (snr, sir) in enumerate(
        (a, b) for a in snrs for b in sirs
    ):
        seeds = [_trial_seed(master, ci, t) for t in range(trials)]
        cell = {**cfg, "snr_db": snr, "sir_db": sir}
        reps = [criteria(None, interference_matrix_square(
            reduce_scenario(scenario_from_config(cell, seed=sd)))) for sd in seeds]
        n_c = n_q = 0
        for t, (sd, rep) in enumerate(zip(seeds, reps)):
            if rep.interference_ok_qvi and not rep.interference_ok_contraction:
                raise CheckFailure(
                    f"trial {t} at ({snr}, {sir}) violates the per-trial"
                    " criterion implication"
                )
            n_c += rep.interference_ok_contraction
            n_q += rep.interference_ok_qvi
            rows.append([
                snr, sir, t, sd, rep.sr_S, rep.sr_Ssym, rep.sigma_max_IplusS,
                rep.qvi_rhs_constant, rep.contraction_rhs_constant,
                rep.interference_ok_qvi, rep.interference_ok_contraction,
            ])
        f_c, f_q = n_c / trials, n_q / trials
        se = lambda f: math.sqrt(f * (1.0 - f) / trials)
        fractions[(snr, sir)] = (f_c, se(f_c))
        cell_rows.append([snr, sir, trials, f_c, se(f_c), f_q, se(f_q)])
        if verbose:
            print(f"cell snr={snr} sir={sir}: contraction {f_c:.3f} qvi {f_q:.3f}")

    for snr in snrs:
        ordered = sorted(sirs)
        for lo, hi in zip(ordered, ordered[1:]):
            f1, s1 = fractions[(snr, lo)]
            f2, s2 = fractions[(snr, hi)]
            if f2 < f1 - 3.0 * math.sqrt(s1 ** 2 + s2 ** 2) - 1e-12:
                raise CheckFailure(
                    f"success fraction decreased in SIR at snr={snr}:"
                    f" {f1:.4f}@{lo} -> {f2:.4f}@{hi} beyond 3 sigma"
                )

    tag = (f"criteria-sweep schema v1 seed={master}"
           f" channel_kind={cfg['channel_kind']} snr_convention={cfg['snr_convention']}")
    write_csv(out, tag, TRIAL_HEADER, rows)
    write_csv(cells_out, tag, CELL_HEADER, cell_rows)
    return {"out": out, "cells_out": cells_out, "rows": len(rows)}


# --- convergence experiment -------------------------------------------------

CONV_DEFAULTS = {
    "Q": 8,
    "n": 4,
    "snr_db": 7.0,
    "sir_db": 0.0,
    "power": 4.0,
    "circuit_power": 1.0,
    "seeds": [0],
    "epsilon": 1e-9,
    "max_slots": 1000,
    "residual_tol": 1e-9,
    "rho": 0.5,
    "d_max": 3,
    "thin": 1,
    "ne_every": 1,
}

CONV_TRACE_HEADER = ["scenario_seed", "mode", "slot", "player", "ee",
                     "block_residual", "ne_residual", "updated_flag"]


def _conv_summary_header(Q):
    return (["scenario_seed", "sync_termination", "sync_slots",
             "sync_ne_residual", "async_termination", "async_slots",
             "async_ne_residual", "endpoint_blockmax_distance"]
            + [f"sync_final_ee_{q}" for q in range(Q)]
            + [f"async_final_ee_{q}" for q in range(Q)])


def _final(values):
    # A run that ends in an error before its first slot has no last value.
    return float(values[-1]) if len(values) else float("nan")


def run_convergence_experiment(config=None, out=None, seed=None, verbose=False):
    """Paired synchronous/asynchronous runs over a list of scenario seeds.

    Records the full EE and residual trajectories of both runs plus a
    summary row per seed with the block-max distance between the two
    endpoints. Trace errors are recorded per seed, not fatal to the batch.
    """
    cfg = _with_defaults(config, CONV_DEFAULTS, "convergence config", ("out",))
    seeds = [check_count(x, "seed", 0)
             for x in ([seed] if seed is not None else cfg["seeds"])]
    if not seeds:
        raise InvalidInputError("the convergence experiment needs at least one seed")
    out = resolve_out(out or cfg.get("out"), "convergence.csv")
    summary_out = os.path.splitext(out)[0] + "_summary.csv"
    dk = DinkelbachConfig(epsilon=cfg["epsilon"])

    rows = []
    summary = []
    results = {}
    for sd in seeds:
        rs = reduce_scenario(scenario_from_config(cfg, seed=sd))
        traces = {}
        for mode in ("synchronous", "asynchronous"):
            # only the asynchronous schedule draws from its params and seed
            sched = make_schedule(
                mode, rs.Q, {"rho": cfg["rho"], "d_max": cfg["d_max"]}, seed=sd
            )
            tr = run_iwfa(
                rs, sched, max_slots=cfg["max_slots"],
                residual_tol=cfg["residual_tol"], cfg=dk, ne_every=cfg["ne_every"],
            )
            traces[mode] = tr
            for i in kept_slots(len(tr.slots), cfg["thin"]):
                for q in range(rs.Q):
                    rows.append([
                        sd, mode, int(tr.slots[i]), q, float(tr.ee[i, q]),
                        float(tr.block_residual[i]), float(tr.ne_residual[i]),
                        bool(tr.updated[i, q]),
                    ])
            if verbose:
                print(f"seed {sd} {mode}: {tr.termination} after"
                      f" {len(tr.slots)} slots")
        sync, asyn = traces["synchronous"], traces["asynchronous"]
        dist = block_max_distance(
            sync.final_profile, asyn.final_profile, sync.weights
        )
        results[sd] = {"synchronous": sync, "asynchronous": asyn,
                       "endpoint_distance": float(dist)}
        summary.append(
            [sd, sync.termination, len(sync.slots), _final(sync.ne_residual),
             asyn.termination, len(asyn.slots), _final(asyn.ne_residual),
             float(dist)]
            + [_final(sync.ee[:, q]) for q in range(rs.Q)]
            + [_final(asyn.ee[:, q]) for q in range(rs.Q)]
        )

    tag = "convergence schema v1"
    write_csv(out, tag, CONV_TRACE_HEADER, rows)
    write_csv(summary_out, tag, _conv_summary_header(rs.Q), summary)
    return {"out": out, "summary_out": summary_out, "results": results}


# --- lemma-verification suite ------------------------------------------------

LEMMA_DEFAULTS = {
    "scenario": {"Q": 8, "n": 4, "snr_db": 7.0, "sir_db": 20.0, "seed": 3,
                 "power": 4.0, "circuit_power": 1.0},
    "n_pairs": 500,
    "n_triples": 500,
    "seed": 0,
    "slack": 1e-9,
    "sqrt_q": [2, 4, 8],
}


def run_lemma_suite(config=None, seed=None, verbose=False):
    """Verify the Lipschitz, strong-monotonicity and power-set-smoothness
    bounds by sampling, plus the identity-channel sqrt(Q) ratio.

    Returns a JSON-ready report with ``passed`` false on any violation.
    """
    cfg = _with_defaults(config, LEMMA_DEFAULTS, "lemma config")
    sample_seed = check_count(seed if seed is not None else cfg["seed"], "seed", 0)
    n_pairs = check_count(cfg["n_pairs"], "n_pairs", 0)
    rs = reduce_scenario(scenario_from_config(cfg["scenario"]))
    reports = [
        verify_lipschitz(rs, n_pairs, seed=sample_seed, slack=cfg["slack"]),
        verify_monotonicity(rs, n_pairs, seed=sample_seed + 1, slack=cfg["slack"]),
        verify_power_set_smoothness(rs, cfg["n_triples"], seed=sample_seed + 2,
                                    slack=cfg["slack"]),
    ]
    sqrt_q = {}
    sqrt_ok = True
    for Q in cfg["sqrt_q"]:
        ident = reduce_scenario(identity_channel_scenario(Q, n=2))
        ratio = sqrtq_observed_ratio(ident, seed=sample_seed)
        expected = math.sqrt(ident.Q)
        ok = abs(ratio - expected) <= 1e-9
        sqrt_ok = sqrt_ok and ok
        sqrt_q[str(ident.Q)] = {"ratio": ratio, "expected": expected, "ok": ok}
    passed = all(r.passed for r in reports) and sqrt_ok
    report = {
        "scenario": dict(cfg["scenario"]),
        "n_pairs": n_pairs,
        "checks": {r.name: r.to_dict() for r in reports},
        "sqrt_q": sqrt_q,
        "passed": bool(passed),
    }
    if verbose:
        for r in reports:
            print(f"{r.name}: {r.status} (max ratio {r.max_ratio:.6g},"
                  f" constant {r.constant:.6g})")
        for Q, entry in sqrt_q.items():
            print(f"sqrt(Q) ratio Q={Q}: {entry['ratio']:.12f}"
                  f" vs {entry['expected']:.12f}")
    return report


# --- single best-response / criteria evaluations ------------------------------

def _section(cls, section, name):
    """``cls`` built from the config object ``section``; a non-object or an
    unknown key raises InvalidInputError, not a TypeError."""
    fields = [f.name for f in dataclasses.fields(cls)]
    return cls(**_check_keys(section, fields, f"config section '{name}'"))


def dinkelbach_config(section, name="dinkelbach"):
    """DinkelbachConfig of a config's ``dinkelbach`` section, whose keys are
    ``epsilon`` and ``max_iters``."""
    return _section(DinkelbachConfig, section, name)


def solve_best_response(config, seed=None):
    """Best response of one player against a profile (uniform by default)."""
    rs = reduce_scenario(scenario_from_config(config["scenario"], seed=seed))
    q = check_count(config.get("player", 0), "player", 0)
    if q >= rs.Q:
        raise InvalidInputError(f"player index {q} out of range")
    dk = dinkelbach_config(config.get("dinkelbach", {}))
    frac = float(config.get("profile_fraction", 1.0))
    profile = StrategyProfile.uniform(rs, fraction=frac)
    res = best_response(rs, q, profile, dk)
    from .model import _complex_to_lists

    return {
        "player": q,
        "p_unconstrained": res.p_unconstrained,
        "p_hat": res.p_hat,
        "water_level": res.water_level,
        "dinkelbach_iters": res.dinkelbach_iters,
        "zero_power": res.zero_power,
        "Qbr": _complex_to_lists(res.Qbr),
    }


def evaluate_criteria(config, seed=None):
    """CriteriaReport for one scenario, choosing the matrix variant."""
    s = scenario_from_config(config["scenario"], seed=seed)
    rs = reduce_scenario(s)
    variant = config.get("variant", "square")
    if variant == "square":
        S = interference_matrix_square(rs)
    elif variant == "rowrank":
        S = interference_matrix_rowrank(s)
    elif variant == "sampled":
        S = interference_matrix_sampled(
            rs, config.get("n_samples", 50), config.get("sample_seed", 0)
        )
    else:
        raise InvalidInputError(f"unknown variant {variant!r}")
    smooth_cfg = None
    if "smoothness" in config:
        smooth = config["smoothness"]
        if isinstance(smooth, dict) and "dinkelbach" in smooth:
            dk = dinkelbach_config(smooth["dinkelbach"], "smoothness.dinkelbach")
            smooth = {**smooth, "dinkelbach": dk}
        smooth_cfg = _section(PowerSmoothnessConfig, smooth, "smoothness")
    rep = criteria(rs, S, smoothness_cfg=smooth_cfg)
    return rep.to_dict()


def write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
