"""Experiment drivers behind the CLI, and the one reader of their configs.

Each command's JSON config goes through :func:`read_config`, section by
section, before any work starts. The drivers run Monte-Carlo criterion
sweeps over an SNR/SIR grid, iterative-waterfilling simulations, the
bound-verification suite and single best-response and criteria
evaluations. All outputs are seeded and byte-reproducible: CSV files start
with a versioned schema comment, floats are written in shortest round-trip
form, and row order follows trial indices.
"""

import csv
import dataclasses
import itertools
import math
import os

import numpy as np

from .best_response import DinkelbachConfig, best_response
from .equilibrium import (
    PowerSmoothnessConfig,
    criteria,
    estimate_power_smoothness,
    identity_channel_scenario,
    interference_matrix_rowrank,
    interference_matrix_sampled,
    interference_matrix_square,
    sqrtq_observed_ratio,
    verify_lipschitz,
    verify_monotonicity,
    verify_power_set_smoothness,
)
from .errors import CheckFailure, InvalidInputError, check_count, check_number, check_path
from .iwfa import UpdateSchedule, run_iwfa, write_trace_csv
from .model import (StrategyProfile, _complex_to_lists, generate_scenario, load_scenario,
                    reduce_scenario)

OUT_DIR_ENV = "EEIWFA_OUT_DIR"


def resolve_out(path, default_name):
    """Pick an output path: explicit > $EEIWFA_OUT_DIR/default > ./default."""
    if path:
        return check_path(path, "out")
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


REQUIRED = object()   # the table default of a key that every config must give


def read_config(config, table, name, seed=None):
    """The config object ``config`` over the defaults of ``table`` (key ->
    default), as a new dict; ``seed``, when not None, overrides its ``seed``.

    A non-object, an unknown key, a key whose default is REQUIRED left out
    and a non-list where the default is a list raise InvalidInputError.
    Scalar values pass unconverted: the function that takes each checks it.
    """
    if not isinstance(config, dict):
        raise InvalidInputError(f"{name} must be an object")
    unknown = sorted(set(config) - set(table))
    if unknown:
        raise InvalidInputError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    cfg = {**table, **config, **({} if seed is None else {"seed": seed})}
    missing = [key for key, value in cfg.items() if value is REQUIRED]
    if missing:
        raise InvalidInputError(f"{name} is missing {', '.join(missing)}")
    for key, default in table.items():
        if isinstance(default, list) and not isinstance(cfg[key], list):
            raise InvalidInputError(f"{key} in {name} must be a list")
    return cfg


SCENARIO_DEFAULTS = {"Q": REQUIRED, "n": REQUIRED, "snr_db": REQUIRED, "sir_db": REQUIRED,
                     "seed": REQUIRED, "power": None, "circuit_power": 1.0,
                     "channel_kind": "full", "snr_convention": "per-stream"}


def scenario_config(section, seed=None):
    """The checked ``scenario`` section: ``{"file": path}`` alone, or the
    inline keys of SCENARIO_DEFAULTS, whose seed ``seed`` overrides."""
    if isinstance(section, dict) and "file" in section:
        return read_config(section, {"file": REQUIRED}, "config section 'scenario'")
    return read_config(section, SCENARIO_DEFAULTS, "config section 'scenario'", seed)


def scenario_from_config(section, seed=None):
    """Load or generate the scenario of a config's ``scenario`` section."""
    cfg = scenario_config(section, seed)
    return load_scenario(cfg["file"]) if "file" in cfg else generate_scenario(**cfg)


def dinkelbach_config(section, name="dinkelbach"):
    """DinkelbachConfig of a config's ``dinkelbach`` section, whose keys are
    ``epsilon`` and ``max_iters``."""
    table = dataclasses.asdict(DinkelbachConfig())
    return DinkelbachConfig(**read_config(section, table, f"config section '{name}'"))


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
    "power": None, "circuit_power": 1.0, "out": None,
}

TRIAL_HEADER = ["snr_db", "sir_db", "trial", "seed", "sr_S", "sr_Ssym",
                "sigma_max_IplusS", "qvi_rhs", "contraction_rhs",
                "ok_qvi", "ok_contraction"]
CELL_HEADER = ["snr_db", "sir_db", "trials", "frac_contraction",
               "stderr_contraction", "frac_qvi", "stderr_qvi"]


def sweep_config(config, seed=None):
    """The checked ``criteria sweep`` config, its counts ints, its grids floats."""
    cfg = read_config(config, SWEEP_DEFAULTS, "sweep config", seed)
    cfg["seed"] = check_count(cfg["seed"], "seed", 0)
    for key in ("Q", "n", "trials"):
        cfg[key] = check_count(cfg[key], key, 1)
    for key in ("snr_db", "sir_db"):
        cfg[key] = [check_number(x, key) for x in cfg[key]]
        if not cfg[key]:
            raise InvalidInputError("sweep needs non-empty SNR and SIR grids")
    return cfg


# A sweep evaluates a cell's trials in chunks of at most 4096 channel
# matrices, and of at most one Q = 64, n = 8 scenario's entries when the
# matrices are larger: the chunk's scenarios are held together.
_CHUNK_MATRICES = 4096
_CHUNK_ENTRIES = 64 * 64 * 8 * 8


def _sweep_reports(cell, seeds):
    """The criteria reports of the trials ``seeds`` of a sweep cell, each
    stage taking the whole list at once. A list of several that fails runs
    again one trial at a time, so that its error is the per-trial loop's first."""
    try:
        return criteria(interference_matrix_square(reduce_scenario(
            generate_scenario(**cell, seed=seeds))))
    except (ValueError, RuntimeError):   # the package's errors, and numpy's LinAlgError
        if len(seeds) > 1:
            for sd in seeds:
                _sweep_reports(cell, [sd])
        raise


def run_criteria_sweep(config, out=None, seed=None, verbose=False):
    """Monte-Carlo sweep of the uniqueness criteria over an SNR/SIR grid.

    Writes one row per trial plus a per-cell summary file with success
    fractions and their binomial standard errors; checks that the success
    fraction is non-decreasing in SIR at fixed SNR (3-sigma allowance from
    the pooled two-proportion standard error of each adjacent pair of
    cells) and that every trial satisfies ok_qvi => ok_contraction.
    """
    cfg = sweep_config(config, seed)
    master, trials, snrs, sirs = cfg["seed"], cfg["trials"], cfg["snr_db"], cfg["sir_db"]
    base = {key: value for key, value in cfg.items()
            if key in SCENARIO_DEFAULTS and key != "seed"}
    out = resolve_out(out or cfg["out"], "criteria_sweep.csv")
    cells_out = os.path.splitext(out)[0] + "_cells.csv"
    Q, n = cfg["Q"], cfg["n"]
    step = max(1, min(_CHUNK_MATRICES // (Q * Q), _CHUNK_ENTRIES // (Q * Q * n * n)))

    rows = []
    cell_rows = []
    fractions = {}
    for ci, (snr, sir) in enumerate(itertools.product(snrs, sirs)):
        seeds = [int(np.random.SeedSequence((master, ci, t)).generate_state(1)[0])
                 for t in range(trials)]
        cell = {**base, "snr_db": snr, "sir_db": sir}
        reps = [rep for start in range(0, trials, step)
                for rep in _sweep_reports(cell, seeds[start:start + step])]
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
        fractions[(snr, sir)] = f_c
        cell_rows.append([snr, sir, trials, f_c, se(f_c), f_q, se(f_q)])
        if verbose:
            print(f"cell snr={snr} sir={sir}: contraction {f_c:.3f} qvi {f_q:.3f}")

    for snr in snrs:
        ordered = sorted(sirs)
        for lo, hi in zip(ordered, ordered[1:]):
            f1, f2 = fractions[(snr, lo)], fractions[(snr, hi)]
            # pooled two-proportion standard error: the per-cell Wald errors
            # are both 0 when each cell is all-or-nothing, this one only
            # when the two fractions agree
            pooled = (f1 + f2) / 2.0
            if f2 < f1 - 3.0 * math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials) - 1e-12:
                raise CheckFailure(
                    f"success fraction decreased in SIR at snr={snr}:"
                    f" {f1:.4f}@{lo} -> {f2:.4f}@{hi} beyond 3 sigma"
                )

    tag = (f"criteria-sweep schema v1 seed={master}"
           f" channel_kind={cfg['channel_kind']} snr_convention={cfg['snr_convention']}")
    write_csv(out, tag, TRIAL_HEADER, rows)
    write_csv(cells_out, tag, CELL_HEADER, cell_rows)
    return {"out": out, "cells_out": cells_out, "rows": len(rows)}


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


def lemma_config(config, seed=None):
    """The checked ``verify lemmas`` config; ``scenario`` stays as given."""
    cfg = read_config(config, LEMMA_DEFAULTS, "lemma config", seed)
    scenario_config(cfg["scenario"])
    cfg["seed"] = check_count(cfg["seed"], "seed", 0)
    cfg["n_pairs"] = check_count(cfg["n_pairs"], "n_pairs", 0)
    cfg["n_triples"] = check_count(cfg["n_triples"], "n_triples", 0)
    cfg["sqrt_q"] = [check_count(Q, f"sqrt_q[{i}]", 1) for i, Q in enumerate(cfg["sqrt_q"])]
    return cfg


def run_lemma_suite(config, seed=None, verbose=False):
    """Verify the Lipschitz, strong-monotonicity and power-set-smoothness
    bounds by sampling, plus the identity-channel sqrt(Q) ratio.

    Returns a JSON-ready report with ``passed`` false on any violation.
    """
    cfg = lemma_config(config, seed)
    sample_seed, n_pairs = cfg["seed"], cfg["n_pairs"]
    rs = reduce_scenario(scenario_from_config(cfg["scenario"]))
    reports = [
        verify_lipschitz(rs, n_pairs, seed=sample_seed, slack=cfg["slack"]),
        verify_monotonicity(rs, n_pairs, seed=sample_seed + 1, slack=cfg["slack"]),
        verify_power_set_smoothness(rs, cfg["n_triples"], seed=sample_seed + 2,
                                    slack=cfg["slack"]),
    ]
    sqrt_q = {}
    for Q in cfg["sqrt_q"]:
        ident = reduce_scenario(identity_channel_scenario(Q, n=2))
        ratio = sqrtq_observed_ratio(ident, seed=sample_seed)
        expected = math.sqrt(ident.Q)
        ok = abs(ratio - expected) <= 1e-9
        sqrt_q[str(ident.Q)] = {"ratio": ratio, "expected": expected, "ok": ok}
    passed = all(r.passed for r in reports) and all(e["ok"] for e in sqrt_q.values())
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


# --- iterative waterfilling run ----------------------------------------------

IWFA_DEFAULTS = {"scenario": REQUIRED, "schedule": {}, "dinkelbach": {}, "max_slots": 1000,
                 "residual_tol": 1e-9, "ne_every": 1, "thin": 1, "seed": 0, "out": None}
SCHEDULE_DEFAULTS = {"mode": "synchronous", "rho": 0.5, "d_max": 0}


def iwfa_config(config, seed=None):
    """The checked ``iwfa run`` config; ``seed`` overrides both its seeds."""
    cfg = read_config(config, IWFA_DEFAULTS, "iwfa run config", seed)
    scenario_config(cfg["scenario"], seed)
    cfg["schedule"] = read_config(cfg["schedule"], SCHEDULE_DEFAULTS, "config section 'schedule'")
    cfg["dinkelbach"] = dinkelbach_config(cfg["dinkelbach"])
    cfg["thin"] = check_count(cfg["thin"], "thin", 1)
    return cfg


def simulate_iwfa(config, out=None, seed=None):
    """Run the configured waterfilling game and write its trace CSV."""
    cfg = iwfa_config(config, seed)
    rs = reduce_scenario(scenario_from_config(cfg["scenario"], seed))
    schedule = UpdateSchedule(Q=rs.Q, seed=cfg["seed"], **cfg["schedule"])
    trace = run_iwfa(
        rs, schedule, max_slots=cfg["max_slots"], residual_tol=cfg["residual_tol"],
        cfg=cfg["dinkelbach"], ne_every=cfg["ne_every"],
    )
    out = resolve_out(out or cfg["out"], "iwfa_trace.csv")
    write_trace_csv(trace, out, thin=cfg["thin"])
    return {"trace": trace, "out": out}


# --- single best-response / criteria evaluations ------------------------------

BEST_RESPONSE_DEFAULTS = {"scenario": REQUIRED, "player": 0, "dinkelbach": {}}


def best_response_config(config, seed=None):
    """The checked ``br solve`` config, with ``player`` as an int."""
    cfg = read_config(config, BEST_RESPONSE_DEFAULTS, "br solve config")
    scenario_config(cfg["scenario"], seed)
    cfg["player"] = check_count(cfg["player"], "player", 0)
    cfg["dinkelbach"] = dinkelbach_config(cfg["dinkelbach"])
    return cfg


def solve_best_response(config, seed=None):
    """Best response of one player against the uniform full-power profile."""
    cfg = best_response_config(config, seed)
    rs = reduce_scenario(scenario_from_config(cfg["scenario"], seed))
    q = cfg["player"]
    if q >= rs.Q:
        raise InvalidInputError(f"player index {q} out of range")
    res = best_response(rs, q, StrategyProfile.uniform(rs), cfg["dinkelbach"])
    return {
        "player": q,
        "p_unconstrained": res.p_unconstrained,
        "p_hat": res.p_hat,
        "water_level": res.water_level,
        "dinkelbach_iters": res.dinkelbach_iters,
        "zero_power": res.zero_power,
        "Qbr": _complex_to_lists(res.Qbr),
    }


CRITERIA_DEFAULTS = {"scenario": REQUIRED, "variant": "square", "n_samples": 50,
                     "sample_seed": 0, "smoothness": None}


def criteria_config(config, seed=None):
    """The checked ``criteria eval`` config, ``smoothness`` built when given."""
    cfg = read_config(config, CRITERIA_DEFAULTS, "criteria eval config")
    scenario_config(cfg["scenario"], seed)
    if cfg["variant"] not in ("square", "rowrank", "sampled"):
        raise InvalidInputError(f"unknown variant {cfg['variant']!r}")
    if cfg["smoothness"] is not None:
        table = dataclasses.asdict(PowerSmoothnessConfig())
        smooth = read_config(cfg["smoothness"], table, "config section 'smoothness'")
        smooth["dinkelbach"] = dinkelbach_config(smooth["dinkelbach"], "smoothness.dinkelbach")
        cfg["smoothness"] = PowerSmoothnessConfig(**smooth)
    return cfg


def evaluate_criteria(config, seed=None):
    """The criteria report of one scenario as a dict, for the chosen matrix
    variant; with a ``smoothness`` section, the power-smoothness estimate
    (weighted by the report's Perron vector) is added as its last key."""
    cfg = criteria_config(config, seed)
    s = scenario_from_config(cfg["scenario"], seed)
    rs = reduce_scenario(s)
    if cfg["variant"] == "square":
        S = interference_matrix_square(rs)
    elif cfg["variant"] == "rowrank":
        S = interference_matrix_rowrank(s)
    else:
        S = interference_matrix_sampled(rs, cfg["n_samples"], cfg["sample_seed"])
    report = criteria(S)
    out = report.to_dict()
    if cfg["smoothness"] is not None:
        out["power_smoothness"] = dataclasses.asdict(
            estimate_power_smoothness(rs, cfg["smoothness"], report.perron_w))
    return out

