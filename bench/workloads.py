"""The benchmark's workloads: inputs, the CLI call that solves them, and the
check of each solve's output against the stored reference values.

A workload has a pool of seeds whose expected outputs are stored in
``reference.json``. A run's ``--seed`` only chooses the order in which the
pool is visited, so every solve the benchmark makes can be checked.

Nothing here imports numpy or eeiwfa at module level: the set-up probe times
those imports itself.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

REL_TOL = 1e-9          # relative tolerance on every stored float
NE_RESIDUAL_MAX = 1e-6  # an iwfa solve must end this close to an equilibrium


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _read_harness_csv(path):
    # Harness CSVs start with one "# eeiwfa <schema>" comment line.
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


class IwfaRun:
    """``iwfa run``: one simulated waterfilling game to convergence."""

    ext = ".csv"

    def argv(self, config, seed, out):
        return ["iwfa", "run", "--config", config, "--seed", str(seed), "--out", out]

    def outputs(self, out):
        return [out]

    def read(self, out, stdout):
        # The CLI prints "<termination> after <n> slots; ..." and writes the
        # per-slot trace; the final slot's rows hold the final EE of each
        # player and the final equilibrium residual.
        words = stdout.split()
        rows = _read_harness_csv(out)
        last = int(rows[-1]["slot"])
        final = [r for r in rows if int(r["slot"]) == last]
        return {
            "termination": words[0],
            "slots": int(words[2]),
            "csv_slots": last,
            "ee": [float(r["ee"]) for r in final],
            "ne_residual": float(final[-1]["ne_residual"]),
        }

    def compare(self, got, ref):
        errs = []
        if got["termination"] != ref["termination"]:
            errs.append(f"termination {got['termination']} != {ref['termination']}")
        if not got["slots"] == got["csv_slots"] == ref["slots"]:
            errs.append(f"slots {got['slots']}/{got['csv_slots']} != {ref['slots']}")
        if len(got["ee"]) != len(ref["ee"]) or not all(
            close(a, b) for a, b in zip(got["ee"], ref["ee"])
        ):
            errs.append("final per-player EE differs from the reference")
        if not got["ne_residual"] <= NE_RESIDUAL_MAX:
            errs.append(f"NE residual {got['ne_residual']:.3e} > {NE_RESIDUAL_MAX:g}")
        return errs

    def reference(self, got):
        return {k: got[k] for k in ("termination", "slots", "ee")}


class CriteriaSweep:
    """``criteria sweep``: one seeded Monte-Carlo sweep of both criteria."""

    ext = ".csv"

    def argv(self, config, seed, out):
        return ["criteria", "sweep", "--config", config, "--seed", str(seed),
                "--out", out, "--quiet"]

    def outputs(self, out):
        return [out, os.path.splitext(out)[0] + "_cells.csv"]

    def read(self, out, stdout):
        rows = _read_harness_csv(out)
        return {
            "sr_S": [float(r["sr_S"]) for r in rows],
            "sr_Ssym": [float(r["sr_Ssym"]) for r in rows],
            "ok_qvi": [int(r["ok_qvi"]) for r in rows],
            "ok_contraction": [int(r["ok_contraction"]) for r in rows],
        }

    def compare(self, got, ref):
        errs = []
        for key in ("sr_S", "sr_Ssym"):
            if len(got[key]) != len(ref[key]) or not all(
                close(a, b) for a, b in zip(got[key], ref[key])
            ):
                errs.append(f"per-trial {key} differs from the reference")
        for key in ("ok_qvi", "ok_contraction"):
            if got[key] != ref[key]:
                errs.append(f"per-trial {key} flags differ from the reference")
        return errs

    def reference(self, got):
        return got


class LemmaSuite:
    """``verify lemmas``: the sampled bound-verification suite."""

    ext = ".json"

    def argv(self, config, seed, out):
        return ["verify", "lemmas", "--config", config, "--seed", str(seed),
                "--out", out, "--quiet"]

    def outputs(self, out):
        return [out]

    def read(self, out, stdout):
        with open(out) as fh:
            report = json.load(fh)
        ratios = {name: c["max_ratio"] for name, c in report["checks"].items()}
        ratios.update({f"sqrt_q.{q}": e["ratio"] for q, e in report["sqrt_q"].items()})
        return {"passed": report["passed"], "max_ratio": ratios}

    def compare(self, got, ref):
        errs = []
        if got["passed"] is not True:
            errs.append("lemma suite did not pass")
        g, r = got["max_ratio"], ref["max_ratio"]
        if sorted(g) != sorted(r) or not all(close(g[k], r[k]) for k in r):
            errs.append("max ratios differ from the reference")
        return errs

    def reference(self, got):
        return got


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: object
    configs: dict   # size ("full" | "tiny") -> CLI config
    pools: dict     # size -> number of seeds with stored references


_SCENARIO = {"snr_db": 7.0, "circuit_power": 1.0}
_IWFA = {"dinkelbach": {"epsilon": 1e-9}, "residual_tol": 1e-9, "ne_every": 1}
_ASYNC = {"mode": "asynchronous", "rho": 0.5, "d_max": 3}

WORKLOADS = {w.name: w for w in (
    Workload(
        "iwfa_async",
        "Q=8 n=4 asynchronous iwfa run: small matrices, so per-call best-response"
        " overhead, water level and Dinkelbach dominate; delayed profiles",
        IwfaRun(),
        {
            "full": {"scenario": {"Q": 8, "n": 4, "sir_db": 0.0, "seed": 0,
                                  "power": 4.0, **_SCENARIO},
                     "schedule": _ASYNC, "max_slots": 1200, **_IWFA},
            "tiny": {"scenario": {"Q": 3, "n": 2, "sir_db": 20.0, "seed": 0,
                                  "power": 2.0, **_SCENARIO},
                     "schedule": _ASYNC, "max_slots": 1200, **_IWFA},
        },
        {"full": 128, "tiny": 4},
    ),
    Workload(
        "iwfa_large_sync",
        "Q=64 n=8 synchronous iwfa run: the O(Q^2 n^3) MUI covariance dominates"
        " and every player updates every slot",
        IwfaRun(),
        {
            "full": {"scenario": {"Q": 64, "n": 8, "sir_db": 5.0, "seed": 0,
                                  "power": 8.0, **_SCENARIO},
                     "schedule": {"mode": "synchronous"}, "max_slots": 400, **_IWFA},
            "tiny": {"scenario": {"Q": 4, "n": 3, "sir_db": 20.0, "seed": 0,
                                  "power": 3.0, **_SCENARIO},
                     "schedule": {"mode": "synchronous"}, "max_slots": 400, **_IWFA},
        },
        {"full": 16, "tiny": 4},
    ),
    Workload(
        "criteria_sweep",
        "Q=8 n=4 diagonal criteria sweep, 6 cells x 10 trials: spectral radius and"
        " scenario generation dominate; never calls best_response",
        CriteriaSweep(),
        {
            "full": {"Q": 8, "n": 4, "snr_db": [0.0, 10.0], "sir_db": [0.0, 10.0, 20.0],
                     "trials": 10, "channel_kind": "diagonal",
                     "snr_convention": "per-stream"},
            "tiny": {"Q": 3, "n": 2, "snr_db": [5.0], "sir_db": [0.0, 10.0],
                     "trials": 3, "channel_kind": "diagonal",
                     "snr_convention": "per-stream"},
        },
        {"full": 32, "tiny": 4},
    ),
    Workload(
        "lemma_suite",
        "verify lemmas with 500 pairs and 500 triples: the only workload running"
        " qvi_map, the verify_* samplers and psd_trace_projection",
        LemmaSuite(),
        {
            "full": {"scenario": {"Q": 8, "n": 4, "sir_db": 20.0, "seed": 3,
                                  "power": 4.0, **_SCENARIO},
                     "n_pairs": 500, "n_triples": 500, "slack": 1e-9,
                     "sqrt_q": [2, 4, 8]},
            "tiny": {"scenario": {"Q": 3, "n": 2, "sir_db": 20.0, "seed": 3,
                                  "power": 2.0, **_SCENARIO},
                     "n_pairs": 10, "n_triples": 10, "slack": 1e-9,
                     "sqrt_q": [2]},
        },
        {"full": 16, "tiny": 4},
    ),
)}


def pool_order(workload, size, seed):
    """The pool seeds in the order a run with ``seed`` visits them."""
    return random.Random(seed).sample(range(workload.pools[size]), workload.pools[size])


@dataclass
class Outcome:
    seconds: float
    errors: list
    got: dict | None
    digest: str


class Runner:
    """Writes a workload's config into ``workdir`` and solves pool seeds
    through ``cli_module.cli``, looked up at every call so a wrapped entry
    point is used when tracing is on."""

    def __init__(self, cli_module, workload, size, workdir):
        self.cli = cli_module
        self.workload = workload
        self.kind = workload.kind
        self.config = os.path.join(workdir, f"{workload.name}_{size}.json")
        with open(self.config, "w") as fh:
            json.dump(workload.configs[size], fh)
        self.out = os.path.join(workdir, f"{workload.name}_{size}_out{self.kind.ext}")

    def solve(self, seed, ref=None):
        """Run one solve; errors list every way it failed (empty on success).

        Only the ``cli`` call is timed. With ``ref`` None no reference
        comparison is made (used while building the reference file).
        """
        buf = io.StringIO()
        errors = []
        got = None
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                code = self.cli.cli(self.kind.argv(self.config, seed, self.out))
            except Exception as exc:  # a crash is one failed solve, not the end of the run
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if code != 0:
            errors.append(f"exit status {code}")
        else:
            try:
                got = self.kind.read(self.out, buf.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if got is not None and ref is not None:
            errors.extend(self.kind.compare(got, ref))
        return Outcome(elapsed, errors, got, self._digest())

    def _digest(self):
        h = hashlib.sha256()
        for path in self.kind.outputs(self.out):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()
