#!/usr/bin/env python3
"""Time-to-solution benchmark of eeiwfa.

    python3 bench/run.py --workload iwfa_async --seed 1 --seconds 25 --trace 0

Solves distinct inputs of the workload through ``eeiwfa.cli.cli`` in this
process for about ``--seconds`` of solve time, checks every solve against
``bench/reference.json`` and prints the end-to-end metrics (``--trace 0``)
or, from a separate traced run, the per-layer metrics (``--trace 1``). The
end-to-end times are scaled to a reference machine speed with a yardstick
(see ``yardstick``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the environment and the run. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, Runner, pool_order  # noqa: E402

SETUP_PROBES = 9
# Pinned before numpy loads, so small-matrix timings do not depend on how
# many BLAS threads the machine would otherwise start.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
BLAS_THREADS = "1"

END_TO_END = {   # name -> (unit, better)
    "solve_s_p50": ("s", "lower"),
    "solves_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


# A shared machine switches between a faster and a slower state every few
# seconds, up to 1.6x apart, which is more than a regression bound. It is
# not steal time, and process CPU time slows down with wall time, so neither
# helps. A run therefore also times a fixed yardstick, which does not use
# the program, between solves, and scales each solve to the yardstick's
# speed on the reference machine: reference s = wall s * YARDSTICK_REF_S /
# yardstick s. The yardstick mixes small-matrix numpy calls, which slow down
# like iwfa_large_sync, with plain interpreter arithmetic, which slows down
# like iwfa_async; bench/README.md has the runs that chose it.
YARDSTICK_REF_S = 0.0053   # on the machine of bench/README.md, in its faster state
YARDSTICK_REPS = 4


def yardstick():
    """Seconds of the fixed yardstick work, the fastest of YARDSTICK_REPS."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a @ a.conj().T
    b = rng.standard_normal((8, 8))
    best = float("inf")
    for _ in range(YARDSTICK_REPS):
        t0 = time.perf_counter()
        x = 0.0
        for _ in range(200):
            w, _ = np.linalg.eigh(a)
            x += float(w[0]) + float((b @ b).sum())
        for i in range(30000):
            x += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(seconds, yardstick_s):
    return seconds * YARDSTICK_REF_S / yardstick_s


class MissingProgram(Exception):
    pass


def import_program():
    """Import ``eeiwfa.cli`` from this checkout's src/ (never an installed copy)."""
    if not (SRC / "eeiwfa" / "__init__.py").is_file():
        raise MissingProgram(f"no eeiwfa sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import eeiwfa.cli

    if not Path(eeiwfa.cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"eeiwfa was imported from {eeiwfa.cli.__file__}")
    return eeiwfa.cli


def _workdir():
    return tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT)


def set_up(workload, size, workdir):
    """Import the program, write the workload's inputs and make one untimed
    solve of the tiny variant, which JIT-compiles kernels when numba is on."""
    cli = import_program()
    Runner(cli, workload, "tiny", workdir).solve(0)
    return Runner(cli, workload, size, workdir)


def probe(name):
    """Set-up wall seconds of this fresh interpreter and the yardstick
    seconds right after it; run with --probe."""
    t0 = time.perf_counter()
    with _workdir() as wd:
        set_up(WORKLOADS[name], "full", wd)
        return time.perf_counter() - t0, yardstick()


def setup_seconds(name, probes):
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def load_references(name):
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["workloads"][name]


def _git_sha():
    try:
        # The ceiling keeps git from taking the SHA of a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "eeiwfa").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np
    import eeiwfa

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "USING_NUMBA": getattr(eeiwfa, "USING_NUMBA", "absent"),
        "EEIWFA_NO_NUMBA": os.environ.get("EEIWFA_NO_NUMBA"),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run(name, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """Run one workload; returns the result line's fields plus a report."""
    workload = WORKLOADS[name]
    refs = load_references(name)[size]
    order = pool_order(workload, size, seed)
    import_program()
    setup = [] if trace else setup_seconds(name, probes)
    with _workdir() as wd:
        runner = set_up(workload, size, wd)
        env = environment()
        if trace:
            outcomes, report = _traced(runner, order[0], refs, seconds)
        else:
            outcomes, report = _timed(runner, order, refs, seconds)
    failures = [(sd, o.errors) for sd, o in outcomes if o.errors]
    report.update(environment=env, workload=name, seed=seed, size=size,
                  failures=failures)
    if not trace:
        report["metrics"]["peak_rss_mb"] = _peak_rss_mb()
        report["metrics"]["setup_s"] = statistics.median(
            to_reference(wall, ys) for wall, ys in setup)
        report["setup_samples"] = setup
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": report.pop("metrics"),
        "report": report,
    }


def _solve(runner, refs, sd, outcomes):
    ref = refs.get(str(sd))
    o = runner.solve(sd, ref)
    if ref is None:
        o.errors.append(f"no reference for pool seed {sd}")
    outcomes.append((sd, o))
    return o


def _timed(runner, order, refs, seconds):
    """Solve distinct inputs, in the seed's order, until ``seconds`` of solve
    time are spent. The pool is visited again only once it is used up, so a
    cache kept across solves cannot pay off before then. The yardstick runs
    before the first solve and after each one, and each solve is scaled by
    the mean of the two yardstick times around it: the machine's speed can
    change from one solve to the next."""
    outcomes, wall, ref_s, ys = [], [], [], [yardstick()]
    while sum(wall) < seconds or not wall:
        o = _solve(runner, refs, order[len(wall) % len(order)], outcomes)
        ys.append(yardstick())
        wall.append(o.seconds)
        ref_s.append(to_reference(o.seconds, (ys[-2] + ys[-1]) / 2))
    report = {
        "wall_solve_s_quartiles": statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3,
        "yardstick_s_quartiles": statistics.quantiles(ys, n=4),
        "metrics": {
            "solve_s_p50": statistics.median(ref_s),
            "solves_per_s": len(ref_s) / sum(ref_s),
        },
    }
    return outcomes, report


def _traced(runner, sd, refs, seconds):
    """Alternate untraced and traced solves of one input until ``seconds``
    of solve time are spent; per-layer values are (low) medians over traced solves."""
    outcomes, untraced, traced, layer = [], [], [], []
    absent = set()
    while sum(untraced) + sum(traced) < seconds or not traced:
        untraced.append(_solve(runner, refs, sd, outcomes).seconds)
        with tracing.Tracer() as tr:
            traced.append(_solve(runner, refs, sd, outcomes).seconds)
        layer.append(tr.metrics(traced[-1]))
        absent.update(tr.absent())
    metrics = {k: statistics.median_low(m[k] for m in layer) for k in layer[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    report = {
        "metrics": metrics,
        "traced_solves": len(traced),
        "pool_seed": sd,
        "absent": sorted(absent),
        "digest": outcomes[-1][1].digest,
        "digests_agree": len({o.digest for _, o in outcomes}) == 1,
    }
    return outcomes, report


def _print_report(result, trace):
    rep = result["report"]
    print(f"# eeiwfa benchmark: workload {rep['workload']} ({rep['size']}),"
          f" seed {rep['seed']}, trace {'on' if trace else 'off'}")
    print("# environment " + json.dumps(rep["environment"], sort_keys=True))
    if trace:
        print(f"# {rep['traced_solves']} traced solves of pool seed {rep['pool_seed']};"
              f" output digest {rep['digest'][:16]}"
              f" ({'identical' if rep['digests_agree'] else 'DIFFERING'} across solves)")
        if rep["absent"]:
            print("# absent from this version of the program: " + ", ".join(rep["absent"]))
        cat = tracing.metric_catalogue()
        rows = [(k, v) for k, v in result["metrics"].items() if v]
        zeros = len(result["metrics"]) - len(rows)
        print(f"# per-layer metrics per solve ({zeros} zero ones omitted)")
    else:
        cat = END_TO_END
        q = " ".join(f"{x:.4g}" for x in rep["wall_solve_s_quartiles"])
        y = " ".join(f"{x * 1e3:.4g}" for x in rep["yardstick_s_quartiles"])
        print(f"# {result['attempted']} solves, one input each; wall time quartiles {q} s;"
              f" yardstick quartiles {y} ms against {YARDSTICK_REF_S * 1e3:.4g} ms for reference s")
        print(f"# setup_s is the median of {len(rep['setup_samples'])} fresh interpreters"
              " (wall s, yardstick ms): "
              + " ".join(f"{w:.4g},{ys * 1e3:.3g}" for w, ys in rep["setup_samples"]))
        rows = list(result["metrics"].items())
    for k, v in rows:
        print(f"{k:48s} {v:>14.6g} {cat[k][0]}")
    print(f"{'failed_frac':48s} {result['failed'] / result['attempted']:>14.6g}"
          f" ({result['failed']} of {result['attempted']} solves)")
    for sd, errs in rep["failures"][:5]:
        print(f"FAILED pool seed {sd}: {'; '.join(errs)}", file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.probe:
            print(json.dumps(probe(args.probe)))
            return 0
        if not args.workload:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(result, bool(args.trace))
    units = tracing.metric_catalogue() if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
