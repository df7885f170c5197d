"""Command-line interface.

Subcommands: scenario gen|show, br solve, criteria eval|sweep, iwfa run,
verify lemmas. Exit codes: 0 success, 1 validation/usage error or a failed
solve, 2 a lemma or criterion check failed.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import harness
from .equilibrium import interference_matrix_square
from .errors import CheckFailure, ConvergenceError, InvalidInputError
from .linalg import spectral_radius
from .model import load_scenario, reduce_scenario, save_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    """The argument parser; each action's parser carries its handler as
    ``run``, which :func:`cli` calls with the parsed arguments."""
    p = _Parser(prog="eeiwfa", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="group", required=True)

    flags = {
        "config": {"help": "JSON config file"},
        "seed": {"type": int, "help": "override the config seed"},
        "out": {"help": "output path"},
        "format": {"choices": ("csv", "json"), "default": "json"},
    }

    def common(sp, run, *names):
        """Give ``sp`` the flags ``names`` of the table above, --quiet, and
        the handler ``run``."""
        for name in names:
            sp.add_argument(f"--{name}", **flags[name])
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(run=run)

    scen = sub.add_parser("scenario", help="generate or inspect scenarios")
    scen_sub = scen.add_subparsers(dest="action", required=True)
    gen = scen_sub.add_parser("gen", help="draw a random scenario")
    gen.add_argument("--q", type=int, default=8)
    gen.add_argument("--n", type=int, default=4)
    gen.add_argument("--snr-db", type=float, default=7.0)
    gen.add_argument("--sir-db", type=float, default=0.0)
    gen.add_argument("--power", type=float)
    gen.add_argument("--circuit-power", type=float, default=1.0)
    gen.add_argument("--diagonal", action="store_true",
                     help="diagonal (parallel-subchannel) matrices")
    common(gen, _cmd_scenario_gen, "seed", "out")
    show = scen_sub.add_parser("show", help="summarize a scenario file")
    show.add_argument("scenario", help="scenario JSON file")
    common(show, _cmd_scenario_show)

    io_flags = ("config", "seed", "out")
    for group, group_help, actions in (
        ("br", "best-response computations",
         [("solve", "one player's best response", _cmd_br_solve, io_flags + ("format",))]),
        ("criteria", "uniqueness criteria",
         [("eval", "criteria of one scenario", _cmd_criteria_eval, io_flags + ("format",)),
          ("sweep", "Monte-Carlo SNR/SIR sweep", _cmd_criteria_sweep, io_flags)]),
        ("iwfa", "iterative waterfilling runs",
         [("run", "simulate one configured run", _cmd_iwfa_run, io_flags)]),
        ("verify", "numerical bound verification",
         [("lemmas", "run the bound suite", _cmd_verify_lemmas, io_flags + ("format",))]),
    ):
        group_sub = sub.add_parser(group, help=group_help).add_subparsers(
            dest="action", required=True)
        for action, action_help, run, names in actions:
            common(group_sub.add_parser(action, help=action_help), run, *names)
    return p


def _load_config(args):
    if not args.config:
        return {}
    with open(args.config, encoding="utf-8") as fh:   # JSON is UTF-8 (RFC 8259)
        return json.load(fh)


def _emit(obj, args):
    obj = _finite_or_null(obj)
    if args.format == "csv":
        flat = _flatten(obj)
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(flat.keys())
        w.writerow(["null" if v is None else str(harness._fmt(v)) for v in flat.values()])
        text = buf.getvalue()
    else:
        text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(args.out)
    elif not args.quiet:
        sys.stdout.write(text)


def _finite_or_null(obj):
    """``obj`` with each non-finite float as None: JSON (RFC 8259) has no
    NaN or Infinity, so a strict parser reads the report. A check that drew
    no sample reports an infinite margin and a skipped one a NaN ratio."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _flatten(obj, prefix=""):
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            flat.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        flat[prefix[:-1]] = json.dumps(obj)
    else:
        flat[prefix[:-1]] = obj
    return flat


def _cmd_scenario_gen(args):
    s = harness.scenario_from_config({
        "Q": args.q, "n": args.n, "snr_db": args.snr_db, "sir_db": args.sir_db,
        "seed": 0, "power": args.power, "circuit_power": args.circuit_power,
        "channel_kind": "diagonal" if args.diagonal else "full",
    }, seed=args.seed)
    out = harness.resolve_out(args.out, "scenario.json")
    save_scenario(s, out)
    if not args.quiet:
        print(out)
    return EXIT_OK


def _cmd_scenario_show(args):
    s = load_scenario(args.scenario)
    rs = reduce_scenario(s)
    lines = [
        f"players: {s.Q}",
        f"antennas nT: {[int(x) for x in s.nT]} nR: {[int(x) for x in s.nR]}",
        f"ranks: {[int(x) for x in rs.ranks]}",
        f"P: {[float(x) for x in s.P]}",
        f"Psi: {[float(x) for x in s.Psi]}",
        f"seed: {s.seed}",
        f"meta: {s.meta}",
    ]
    try:
        S = interference_matrix_square(rs)
        sr, _, _ = spectral_radius(S.S)
        lines.append(f"sr(S): {sr:.6g}")
    except InvalidInputError:
        lines.append("sr(S): n/a (non-square reduced channels)")
    if not args.quiet:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_br_solve(args):
    _emit(harness.solve_best_response(_load_config(args), seed=args.seed), args)
    return EXIT_OK


def _cmd_criteria_eval(args):
    _emit(harness.evaluate_criteria(_load_config(args), seed=args.seed), args)
    return EXIT_OK


def _cmd_criteria_sweep(args):
    res = harness.run_criteria_sweep(_load_config(args), out=args.out, seed=args.seed,
                                     verbose=not args.quiet)
    if not args.quiet:
        print(res["out"])
        print(res["cells_out"])
    return EXIT_OK


def _cmd_iwfa_run(args):
    res = harness.simulate_iwfa(_load_config(args), out=args.out, seed=args.seed)
    trace = res["trace"]
    if not args.quiet:
        final_ne = trace.ne_residual[-1] if len(trace.slots) else float("nan")
        print(f"{trace.termination} after {len(trace.slots)} slots;"
              f" final ne residual {final_ne:.3e}")
        if trace.error:
            print(f"error: {trace.error}")
        print(res["out"])
    elif trace.error:
        print(f"error: {trace.error}", file=sys.stderr)
    return EXIT_USAGE if trace.termination == "error" else EXIT_OK


def _cmd_verify_lemmas(args):
    report = harness.run_lemma_suite(_load_config(args), seed=args.seed)
    if not args.quiet:
        for name, check in report["checks"].items():
            print(f"{name}: {check['status']} (max ratio {check['max_ratio']:.6g},"
                  f" constant {check['constant']:.6g})")
        for Q, entry in report["sqrt_q"].items():
            print(f"sqrt(Q) ratio Q={Q}: {entry['ratio']:.12f}"
                  f" vs {entry['expected']:.12f}")
    _emit(report, args)
    return EXIT_OK if report["passed"] else EXIT_CHECK


@functools.cache
def _parser():
    """The parser of :func:`build_parser`, built once per process: parsing
    leaves it unchanged, and its handlers look the harness up at each call."""
    return build_parser()


def cli(argv=None):
    """Run the CLI on ``argv`` and return the exit status."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit:   # --help, after printing the help
        return EXIT_OK
    try:
        return args.run(args)
    except (InvalidInputError, ConvergenceError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
