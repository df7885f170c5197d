"""Command-line interface.

Subcommands: scenario gen|show, br solve, criteria eval|sweep, iwfa run,
verify lemmas. Exit codes: 0 success, 1 validation/usage error, 2 a lemma
or criterion check failed.
"""

import argparse
import json
import sys

from . import harness
from .errors import CheckFailure, ConvergenceError, InvalidInputError
from .iwfa import make_schedule, run_iwfa, write_trace_csv
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
    p = _Parser(prog="eeiwfa", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="group", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--out", help="output path")
        sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--quiet", action="store_true")

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
    common(gen)
    show = scen_sub.add_parser("show", help="summarize a scenario file")
    show.add_argument("scenario", help="scenario JSON file")
    common(show)

    br = sub.add_parser("br", help="best-response computations")
    br_sub = br.add_subparsers(dest="action", required=True)
    solve = br_sub.add_parser("solve", help="one player's best response")
    common(solve)

    crit = sub.add_parser("criteria", help="uniqueness criteria")
    crit_sub = crit.add_subparsers(dest="action", required=True)
    common(crit_sub.add_parser("eval", help="criteria of one scenario"))
    common(crit_sub.add_parser("sweep", help="Monte-Carlo SNR/SIR sweep"))

    iwfa = sub.add_parser("iwfa", help="iterative waterfilling runs")
    iwfa_sub = iwfa.add_subparsers(dest="action", required=True)
    common(iwfa_sub.add_parser("run", help="simulate one configured run"))

    ver = sub.add_parser("verify", help="numerical bound verification")
    ver_sub = ver.add_subparsers(dest="action", required=True)
    common(ver_sub.add_parser("lemmas", help="run the bound suite"))
    return p


def _load_config(args):
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        return json.load(fh)


def _emit(obj, args):
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if fmt == "csv":
        flat = _flatten(obj)
        rows = [list(flat.keys()), [harness._fmt(v) for v in flat.values()]]
        text = "\n".join(",".join(str(c) for c in row) for row in rows) + "\n"
    else:
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        if not args.quiet:
            print(out)
    elif not args.quiet:
        sys.stdout.write(text)


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
    from .model import generate_scenario

    s = generate_scenario(
        Q=args.q, n=args.n, snr_db=args.snr_db, sir_db=args.sir_db,
        seed=args.seed if args.seed is not None else 0,
        power=args.power, circuit_power=args.circuit_power,
        channel_kind="diagonal" if args.diagonal else "full",
    )
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
        from .equilibrium import interference_matrix_square
        from .linalg import spectral_radius

        S = interference_matrix_square(rs)
        sr, _, _ = spectral_radius(S.S)
        lines.append(f"sr(S): {sr:.6g}")
    except InvalidInputError:
        lines.append("sr(S): n/a (non-square reduced channels)")
    if not args.quiet:
        print("\n".join(lines))
    return EXIT_OK


def _cmd_br_solve(args):
    cfg = _load_config(args)
    if "scenario" not in cfg:
        raise InvalidInputError("br solve needs a config with a 'scenario' section")
    res = harness.solve_best_response(cfg, seed=args.seed)
    _emit(res, args)
    return EXIT_OK


def _cmd_criteria_eval(args):
    cfg = _load_config(args)
    if "scenario" not in cfg:
        raise InvalidInputError("criteria eval needs a config with a 'scenario' section")
    rep = harness.evaluate_criteria(cfg, seed=args.seed)
    _emit(rep, args)
    return EXIT_OK


def _cmd_criteria_sweep(args):
    cfg = _load_config(args)
    res = harness.run_criteria_sweep(
        cfg, out=args.out, seed=args.seed, verbose=not args.quiet
    )
    if not args.quiet:
        print(res["out"])
        print(res["cells_out"])
    return EXIT_OK


def _cmd_iwfa_run(args):
    cfg = _load_config(args)
    if "scenario" not in cfg:
        raise InvalidInputError("iwfa run needs a config with a 'scenario' section")
    s = harness.scenario_from_config(cfg["scenario"], seed=args.seed)
    rs = reduce_scenario(s)
    sched_cfg = dict(cfg.get("schedule", {}))
    mode = sched_cfg.pop("mode", "synchronous")
    run_seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    sched = make_schedule(mode, rs.Q, sched_cfg or None, seed=run_seed)
    trace = run_iwfa(
        rs, sched,
        max_slots=cfg.get("max_slots", 1000),
        residual_tol=cfg.get("residual_tol", 1e-9),
        cfg=harness.dinkelbach_config(cfg.get("dinkelbach", {})),
        ne_every=cfg.get("ne_every", 1),
    )
    out = harness.resolve_out(args.out or cfg.get("out"), "iwfa_trace.csv")
    write_trace_csv(trace, out, thin=cfg.get("thin", 1))
    if not args.quiet:
        final_ne = trace.ne_residual[-1] if len(trace.slots) else float("nan")
        print(f"{trace.termination} after {len(trace.slots)} slots;"
              f" final ne residual {final_ne:.3e}")
        if trace.error:
            print(f"error: {trace.error}")
        print(out)
    return EXIT_OK


def _cmd_verify_lemmas(args):
    cfg = _load_config(args)
    report = harness.run_lemma_suite(cfg, seed=args.seed, verbose=not args.quiet)
    if args.out:
        harness.write_json(report, args.out)
        if not args.quiet:
            print(args.out)
    elif not args.quiet:
        print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_CHECK


_COMMANDS = {
    ("scenario", "gen"): _cmd_scenario_gen,
    ("scenario", "show"): _cmd_scenario_show,
    ("br", "solve"): _cmd_br_solve,
    ("criteria", "eval"): _cmd_criteria_eval,
    ("criteria", "sweep"): _cmd_criteria_sweep,
    ("iwfa", "run"): _cmd_iwfa_run,
    ("verify", "lemmas"): _cmd_verify_lemmas,
}


def cli(argv=None):
    """Run the CLI on ``argv`` and return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[(args.group, args.action)](args)
    except (InvalidInputError, ConvergenceError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
