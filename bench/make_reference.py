#!/usr/bin/env python3
"""Rebuild bench/reference.json from the program in src/.

    python3 bench/make_reference.py [--workload NAME ...]

Solves every pool seed of every workload, at both sizes, and stores the
values run.py checks each solve against. Run it only when the program's
outputs are meant to change; a refactor or optimisation must reproduce the
stored values instead.
"""

import argparse
import json
import sys

from run import BENCH, _src_sha256, _workdir, import_program
from workloads import WORKLOADS, Runner


def build(names):
    path = BENCH / "reference.json"
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"workloads": {}}
    cli = import_program()
    with _workdir() as wd:
        for name in names:
            w = WORKLOADS[name]
            doc["workloads"][name] = {}
            for size in ("full", "tiny"):
                runner = Runner(cli, w, size, wd)
                table = {}
                for sd in range(w.pools[size]):
                    o = runner.solve(sd)
                    if o.errors:
                        sys.exit(f"{name} {size} pool seed {sd} failed: {o.errors}")
                    table[str(sd)] = w.kind.reference(o.got)
                doc["workloads"][name][size] = table
                print(f"{name} {size}: {len(table)} seeds", file=sys.stderr)
    doc["src_sha256"] = _src_sha256()
    return doc


def dump(doc):
    # One line per pool seed keeps the file diffable.
    lines = ["{", f' "src_sha256": {json.dumps(doc["src_sha256"])},', ' "workloads": {']
    names = sorted(doc["workloads"])
    for i, name in enumerate(names):
        lines.append(f"  {json.dumps(name)}: {{")
        sizes = sorted(doc["workloads"][name])
        for j, size in enumerate(sizes):
            table = doc["workloads"][name][size]
            lines.append(f"   {json.dumps(size)}: {{")
            seeds = sorted(table, key=int)
            for k, sd in enumerate(seeds):
                comma = "," if k < len(seeds) - 1 else ""
                entry = json.dumps(table[sd], sort_keys=True)
                lines.append(f"    {json.dumps(sd)}: {entry}{comma}")
            lines.append("   }" + ("," if j < len(sizes) - 1 else ""))
        lines.append("  }" + ("," if i < len(names) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    doc = build(args.workload or sorted(WORKLOADS))
    text = dump(doc)
    json.loads(text)
    with open(BENCH / "reference.json", "w") as fh:
        fh.write(text)


if __name__ == "__main__":
    main()
