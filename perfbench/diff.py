#!/usr/bin/env python3
"""Compares two hlsperf result files (written under <build>/results/ by run.py).

    python3 perfbench/diff.py BEFORE.json AFTER.json

Exact keys (counts, modelled `_sim_s` values, fingerprints) must match with
zero tolerance: a pure-performance change leaves every one unchanged. Timing
keys are listed with their change, and marked when it is worse than the
bound BENCHMARK.json sets for that metric. Exits 1 when an exact key differs.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(sys.argv[1]), load(sys.argv[2])
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    for side, doc in (("before", a), ("after", b)):
        meta = doc["exact"]["_meta"]
        print(f"{side}: {meta['workload']} seed {meta['seed']} trace {meta['trace']} "
              f"sha {meta['git_sha']} ({meta['compiler']}, {meta['build_type']}, "
              f"nproc {meta['nproc']}, workers {meta['workers']})")

    ea = {k: v for k, v in a["exact"].items() if k != "_meta"}
    eb = {k: v for k, v in b["exact"].items() if k != "_meta"}
    changed = sorted(k for k in ea.keys() | eb.keys() if ea.get(k) != eb.get(k))
    print(f"exact keys: {len(ea)} before, {len(eb)} after, {len(changed)} differ")
    for k in changed:
        va = ea.get(k, {}).get("value")
        vb = eb.get(k, {}).get("value")
        print(f"  DIFFERS {k}: {va!r} -> {vb!r}")

    print("timing keys (after / before - 1):")
    ta, tb = a["timing"], b["timing"]
    for k in sorted(ta.keys() & tb.keys() - {"_meta"}):
        va, vb = ta[k]["value"], tb[k]["value"]
        rel = vb / va - 1.0 if va else float("nan")
        mark = ""
        if k in spec:
            worse = rel if spec[k]["better"] == "lower" else -rel
            if worse > spec[k]["bound"]:
                mark = f"  worse than bound {spec[k]['bound']}"
        print(f"  {k:32s} {va:14.6g} -> {vb:14.6g}  {rel:+8.2%}{mark}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
