#!/usr/bin/env python3
"""Compare a campaign run report against the committed perf baseline.

Usage:
    scripts/check_perf.py BASELINE CURRENT [--tolerance 0.25]

Both files are run reports (schema rh-run-report/v1); CURRENT comes from
fig4_hcfirst_distribution --stride=2048 --jobs=2 --report=CURRENT. The gate
fails (exit 1) when either tracked throughput axis — commands_per_host_second
or device_cycles_per_host_second — drops more than --tolerance below the
baseline, or when a deterministic axis (commands, device_cycles, records)
differs from the baseline at all: those are a pure function of the sweep, so
any drift means the run measured something else. Improvements and small
throughput regressions print but pass. A missing baseline file passes with a
note, so the check can land before the first baseline is committed and
survives branches that predate it.

--min KEY=VALUE adds an absolute floor on a tracked axis, independent of the
committed baseline: the fast engine's >=5x speedup over the pre-engine
baseline is pinned this way, so quietly re-baselining downward cannot erase
it.
"""

import argparse
import json
import os
import sys

SCHEMA = "rh-run-report/v1"
TRACKED = ("commands_per_host_second", "device_cycles_per_host_second")
# bringup_device_cycles is left out: it scales with the number of rigs built.
DETERMINISTIC = ("commands", "device_cycles", "records")
CONTEXT = ("elapsed_wall_ms", "jobs")


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"check_perf: {path}: expected schema {SCHEMA!r}, "
                 f"got {doc.get('schema')!r}")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_campaign.json")
    parser.add_argument("current", help="run report from this build")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--min", action="append", default=[], metavar="KEY=VALUE",
                        dest="floors",
                        help="absolute floor for a tracked axis (repeatable), "
                             "e.g. --min commands_per_host_second=3.24e9; "
                             "fails when the current run is below VALUE even "
                             "if the committed baseline would allow it")
    args = parser.parse_args()

    floors = {}
    for spec in args.floors:
        key, sep, value = spec.partition("=")
        if not sep or key not in TRACKED:
            sys.exit(f"check_perf: --min {spec!r}: expected KEY=VALUE with "
                     f"KEY one of {TRACKED}")
        floors[key] = float(value)

    cur = load(args.current)

    failed = False
    for key, floor in sorted(floors.items()):
        c = float(cur[key])
        verdict = "OK" if c >= floor else "BELOW FLOOR"
        if verdict != "OK":
            failed = True
        print(f"  {key}: {c:,.0f} vs absolute floor {floor:,.0f} {verdict}")

    if not os.path.exists(args.baseline):
        print(f"check_perf: no baseline at {args.baseline}; nothing to "
              "compare (commit a run report there)")
        if failed:
            print("check_perf: FAIL — below an absolute --min floor")
            return 1
        return 0

    base = load(args.baseline)

    for key in TRACKED:
        b, c = float(base[key]), float(cur[key])
        if b <= 0:
            print(f"  {key}: baseline is {b}; skipping")
            continue
        delta = (c - b) / b
        floor = b * (1.0 - args.tolerance)
        verdict = "OK" if c >= floor else "REGRESSED"
        if verdict == "REGRESSED":
            failed = True
        print(f"  {key}: {c:,.0f} vs baseline {b:,.0f} "
              f"({delta:+.1%}, floor {floor:,.0f}) {verdict}")

    for key in DETERMINISTIC:
        verdict = "OK" if cur[key] == base[key] else "DIFFERS"
        if verdict != "OK":
            failed = True
        print(f"  {key}: {cur[key]} (baseline {base[key]}) {verdict}")

    for key in CONTEXT:
        print(f"  {key}: {cur[key]} (baseline {base[key]})")

    if failed:
        print(f"check_perf: FAIL — throughput below an absolute --min floor "
              f"or more than {args.tolerance:.0%} under baseline, or a "
              "deterministic axis differs from the baseline")
        return 1
    print("check_perf: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
