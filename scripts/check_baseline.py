#!/usr/bin/env python3
"""Compare a fresh bench JSON against its committed baseline.

Every battery behind these baselines is deterministic in its scenario
identity, so on one machine the bytes match exactly; across compilers the
simulated arithmetic may round differently in the last ulps. A check
therefore fails only when:

  * a scenario identity field differs (scenario, seed, run length, ...);
  * the table changed shape: the flattened key sets differ, or a
    structural field differs (the fleet's per-policy window counts, the
    what-if per-app top-knob ranking);
  * a figure drifts beyond a relative tolerance of 0.5% (with a 1e-6
    absolute floor, so near-zero figures are compared as zero).

Baselines (bench/baselines/):
  hotpath  BENCH_hotpath.json  per-policy Jain, CFI and per-app slowdown of
                               the `--policies all` dilemma battery
  fleet    BENCH_fleet.json    per-policy tail fairness of the 64-app fleet
                               battery, plus its `admission.*` ablation
  whatif   BENCH_whatif.json   the `whatif.*` sensitivity keys

`telemetry` instead gates a `vulcan_sim --telemetry-bench` report against
the hotpath baseline's `telemetry_overhead_budget` (default 5%, plus 5 ms
of absolute slack so millisecond-scale runs don't flake on scheduler
noise); fairness artefacts must be identical with telemetry on and off.

`digests` reads the text a run printed (a `vulcan_check_fuzz` campaign,
`perfbench/run.py` output, or both) and compares every digest in it with
its pin in digests.json: a fuzz seed's `digest=` line and a perfbench
workload's `digest <workload> all` line. Digests are exact, so any
difference fails, as does a printed digest without a pin or a pin missing
from a section the log covers.

Usage:
    python3 scripts/check_baseline.py {hotpath,fleet,whatif} <fresh.json> <baseline.json>
    python3 scripts/check_baseline.py telemetry <bench.json> <hotpath-baseline.json>
    python3 scripts/check_baseline.py digests <run.log> <digests.json>
"""

import json
import re
import sys

REL_TOL = 0.005  # 0.5 %
ABS_FLOOR = 1e-6  # figures this small are "zero" for tolerance purposes
TELEMETRY_BUDGET = 0.05  # default overhead ceiling when the baseline has none
TELEMETRY_ABS_SLACK_MS = 5.0  # absolute wall-clock slack against noise

FLEET_TAIL_KEYS = (
    "jain_cumulative",
    "worst_slowdown_overall",
    "worst_slowdown_p99",
    "jain_floor",
)
FLEET_ADMISSION_KEYS = FLEET_TAIL_KEYS + (
    "pages_migrated",
    "shootdown_ipis",
    "base_pages_migrated",
    "base_shootdown_ipis",
    "admitted",
    "vetoed",
)


def fail(kind, msg):
    print(f"{kind} baseline check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def flatten_hotpath(bench):
    """`policies` list -> {"<policy>.jain": x, "<policy>.app.<name>": y, ...}"""
    flat = {}
    for p in bench.get("policies", []):
        name = p["name"]
        flat[f"{name}.jain"] = p["jain"]
        flat[f"{name}.cfi"] = p["cfi"]
        for app in p.get("apps", []):
            flat[f"{name}.app.{app['name']}"] = app["slowdown"]
    return flat


def flatten_fleet(bench):
    """`policies` list -> {"<policy>.jain_cumulative": x, ...}

    A policy row run with `--admission on` carries a nested ablation
    object, flattened under `<policy>.admission.*`, so the key-set check
    forces baseline and fresh run to agree on whether it was recorded.
    """
    flat = {}
    for p in bench.get("policies", []):
        name = p["name"]
        for key in FLEET_TAIL_KEYS:
            flat[f"{name}.{key}"] = p[key]
        adm = p.get("admission")
        if adm is not None:
            for key in FLEET_ADMISSION_KEYS:
                flat[f"{name}.admission.{key}"] = adm[key]
    return flat


def fleet_windows(bench):
    """Per-policy window count: epochs per window x run length."""
    return {p["name"]: p.get("windows") for p in bench.get("policies", [])}


# kind -> (identity fields, flattener, {structural label: extractor})
BASELINES = {
    "hotpath": (("scenario", "seed", "simulated_s"), flatten_hotpath, {}),
    "fleet": (
        ("scenario", "seed", "simulated_s", "apps", "churn_per_min"),
        flatten_fleet,
        {"per-policy window counts": fleet_windows},
    ),
    "whatif": (
        ("scenario", "policy", "seed", "seconds", "grid_points"),
        lambda bench: dict(bench.get("whatif", {})),
        {"top-knob ranking": lambda bench: bench.get("top_knob")},
    ),
}


def check(kind, fresh, base):
    identity, flatten, structure = BASELINES[kind]
    for field in identity:
        if fresh.get(field) != base.get(field):
            fail(kind, f"{field} differs: baseline {base.get(field)!r}, "
                 f"got {fresh.get(field)!r}")
    for label, extract in structure.items():
        if extract(fresh) != extract(base):
            fail(kind, f"{label} changed: baseline {extract(base)}, "
                 f"got {extract(fresh)}")

    fresh_keys = flatten(fresh)
    base_keys = flatten(base)
    if set(fresh_keys) != set(base_keys):
        only_fresh = sorted(set(fresh_keys) - set(base_keys))
        only_base = sorted(set(base_keys) - set(fresh_keys))
        fail(kind, f"key sets differ (new: {only_fresh}, missing: {only_base})")
    drifted = []
    for key in sorted(base_keys):
        want, got = base_keys[key], fresh_keys[key]
        if abs(got - want) > max(REL_TOL * abs(want), ABS_FLOOR):
            drifted.append(f"  {key}: baseline {want!r}, got {got!r}")
    if drifted:
        fail(kind, "drift beyond 0.5%:\n" + "\n".join(drifted))
    print(f"{kind} baseline ok: {len(base_keys)} keys within 0.5%")


def check_telemetry(bench, base):
    budget = base.get("telemetry_overhead_budget", TELEMETRY_BUDGET)
    if not bench.get("identical_fairness"):
        fail("telemetry", "telemetry changed the fairness artefacts "
             "(must be read-only)")
    off_ms = bench["telemetry_off_ms"]
    delta_ms = bench["telemetry_on_ms"] - off_ms
    allowed_ms = budget * off_ms + TELEMETRY_ABS_SLACK_MS
    if delta_ms > allowed_ms:
        fail("telemetry", f"overhead {delta_ms:.1f} ms over a {off_ms:.1f} ms "
             f"run exceeds the {budget:.0%} budget (+{allowed_ms:.1f} ms)")
    print(f"telemetry overhead ok: +{delta_ms:.1f} ms on {off_ms:.1f} ms "
          f"({bench['overhead']:+.1%}, budget {budget:.0%}), "
          "fairness artefacts identical")


def printed_digests(log):
    """{("fuzz", seed) or ("perfbench", workload, seed): hex} from a log."""
    found = {}
    fuzz_seed = perf_seed = None
    for line in log.splitlines():
        if m := re.match(r"campaign: seed=(\d+) ", line):
            fuzz_seed = m.group(1)
        elif m := re.match(r"scenarios=\d+ .*digest=([0-9a-f]+)$", line):
            found[("fuzz", fuzz_seed)] = m.group(1)
        elif line.startswith("run {"):
            perf_seed = json.loads(line[4:])["seed"]
        elif m := re.match(r"digest (\S+) all ([0-9a-f]+)$", line):
            found[("perfbench", m.group(1), perf_seed)] = m.group(2)
    return found


def check_digests(log, pins):
    want = {("fuzz", seed): hex_
            for seed, hex_ in pins["fuzz"]["seeds"].items()}
    want.update({("perfbench", workload, pins["perfbench"]["seed"]): hex_
                 for workload, hex_ in pins["perfbench"]["workloads"].items()})
    got = printed_digests(log)
    if not got:
        fail("digests", "the log prints no digest")
    covered = {key[0] for key in got}
    problems = []
    for key in sorted(set(want) | set(got), key=str):
        if key[0] not in covered:
            continue
        if key not in got:
            problems.append(f"  {key}: pinned {want[key]}, not printed")
        elif key not in want:
            problems.append(f"  {key}: printed {got[key]}, no pin")
        elif got[key] != want[key]:
            problems.append(f"  {key}: pinned {want[key]}, got {got[key]}")
    if problems:
        fail("digests", "digests differ from their pins:\n" +
             "\n".join(problems))
    print(f"digests ok: {len(got)} match their pins")


def main():
    kinds = (*BASELINES, "telemetry", "digests")
    if len(sys.argv) != 4 or sys.argv[1] not in kinds:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    kind = sys.argv[1]
    with open(sys.argv[2]) as f:
        fresh = f.read() if kind == "digests" else json.load(f)
    with open(sys.argv[3]) as f:
        base = json.load(f)
    if kind == "telemetry":
        check_telemetry(fresh, base)
    elif kind == "digests":
        check_digests(fresh, base)
    else:
        check(kind, fresh, base)


if __name__ == "__main__":
    main()
