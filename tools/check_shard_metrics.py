#!/usr/bin/env python3
"""Shard-determinism gate over serve-replay --metrics_json dumps.

Usage:
    tools/check_shard_metrics.py BASELINE.json SHARDED.json [SHARDED.json ...]
    tools/check_shard_metrics.py --same_shards BASELINE.json OTHER.json [...]

BASELINE.json is the --shards=1 run; each SHARDED.json is the same replay
at a different shard count. With --same_shards, every file is the same
replay at one shard count (at different thread counts, say): then each
deterministic series must match label by label, not just in its family's
sum, and property 2 below does not apply. A sharded component writes each counter as
its own `name{shard="i"}` series, so a metric's value is the sum of its
family's series. Two properties are enforced:

  1. Deterministic counter families SUM to IDENTICAL values across every
     file. The allowlist below names the counters whose values are a pure
     function of the replayed corpus (the shard-determinism contract);
     timing-dependent metrics (histograms, gauges, batch counts — batch
     composition depends on dispatch timing) are deliberately excluded.
  2. Each sharded file carries series of at least 2 distinct shard labels
     — a run that silently fell back to one shard proves nothing.

Exit 0 when every file agrees; exit 1 with a per-key diff otherwise.
"""

import argparse
import json
import re
import sys

# Counters whose values must not depend on the shard count. Prefix match.
DETERMINISTIC_PREFIXES = (
    "serve.sessions.",
    "serve.shed_total",
    "serve.degraded_total",
    "serve.deadline_exceeded_total",
    "serve.unavailable_total",
    "serve.batch_predictor.requests",
    "serve.registry.swaps",
    "serve.registry.promotions",
    "serve.registry.shadow_installs",
    "serve.registry.shadow_retired",
    "serve.shadow.",
    "serve.ct.",
    "store.",
)

# name{shard="i"} -> (name, i); a bare name is the unlabeled series.
SERIES_RE = re.compile(r'^(?P<name>[^{]+)(?:\{shard="(?P<shard>\d+)"\})?$')


def load(path, same_shards=False):
    """(family sums, shard labels, info) of one metrics JSON dump; with
    same_shards, each series is its own family."""
    with open(path) as f:
        doc = json.load(f)
    families = {}
    shards = set()
    for key, value in doc.get("counters", {}).items():
        match = SERIES_RE.match(key)
        if match is None:
            sys.exit(f"{path}: unparsable counter key {key!r}")
        name = key if same_shards else match.group("name")
        families[name] = families.get(name, 0) + value
        if match.group("shard") is not None:
            shards.add(int(match.group("shard")))
    return families, shards, doc.get("info", {})


def deterministic_view(families):
    return {name: value for name, value in sorted(families.items())
            if name.startswith(DETERMINISTIC_PREFIXES)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--same_shards", action="store_true",
                        help="all files ran at one shard count: compare "
                        "every deterministic series label by label")
    parser.add_argument("baseline", help="metrics JSON of the --shards=1 run")
    parser.add_argument("sharded", nargs="+",
                        help="metrics JSONs of the sharded runs")
    args = parser.parse_args()

    base_families, _, base_info = load(args.baseline, args.same_shards)
    base_view = deterministic_view(base_families)
    if not base_view:
        sys.exit(f"{args.baseline}: no deterministic serve counters found "
                 "(wrong file?)")

    failures = []
    for path in args.sharded:
        families, shards, info = load(path, args.same_shards)

        # Property 1: deterministic family sums equal.
        view = deterministic_view(families)
        for key in sorted(set(base_view) | set(view)):
            if base_view.get(key) != view.get(key):
                failures.append(
                    f"{path}: sum over {key}'s series = {view.get(key)} != "
                    f"{base_view.get(key)} ({args.baseline})")

        # The active model version must agree too.
        base_version = base_info.get("serve.registry.active_version")
        version = info.get("serve.registry.active_version")
        if version != base_version:
            failures.append(
                f"{path}: serve.registry.active_version = {version!r} != "
                f"{base_version!r}")

        # Property 2: the run really was sharded.
        if not args.same_shards and len(shards) < 2:
            failures.append(f"{path}: series of {len(shards)} shard "
                            "label(s), want >= 2 (was this run actually "
                            "sharded?)")

    if failures:
        print("shard-determinism gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1

    if args.same_shards:
        print(f"shard-determinism gate: {len(base_view)} deterministic "
              f"counter series match across {1 + len(args.sharded)} runs")
    else:
        print(f"shard-determinism gate: {len(base_view)} deterministic "
              f"counter families sum identically across "
              f"{1 + len(args.sharded)} runs; every sharded run spans >= 2 "
              "shard labels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
