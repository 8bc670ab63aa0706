#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against a committed baseline.

Usage: bench_diff.py BASELINE.json CURRENT.json... [--warn-drop=PCT] [--strict]
       bench_diff.py --self-test

Multiple CURRENT files (repeated runs of the same scenario) are merged by
taking the best value per throughput metric before diffing -- short smoke
runs on shared CI runners are noisy, and best-of-N is the standard guard.

Walks both JSON objects and compares every numeric leaf whose key ends in
"reports_per_sec"; a drop of more than --warn-drop percent (default 10)
prints a GitHub Actions ::warning:: annotation per metric. Exit status is
0 unless --strict is given, because absolute throughput is machine-
dependent (the committed baseline records one reference container; CI
runners differ) -- the diff exists to make regressions loud, not to gate
merges on runner lottery. The determinism digests -- the top-level one
and every row's (rows pair up by key, as for throughput) -- are also
compared when the scenario matches; a mismatch warns rather than fails,
because the sinusoid workload goes through libm sin/cos and digests are
only pinned per libm build (in-run thread-count invariance is enforced by
the bench binary itself).

A missing file, unparseable JSON, or a result that is not a bench object
(no "bench" key) is a usage/setup error: it prints one line naming the
offending file and key and exits 2 -- never a traceback, so a CI log
shows the cause, not a stack.
"""

import json
import sys

SCENARIO_KEYS = ("bench", "algorithm", "signal", "users", "slots", "seed")


def leaves(obj, prefix=""):
    """Yields (dotted path, value) for every scalar leaf of a bench result."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{prefix}{key}.")
    elif isinstance(obj, list):
        # Rows pair up by their "name" field, never by position: a row
        # inserted mid-list (say, a new telemetry_on trial) must not shift
        # every later row onto the wrong baseline entry. Anonymous rows
        # fall back to their index.
        for index, value in enumerate(obj):
            name = value.get("name") if isinstance(value, dict) else None
            key = name if isinstance(name, str) and name else str(index)
            yield from leaves(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1], obj


def numeric_leaves(obj):
    for path, value in leaves(obj):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, float(value)


def digest_leaves(obj):
    """Every determinism digest: the top-level one and each row's."""
    for path, value in leaves(obj):
        if path.split(".")[-1] == "digest" and isinstance(value, str):
            yield path, value


class BenchDiffError(Exception):
    """A diagnosed input problem; the message is the whole story."""


def load_bench_json(path):
    """Loads one bench result file, diagnosing every failure mode."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        raise BenchDiffError(
            f"cannot read bench result '{path}': {err.strerror or err}. "
            "If this is the committed baseline, bench/baselines/ may not "
            "have one for this benchmark yet -- run the bench binary and "
            "commit its JSON."
        )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise BenchDiffError(
            f"'{path}' is not valid JSON (line {err.lineno}, column "
            f"{err.colno}: {err.msg}); was the bench run interrupted "
            "mid-write?"
        )
    if not isinstance(doc, dict):
        raise BenchDiffError(
            f"'{path}' holds a JSON {type(doc).__name__}, not a bench "
            "result object"
        )
    if "bench" not in doc:
        raise BenchDiffError(
            f"'{path}' is missing the schema key 'bench' -- it does not "
            "look like a BENCH_*.json result file"
        )
    return doc


def diff(baseline, currents, warn_drop, out=print):
    """Diffs parsed results; returns the number of regressions."""
    current = currents[0]
    # Best-of-N: keep each throughput metric's maximum across the repeats.
    best = dict(numeric_leaves(current))
    for repeat in currents[1:]:
        for name, value in numeric_leaves(repeat):
            if name.endswith("reports_per_sec"):
                best[name] = max(best.get(name, value), value)

    same_scenario = all(
        baseline.get(k) == current.get(k) for k in SCENARIO_KEYS
    )
    if not same_scenario:
        diffs = [
            (k, baseline.get(k), current.get(k))
            for k in SCENARIO_KEYS
            if baseline.get(k) != current.get(k)
        ]
        out(
            f"note: scenario differs from baseline ({diffs}); throughput "
            "and digest are not comparable — refresh bench/baselines/ for "
            "the new configuration"
        )
        return 0

    regressions = 0
    for name, base_value in sorted(numeric_leaves(baseline)):
        if not name.endswith("reports_per_sec") or base_value <= 0:
            continue
        cur_value = best.get(name)
        if cur_value is None:
            out(f"::warning::bench metric vanished: {name}")
            regressions += 1
            continue
        change = 100.0 * (cur_value - base_value) / base_value
        if change < -warn_drop:
            out(
                f"::warning::bench regression: {name} dropped "
                f"{-change:.1f}% (baseline {base_value:.0f}, "
                f"now {cur_value:.0f})"
            )
            regressions += 1
        out(f"{name}: {base_value:.0f} -> {cur_value:.0f} ({change:+.1f}%)")

    # A "speedup" computed from two trials that ran with the same thread
    # count (1-core runner, or a pinned --threads) is run-to-run noise
    # wearing a scaling costume; flag it so nobody reads it as a result.
    for doc, label in ((baseline, "baseline"), (current, "current")):
        single = doc.get("single_thread", {})
        multi = doc.get("multi_thread", {})
        if (
            "speedup" in doc
            and isinstance(single, dict)
            and isinstance(multi, dict)
            and single.get("threads") is not None
            and single.get("threads") == multi.get("threads")
        ):
            out(
                f"::warning::suspect speedup in {label}: single_thread and "
                f"multi_thread both ran with {multi.get('threads')} "
                "thread(s), so its speedup measures noise, not scaling"
            )

    current_digests = dict(digest_leaves(current))
    for name, base_digest in sorted(digest_leaves(baseline)):
        cur_digest = current_digests.get(name)
        if cur_digest != base_digest:
            out(
                f"::warning::determinism digest {name} differs from "
                f"baseline: {base_digest} -> {cur_digest}. Expected only "
                "from a different libm build or a deliberate "
                "published-value change (refresh the baseline and document "
                "the bump in that case)."
            )
        else:
            out(f"{name}: {base_digest} (matches baseline)")
    return regressions


def self_test():
    """Exercises the diff and every diagnosed failure mode in-process."""
    import os
    import tempfile

    failures = []

    def check(name, condition):
        if not condition:
            failures.append(name)

    base = {
        "bench": "t",
        "users": 10,
        "slots": 2,
        "seed": 1,
        "direct": {"reports_per_sec": 100.0},
        "digest": "abc",
    }
    good = {**base, "direct": {"reports_per_sec": 95.0}}
    slow = {**base, "direct": {"reports_per_sec": 10.0}}
    sink = lambda *_: None

    check("no regression within warn band", diff(base, [good], 10.0, sink) == 0)
    check("big drop is a regression", diff(base, [slow], 10.0, sink) == 1)
    check(
        "best-of-N rescues a noisy repeat",
        diff(base, [slow, good], 10.0, sink) == 0,
    )
    check(
        "vanished metric is a regression",
        diff(base, [{"bench": "t", "users": 10, "slots": 2, "seed": 1}],
             10.0, sink) == 1,
    )
    check(
        "scenario mismatch only notes",
        diff(base, [{**slow, "users": 99}], 10.0, sink) == 0,
    )

    # A row list must diff by row name: inserting a new trial (telemetry_on)
    # ahead of an existing one must not pair old rows with the wrong new
    # ones (index pairing would report a phantom regression AND hide the
    # real story).
    listed_base = {
        "bench": "t",
        "users": 10,
        "slots": 2,
        "seed": 1,
        "trials": [{"name": "single", "reports_per_sec": 100.0}],
    }
    listed_current = {
        **listed_base,
        "trials": [
            {"name": "telemetry_on", "reports_per_sec": 5.0},
            {"name": "single", "reports_per_sec": 99.0},
        ],
    }
    check(
        "inserted named row cannot misalign the diff",
        diff(listed_base, [listed_current], 10.0, sink) == 0,
    )
    check(
        "named rows still catch real regressions",
        diff(
            listed_base,
            [{**listed_base,
              "trials": [{"name": "telemetry_on", "reports_per_sec": 500.0},
                         {"name": "single", "reports_per_sec": 10.0}]}],
            10.0,
            sink,
        ) == 1,
    )
    check(
        "anonymous rows fall back to index keys",
        dict(numeric_leaves({"rows": [{"reports_per_sec": 7.0}]})).get(
            "rows.0.reports_per_sec"
        ) == 7.0,
    )

    # Row-level digests (BENCH_multidim_throughput.json keeps one per
    # (dims, strategy) row) are compared row by row, paired by key; a
    # mismatch warns like the top-level digest and never fails.
    rowed = {
        "bench": "t",
        "users": 10,
        "slots": 2,
        "seed": 1,
        "d1": {"name": "d1", "reports_per_sec": 100.0, "digest": "aaa"},
        "d4": {"name": "d4", "reports_per_sec": 100.0, "digest": "bbb"},
    }
    lines = []
    moved = {**rowed, "d4": {**rowed["d4"], "digest": "ccc"}}
    regressions = diff(rowed, [moved], 10.0, lines.append)
    check(
        "a moved row digest warns, naming its row",
        any("::warning::" in line and "d4.digest" in line for line in lines)
        and not any("::warning::" in line and "d1.digest" in line
                    for line in lines),
    )
    check("a moved row digest is not a regression", regressions == 0)
    lines = []
    diff(rowed, [rowed], 10.0, lines.append)
    check(
        "matching row digests stay quiet",
        not any("::warning::" in line for line in lines)
        and sum("(matches baseline)" in line for line in lines) == 2,
    )
    lines = []
    diff(
        {**listed_base, "trials": [{"name": "single", "digest": "aaa"}]},
        [{**listed_base,
          "trials": [{"name": "extra", "digest": "zzz"},
                     {"name": "single", "digest": "aaa"}]}],
        10.0,
        lines.append,
    )
    check(
        "listed row digests pair by name",
        not any("::warning::" in line for line in lines),
    )

    speedy = {
        "bench": "t",
        "users": 10,
        "slots": 2,
        "seed": 1,
        "single_thread": {"threads": 1, "reports_per_sec": 100.0},
        "multi_thread": {"threads": 1, "reports_per_sec": 101.0},
        "speedup": 1.01,
    }
    lines = []
    diff(speedy, [speedy], 10.0, lines.append)
    check(
        "same-thread-count speedup is flagged suspect",
        any("suspect speedup" in line for line in lines),
    )
    scaled = {
        **speedy,
        "multi_thread": {"threads": 8, "reports_per_sec": 700.0},
        "speedup": 7.0,
    }
    lines = []
    diff(scaled, [scaled], 10.0, lines.append)
    check(
        "real scaling is not flagged",
        not any("suspect speedup" in line for line in lines),
    )

    def error_of(path):
        try:
            load_bench_json(path)
        except BenchDiffError as err:
            return str(err)
        return None

    missing = error_of("/nonexistent/BENCH_missing.json")
    check("missing file is diagnosed", missing is not None)
    check("missing-file message names the path",
          missing is not None and "BENCH_missing.json" in missing)

    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as f:
            f.write("{ not json")
        check("bad JSON is diagnosed", error_of(bad) is not None)

        array = os.path.join(tmp, "array.json")
        with open(array, "w") as f:
            f.write("[1, 2]")
        check("non-object is diagnosed", error_of(array) is not None)

        schemaless = os.path.join(tmp, "schemaless.json")
        with open(schemaless, "w") as f:
            json.dump({"users": 10}, f)
        err = error_of(schemaless)
        check("missing 'bench' key is diagnosed", err is not None)
        check("schema message names the key",
              err is not None and "'bench'" in err)

        ok = os.path.join(tmp, "ok.json")
        with open(ok, "w") as f:
            json.dump(base, f)
        check("valid file loads", error_of(ok) is None)

    if failures:
        for name in failures:
            print(f"self-test FAILED: {name}", file=sys.stderr)
        return 1
    print("bench_diff.py self-test: all checks passed")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    warn_drop = 10.0
    strict = "--strict" in argv
    for arg in argv[1:]:
        if arg.startswith("--warn-drop="):
            warn_drop = float(arg.split("=", 1)[1])

    try:
        baseline = load_bench_json(args[0])
        currents = [load_bench_json(path) for path in args[1:]]
    except BenchDiffError as err:
        print(f"bench_diff: error: {err}", file=sys.stderr)
        return 2

    regressions = diff(baseline, currents, warn_drop)
    if regressions and strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
