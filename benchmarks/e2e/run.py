#!/usr/bin/env python3
"""Two-clock end-to-end benchmark with a per-layer traced run.

One workload, one process (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload oltp_point --seed 1 \\
        --seconds 20 --trace 0

prints every end-to-end metric by name with its unit and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 1`` prints the per-layer metrics of a traced run instead.

Without ``--workload`` it drives every workload ``--reps`` times, each rep
in its own subprocess, and prints medians and quartiles.  ``--quick`` is
the smoke path, ``--selftest`` checks the tracer's table against the
engine, ``--check-determinism`` checks that the simulated clock and every
exact count repeat for one seed.  See README.md beside this file.
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit("benchmarks/e2e/run.py: no engine to measure at %s" % SRC)
sys.path.insert(0, str(SRC))
# One engine configuration on both sides of every comparison: these
# variables would switch sanitizers, fault plans or the row engine on.
for variable in ("REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_BATCH"):
    os.environ.pop(variable, None)


def pin_to_one_cpu():
    """Keep this process, and the session threads it starts, on one CPU.

    All load comes from one process and scheduled sessions are baton-passed
    threads with exactly one runnable, so one core loses nothing.  Left to
    the host, every baton hand-off may wake the next thread on the other
    core: identical rounds of ``replicated`` then took 3.5 to 6.2 s, pinned
    they take 3.2 to 3.3 s.  The highest-numbered CPU allowed, because
    interrupts and the caller of this program tend to sit on the lowest.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not this platform, or not permitted: run unpinned


pin_to_one_cpu()

import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, MixedConc, Round, Step  # noqa: E402

MANIFEST = HERE.parents[1] / "BENCHMARK.json"


# ---------------------------------------------------------------------- #
# one round, one run
# ---------------------------------------------------------------------- #


def counters_of(server):
    flat = metrics.flatten(server.metrics.snapshot())
    flat.pop("snapshot_at_us", None)
    flat["disk.reads"] = server.disk.reads
    flat["disk.writes"] = server.disk.writes
    return flat


def play_round(workload, traced=False):
    """Fresh server, timed phase, checks.  With ``traced`` the engine's
    entry points are wrapped for the whole round - from before set-up,
    because a cluster hands out bound methods (``publisher.tap``) while it
    is built - and the spans of set-up are thrown away."""
    round_ = Round(observer=metrics.PlanObserver() if traced else None)
    recorder = spans.Recorder()
    installation = spans.install(recorder) if traced else None
    try:
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        round_.setup_s = time.perf_counter() - start
        gc.collect()
        recorder.drain()
        server = workload.server
        before = counters_of(server)
        sim0 = server.clock.now
        round_.start = time.perf_counter()
        workload.run(round_)
        round_.wall_s = time.perf_counter() - round_.start
        round_.sim_us = server.clock.now - sim0
        after = counters_of(server)
        round_.spans = recorder.drain()
        workload.verify(round_)
        round_.check_spans = recorder.drain()
    finally:
        if installation is not None:
            installation.uninstall()
    round_.counters = {
        name: after[name] - before.get(name, 0) for name in after
    }
    round_.missing = installation.missing if traced else []
    if traced:
        round_.totals = spans.Totals(round_.spans)
        round_.check_totals = spans.Totals(round_.check_spans)
    return round_


def run_workload(args):
    """Rounds of one workload in this process; returns the report dict."""
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    traced = bool(args.trace)

    # A traced run alternates untraced and traced rounds: the tracing
    # overhead is the ratio of the fastest of each, and all of them must
    # agree on the simulated clock.
    baseline, rounds = [], []

    def more():
        if args.rounds is not None:
            return len(rounds) < args.rounds
        return sum(r.wall_s for r in baseline + rounds) < args.seconds

    while not rounds or more():
        if rounds and not args.json:
            rounds[-1].spans = rounds[-1].check_spans = ()  # only totals now
        if traced:
            baseline.append(play_round(workload))
        rounds.append(play_round(workload, traced=traced))

    problems = []
    everything = baseline + rounds
    reference = metrics.sim_fingerprint(everything[0])
    for index, round_ in enumerate(everything):
        if metrics.sim_fingerprint(round_) != reference:
            problems.append(
                "round %d disagrees with the first on the simulated clock "
                "or a counter: %s"
                % (index, first_difference(everything[0], round_)))
        problems.extend(round_.errors)
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    if traced:
        # Layer times are the least disturbed round's; counts are every
        # round's.
        chosen = min(rounds, key=lambda r: r.wall_s)
        values = metrics.per_layer(
            chosen, min(r.wall_s for r in baseline))
        definitions = metrics.PER_LAYER
        if values["optimizer.plan_changes"]:
            problems.append("a template's plan changed in the timed phase")
    else:
        values = metrics.end_to_end(
            rounds,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        definitions = metrics.END_TO_END
    return {
        "workload": workload.name,
        "seed": args.seed,
        "quick": args.quick,
        "trace": int(traced),
        "rounds": len(rounds),
        "clients": workload.SESSIONS,
        "samples_per_round": len(rounds[0].samples),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "missing_entry_points": rounds[0].missing,
        "metrics": {
            d.name: {"value": values[d.name], "unit": d.unit}
            for d in definitions
        },
        "_rounds": rounds,
    }


def first_difference(a, b):
    if (a.attempted, a.failed, a.sim_us) != (b.attempted, b.failed, b.sim_us):
        return "attempted/failed/sim_us %r vs %r" % (
            (a.attempted, a.failed, a.sim_us),
            (b.attempted, b.failed, b.sim_us))
    for name in sorted(a.counters):
        if a.counters[name] != b.counters.get(name):
            return "%s %r vs %r" % (
                name, a.counters[name], b.counters.get(name))
    return "per-statement simulated latencies"


def print_report(report):
    print("# workload=%s seed=%d trace=%d rounds=%d clients=%d (closed loop)"
          " samples/round=%d%s" % (
              report["workload"], report["seed"], report["trace"],
              report["rounds"], report["clients"],
              report["samples_per_round"],
              "  ** quick: not comparable **" if report["quick"] else ""))
    clocks = {d.name: d.clock for d in metrics.END_TO_END}
    for name, entry in report["metrics"].items():
        clock = clocks.get(name)
        print("%-40s %16.6g %-6s%s" % (
            name, entry["value"], entry["unit"],
            " [%s clock]" % clock if clock in ("wall", "sim") else ""))
    if report["missing_entry_points"]:
        print("# entry points no longer in the engine (rows degraded): %s"
              % ", ".join(report["missing_entry_points"]))
    for problem in report["problems"]:
        print("# PROBLEM: %s" % problem)
    print("# attempted=%d failed=%d failed_share=%.6f correct=%s" % (
        report["attempted"], report["failed"],
        report["failed"] / report["attempted"], report["correct"]))


def write_json(report, path):
    """Everything one run measured, spans of the last round included."""
    last = report["_rounds"][-1]
    document = {k: v for k, v in report.items() if not k.startswith("_")}
    document["machine"] = machine()
    document["per_round"] = [
        {"setup_s": r.setup_s, "wall_s": r.wall_s, "sim_us": r.sim_us,
         "attempted": r.attempted, "failed": r.failed, "facts": r.facts}
        for r in report["_rounds"]
    ]
    document["spans"] = [
        span._asdict() for span in last.spans + last.check_spans
    ] if report["trace"] else []
    pathlib.Path(path).write_text(json.dumps(document))


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------- #
# driving several runs (each in its own subprocess)
# ---------------------------------------------------------------------- #


def child(workload, seed, trace, extra):
    """Run one workload in a subprocess; returns its last-line JSON."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)] + extra
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=900
    )
    if done.returncode != 0:
        sys.exit("%s\nfailed: %s" % (done.stdout + done.stderr,
                                      " ".join(command)))
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_params(args):
    extra = ["--quick"] if args.quick else []
    if args.rounds is not None:
        return extra + ["--rounds", str(args.rounds)]
    return extra + ["--seconds", str(args.seconds)]


def drive_all(args):
    """Every workload: ``--reps`` untraced runs and one traced run."""
    print("# machine: %s%s" % (
        machine(), "  ** quick: not comparable **" if args.quick else ""))
    ok = True
    for name in WORKLOADS:
        runs = [child(name, args.seed, 0, run_params(args))
                for __ in range(args.reps)]
        ok = ok and all(run["correct"] for run in runs)
        print("## %s: untraced, %d run(s), seed %d" % (
            name, len(runs), args.seed))
        for d in metrics.END_TO_END:
            values = [run["metrics"][d.name]["value"] for run in runs]
            if len(values) > 1:
                q1, __, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            print("%-18s median %14.6g  q1 %14.6g  q3 %14.6g %-5s [%s]" % (
                d.name, statistics.median(values), q1, q3, d.unit, d.clock))
        traced = child(name, args.seed, 1, run_params(args))
        ok = ok and traced["correct"]
        print("## %s: traced" % name)
        for metric, entry in traced["metrics"].items():
            print("%-40s %16.6g %s" % (metric, entry["value"], entry["unit"]))
    return ok


def check_determinism(args):
    """Same seed twice: every sim metric and exact count must be equal.
    Then a held-out seed must complete without a failure."""
    exact = {d.name for d in metrics.END_TO_END if d.clock == "sim"}
    exact |= {d.name for d in metrics.PER_LAYER if d.exact}
    extra = ["--rounds", "1"] + (["--quick"] if args.quick else [])
    failures = 0
    for name in WORKLOADS:
        ok = True
        for trace in (0, 1):
            first = child(name, args.seed, trace, extra)
            second = child(name, args.seed, trace, extra)
            for metric in first["metrics"]:
                a = first["metrics"][metric]["value"]
                b = second["metrics"][metric]["value"]
                if metric in exact and a != b:
                    print("%s: %s differs between two runs of seed %d: "
                          "%r vs %r" % (name, metric, args.seed, a, b))
                    ok = False
                    break
            ok = ok and first["correct"] and second["correct"]
        held_out = child(name, args.seed + 1, 0, extra)
        if not held_out["correct"]:
            print("%s: held-out seed %d failed" % (name, args.seed + 1))
            ok = False
        print("%s: %s" % (name, "deterministic" if ok else "NOT deterministic"))
        failures += not ok
    return not failures


# ---------------------------------------------------------------------- #
# selftest
# ---------------------------------------------------------------------- #


def selftest(args):
    """The tracer's table against the engine, the manifest against the
    metric tables, and the abort-aware session source."""
    problems = []
    seen = set()
    for name in WORKLOADS:
        workload = WORKLOADS[name](args.seed, quick=True)
        round_ = play_round(workload, traced=True)
        seen.update(span.name for span in round_.spans + round_.check_spans)
        if round_.failed:
            problems.append("%s: %s" % (name, round_.errors))
        problems.extend("%s: entry point %s is gone" % (name, missing)
                        for missing in round_.missing)
        generators = [s for s in round_.spans if s.name == "Executor.run"]
        if generators and not any(s.busy_s > 0 for s in generators):
            problems.append("%s: generator spans read zero" % name)
    problems.extend("no workload reached %s" % name
                    for name in spans.entry_names() if name not in seen)
    problems.extend(manifest_problems())
    problems.extend(abort_problems(args.seed))
    for problem in problems:
        print("SELFTEST PROBLEM: %s" % problem)
    print("selftest: %d entry points, %d reached, %d problem(s)" % (
        len(spans.entry_names()), len(seen), len(problems)))
    return not problems


def manifest_problems():
    manifest = json.loads(MANIFEST.read_text())
    problems = []
    listed = {(m["name"], m["unit"], m["better"], m["bound"])
              for m in manifest["end_to_end"]}
    ours = {(d.name, d.unit, d.better, d.bound) for d in metrics.END_TO_END}
    if listed != ours:
        problems.append("BENCHMARK.json end_to_end differs: %s"
                        % sorted(listed ^ ours))
    listed = {(m["name"], m["unit"], m["better"])
              for m in manifest["per_layer"]}
    ours = {(d.name, d.unit, d.better) for d in metrics.PER_LAYER}
    if listed != ours:
        problems.append("BENCHMARK.json per_layer differs: %s"
                        % sorted(listed ^ ours))
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ")
    return problems


def abort_problems(seed):
    """A transaction whose second statement fails must be rolled back and
    abandoned - not run on into a bare COMMIT, which would kill the run."""
    workload = MixedConc(seed, quick=True)
    doomed = Step([
        ("begin", "BEGIN", None),
        ("insert", "INSERT INTO kv VALUES (0, 0, 'duplicate')", None),
        ("update", "UPDATE kv SET v = v + 1 WHERE k = 1", None),
        ("commit", "COMMIT", None),
    ], effect={1: 1})
    workload.scripts = [[doomed] + script for script in workload.scripts]
    workload.setup()
    round_ = Round()
    workload.run(round_)
    failed_in_run = round_.failed
    workload.verify(round_)
    problems = []
    # Per session: the failing INSERT plus the two statements after it.
    if failed_in_run != 3 * len(workload.scripts):
        problems.append("abort-aware source counted %d failures, expected %d"
                        % (failed_in_run, 3 * len(workload.scripts)))
    if round_.failed != failed_in_run:
        problems.append("abandoned transaction left effects: %s"
                        % round_.errors)
    return problems


# ---------------------------------------------------------------------- #


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed-phase wall to accumulate over rounds")
    parser.add_argument("--rounds", type=int,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1,
                        help="untraced runs per workload without --workload")
    parser.add_argument("--quick", action="store_true",
                        help="statement counts / 20: a smoke run whose "
                        "numbers are not comparable with anything")
    parser.add_argument("--json", metavar="OUT",
                        help="write everything measured (spans included)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    if args.quick and args.json:
        parser.error("--quick numbers are not comparable; --json refuses "
                     "to record them")
    if args.quick and args.rounds is None:
        args.rounds = 1
    if args.selftest:
        return 0 if selftest(args) else 1
    if args.check_determinism:
        return 0 if check_determinism(args) else 1
    if args.workload is None:
        if args.json:
            parser.error("--json needs --workload")
        return 0 if drive_all(args) else 1
    report = run_workload(args)
    print_report(report)
    if args.json:
        write_json(report, args.json)
    print(json.dumps({
        key: report[key] for key in
        ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
