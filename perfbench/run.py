#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer numbers for the
at-scale cluster sweep.

Run it from the repository root:

    python3 perfbench/run.py --workload sweep-quick --seed 1 --seconds 10 --trace 0

It builds the `perfbench` package (a package of its own, see Cargo.toml) and
runs its subcommands, one process per pass, so each pass's peak RSS is its
own:

* ``--trace 0``: the untraced pass. ``SweepSpec::run`` followed by
  ``AtScaleReport::to_json_with_throughput``, repeated in a closed loop until
  the sweeps have measured ``--seconds`` in total (at least once), then the sweep's set-up
  (realise, model, place, bound) repeated at least three times. Prints every
  ``end_to_end`` metric of BENCHMARK.json: the median over the repeats.
* ``--trace 1``: one untraced pass, then the traced pass, which makes the
  same layer calls as ``SweepSpec::run`` with a span around each, replays
  the workload's own trace through the hot building blocks, and writes the
  spans as Chrome trace-event JSON under ``perfbench/out/``. Prints every
  ``per_layer`` metric. The engine metrics sum the sweep's cells per engine;
  on a workload whose sweep never runs one engine (coupled on large-rr, lane
  on trace-locality), a probe cell replays the first 2^20 requests of the
  workload's trace through it. The ingest metrics parse the workload's CSV
  on trace-locality and a sample-sized CSV generated from the seed elsewhere.

Both modes run the correctness gate: per cell ``completed + rejected ==
requests``, ``sum(rack_completed) == completed``, ``optimal_coldstart_s <=
coldstart_s`` and ``events > 0``; the FNV digest of ``to_json()`` must be
the same on every repeat; the traced cells must equal the untraced cells
field for field. Cells that fail count in ``failed``.

Numbers are host time. The modelled statistics serve only as identity
checks; the model has no hardware reference here, so no accuracy figure is
reported. Seeds 1-10 are for tuning the benchmark; seed 1000 is held out for
verifying a claimed gain.
"""

import argparse
import atexit
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-quick", "large-rr", "trace-locality")
# Each run must end within 180 s of starting, the build excepted.
DEADLINE_S = 175.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the measuring program; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "perfbench")


class Runner:
    def __init__(self, binary, args, out_dir):
        self.binary = binary
        self.base = ["--workload", args.workload, "--seed", str(args.seed), "--out", out_dir]
        self.deadline = time.monotonic() + DEADLINE_S

    def call(self, command, *extra):
        """Runs one subcommand and returns the JSON object it printed last."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            fail(f"out of time before {command}")
        try:
            done = subprocess.run(
                [self.binary, command, *self.base, *extra],
                stdout=subprocess.PIPE,
                text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            fail(f"{command} ran past the deadline")
        if done.returncode != 0:
            fail(f"{command} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def untraced_loop(runner, seconds):
    runs = []
    while sum(run["run_s"] for run in runs) < seconds:
        runs.append(runner.call("untraced"))
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        declared = json.load(f)
    binary = build()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(binary, args, out_dir)

    inputs = {}
    if args.workload == "trace-locality":
        # The seeded input, made outside every timed region and removed at
        # exit: it is tens of MB per seed.
        csv = runner.call("gen-csv")
        atexit.register(os.remove, csv["path"])
        inputs = {k: csv[k] for k in ("csv_mb", "functions", "minutes", "invocations")}

    attempted = 0
    failed = 0
    problems = []
    values = {}
    if args.trace == 0:
        runs = untraced_loop(runner, args.seconds)
        setup = runner.call("setup", "--seconds", str(args.seconds))
        for run in runs:
            attempted += run["cells"]
            failed += run["failed"]
        if len({run["digest"] for run in runs}) != 1:
            problems.append("to_json digest differs between repeats")
        if not setup["consistent"] or setup["requests"] != runs[0]["requests"]:
            problems.append("set-up repeats realised a different trace")
        median = lambda f: statistics.median(f(run) for run in runs)
        values = {
            "run_s": median(lambda r: r["run_s"]),
            "setup_s": statistics.median(setup["setup_s"]),
            "events_per_s": median(lambda r: r["events"] / r["run_s"]),
            "engine_events_per_s": median(lambda r: r["events"] / r["engine_s"]),
            "peak_rss_mib": median(lambda r: r["peak_rss_mib"]),
        }
        inputs.update(requests=runs[0]["requests"], functions=setup["functions"],
                      events=runs[0]["events"])
        print(f"repeats: {len(runs)} untraced sweeps, {len(setup['setup_s'])} set-ups")
        for run in runs:
            # Host CPU seconds and hypervisor steal during each sweep: a slow
            # run with a small cpu_s/run_s ratio or a large steal lost time
            # to the host, not to the program.
            print(f"sweep: run_s {run['run_s']:.3f} cpu_s {run['cpu_s']:.2f} "
                  f"steal_s {run['steal_s']:.2f}")
        print(f"digest: {runs[0]['digest']}")
        wanted = declared["end_to_end"]
    else:
        untraced = runner.call("untraced")
        traced = runner.call("traced")
        attempted = untraced["cells"] + traced["cells"]
        failed = untraced["failed"] + traced["failed"]
        mismatched = sum(
            a != b for a, b in zip(untraced["cell_digests"], traced["cell_digests"])
        )
        mismatched += abs(len(untraced["cell_digests"]) - len(traced["cell_digests"]))
        failed += mismatched
        if untraced["digest"] != traced["digest"]:
            problems.append("traced to_json digest differs from the untraced one")
        values = dict(traced["metrics"])
        values["trace.overhead_frac"] = traced["sweep_s"] / untraced["run_s"] - 1.0
        inputs.update(requests=untraced["requests"], events=untraced["events"])
        print(f"digest: {traced['digest']}  spans: {traced['trace_file']}")
        wanted = declared["per_layer"]

    print(f"workload {args.workload}, seed {args.seed}, input {json.dumps(inputs)}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
        print(f"{name:<30} {values[name]:>18.6f} {metric['unit']}")
    print(f"{'failed_frac':<30} {failed / max(attempted, 1):>18.6f} ratio")
    for problem in problems:
        print(f"correctness: {problem}")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
