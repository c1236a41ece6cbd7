"""The univhopf benchmark: one seeded workload, a closed loop with one client.

    python3 perfbench/run.py --workload presentations --seed 1 --seconds 30 --trace 0

All four workloads, each printing its metrics by name and unit:

    for w in presentations groups sets cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the repository root.  The workload's jobs come from the seed
(gen.py); each job's documents are parsed once at set-up, outside timing.
The loop then runs the jobs in order, one at a time, in whole cycles over
the list, and stops at the cycle boundary nearest to --seconds (after at
least one cycle and enough samples for the p90).  Every output is checked
against its reference after its job's timing stops.  Between jobs, fresh
interpreters importing the CLI are started one at a time for setup_s.

--trace 0 reports the end-to-end metrics, scaled to a reference machine
speed measured by a fixed loop after every job (stats.py); the wall-clock
values are printed beside them.  --trace 1 runs each job twice,
untraced and traced in alternating order, reports the per-layer metrics
from the traced runs and the tracing overhead (traced over untraced median
latency).  Per-job output hashes (and, traced, the spans) are written under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last line
of standard output is one JSON object with the result.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, Untraced, layer_metrics, unit_of  # noqa: E402

SETUP_PROBES = 12
SETUP_SCRIPT = "import univhopf.cli as c; c.build_parser()"
HARD_LIMIT_S = 150
MAX_LISTED = 200


class SetupProbe:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser.  Probes run one at a time, between jobs, spread over the run, so
    their median sees the same machine as the jobs do."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.times = []
        self.at = []  # jobs completed before each probe
        self.probe(0)  # unmeasured: fills the bytecode cache
        self.times.clear()
        self.at.clear()

    def probe(self, jobs_done):
        self.at.append(jobs_done)
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        self.times.append(elapsed)


def prepare(workload, jobs, out_dir):
    """Parse every generated document once; write the cli workload's files."""
    from univhopf import cli
    from univhopf import documents as docs
    from univhopf.errors import InputError, PreconditionError

    for job in jobs:
        for text in job["docs"]:
            try:
                docs.parse_input_document(text)
            except (InputError, PreconditionError) as exc:
                if job["params"].get("code") != 3:
                    sys.exit(f"benchmark bug: {job['id']} generated a rejected document: {exc}")
    if workload != "cli":
        return
    doc_dir = out_dir / "docs"
    doc_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        p = job["params"]
        paths = []
        for k, text in enumerate(job["docs"]):
            path = doc_dir / f"{job['id']}-{k}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        if p["prepare"]:
            out_path = doc_dir / f"{job['id']}-prepared.json"
            with open(out_path, "w", encoding="utf-8") as fh:
                if cli.run([p["prepare"], *paths], stdout=fh) != 0:
                    sys.exit(f"benchmark bug: {job['id']}: {p['prepare']} failed at set-up")
            paths = [str(out_path)]
        job["argv"] = [p["command"], *paths, "--format", "json", *p["flags"]]


class Run:
    """Executions of one run: durations, outcomes, failures and hashes."""

    def __init__(self, runner, checker):
        self.runner, self.checker = runner, checker
        self.durations = {"untraced": [], "traced": []}
        self.calibrations = []  # machine-speed loop time after each timed job
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first MAX_LISTED, with their mismatches
        self.failed_ids = set()
        self.outcomes = Counter()
        self.hashes = {}
        self.unstable = set()

    def execute(self, job, tracer, kind, index):
        tracer.job = index
        start = perf_counter()
        try:
            res, error = self.runner(job, tracer), None
        except Exception as exc:  # every unpredicted exception is a failed job
            res, error = None, f"unexpected {type(exc).__name__}: {exc}"
        self.durations[kind].append(perf_counter() - start)
        self.attempted += 1
        problems, outcome = ([error], []) if error else self.checker(job, res)
        self.outcomes.update(outcome)
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_LISTED:
                self.failures.append((job["id"], problems))
            self.failed_ids.add(index)
        if res is not None:
            digest = hashlib.sha256(res["text"].encode("utf-8")).hexdigest()
            if self.hashes.setdefault(job["id"], digest) != digest:
                self.unstable.add(job["id"])


def run_loop(jobs, run, seconds, tracer=None, patch=nullcontext, setup=None):
    """Whole cycles over the job list, ending at the cycle boundary nearest
    to --seconds, so every family has the same share of the samples and the
    percentiles sit at the same place in the mix for every seed.

    With a tracer, each job runs untraced and traced, in alternating order;
    patch(tracer) is entered around each traced execution."""
    plain = Untraced()
    start = perf_counter()
    cycles = 0
    while True:
        for i, job in enumerate(jobs):
            index = cycles * len(jobs) + i
            if setup is not None and len(setup.times) < SETUP_PROBES * (perf_counter() - start) / seconds:
                setup.probe(index)
            if tracer is None:
                run.execute(job, plain, "untraced", index)
                run.calibrations.append(stats.time_calibration())
                continue
            for kind in ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced"):
                if kind == "untraced":
                    run.execute(job, plain, kind, None)
                else:
                    with patch(tracer):
                        run.execute(job, tracer, kind, index)
        cycles += 1
        elapsed = perf_counter() - start
        enough = tracer is not None or stats.tail(run.durations["untraced"]) is not None
        if (enough and elapsed + elapsed / cycles / 2 >= seconds) or elapsed >= HARD_LIMIT_S:
            break
    while setup is not None and len(setup.times) < SETUP_PROBES:
        setup.probe(cycles * len(jobs) - 1)
    return cycles


E2E_UNITS = {"setup_s": "s", "job_ms.p50": "ms", "job_ms.p90": "ms", "jobs_per_s": "1/s",
             "peak_rss_mib": "MiB"}


def _end_to_end(setup_times, latencies, peak_rss_mib):
    p90 = stats.tail(latencies)
    return {
        "setup_s": median(setup_times),
        "job_ms.p50": stats.p50(latencies) * 1000,
        "job_ms.p90": p90 * 1000 if p90 is not None else None,
        "jobs_per_s": len(latencies) / sum(latencies),
        "peak_rss_mib": peak_rss_mib,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = None if args.trace else SetupProbe()

    from jobs import RUNNERS, instrument_cli

    jobs = gen.generate(args.workload, args.seed)
    prepare(args.workload, jobs, out_dir / f"{args.workload}-{args.seed}")
    run = Run(*RUNNERS[args.workload])
    tracer = Tracer() if args.trace else None
    patch = instrument_cli if args.workload == "cli" else nullcontext
    cycles = run_loop(jobs, run, args.seconds, tracer, patch, setup)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = run.durations["untraced"]
    tag = f"{args.workload}-{args.seed}"
    (out_dir / f"results-{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sha256": run.hashes, "failures": run.failures,
        "outcomes": dict(run.outcomes), "nondeterministic": sorted(run.unstable),
    }, indent=1), encoding="utf-8")

    if args.trace:
        tracer.write(out_dir / f"spans-{tag}.jsonl")
        traced = run.durations["traced"]
        metrics = layer_metrics(tracer, sum(traced), run.failed_ids, len(traced))
        metrics["trace_overhead"] = stats.p50(traced) / stats.p50(timed)
        units = {name: unit_of(name) for name in metrics}
        shown = dict(metrics)
    else:
        factors = stats.speed_factors(run.calibrations)
        setup_factors = [factors[min(at, len(factors) - 1)] for at in setup.at]
        metrics = _end_to_end([t * f for t, f in zip(setup.times, setup_factors)],
                              [d * f for d, f in zip(timed, factors)], peak_rss_mib)
        raw = _end_to_end(setup.times, timed, peak_rss_mib)
        units, shown = dict(E2E_UNITS), dict(metrics)
        for name in ("setup_s", "job_ms.p50", "job_ms.p90", "jobs_per_s"):
            shown[f"{name}, wall clock"] = raw[name]
            units[f"{name}, wall clock"] = E2E_UNITS[name]
        shown["machine_speed"] = stats.REFERENCE_S / median(run.calibrations)
        units["machine_speed"] = "x reference"
    shown["failed_ratio"] = run.failed / run.attempted
    units["failed_ratio"] = "failed/attempted"

    print(f"workload {args.workload}, seed {args.seed}: {cycles} cycles of {len(jobs)} jobs, "
          f"{run.attempted} executions, {run.failed} failed")
    for name, value in shown.items():
        text = "withheld (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {text} {units[name]}")
    print(f"  samples: {len(timed)} timed job latencies")
    if run.outcomes:
        print("  predicted outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(run.outcomes.items())))
    if run.unstable:
        print(f"  output changed between executions of: {', '.join(sorted(run.unstable))}")
    for job_id, problems in run.failures[:20]:
        print(f"  FAILED {job_id}: {'; '.join(problems)}")
    if None in metrics.values():
        sys.exit("too few samples for job_ms.p90 within the time limit")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
