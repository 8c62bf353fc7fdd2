"""The rbmx benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every workload drives one public entry
point of `rbmx` in a closed loop: one worker process, one thread, one
operation in flight.  Each operation's output is checked against a
reference the benchmark computes itself.  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 they are the per-layer ones, taken from a traced pass over
a fixed sequence of operations; a second traced pass in a fresh process
must repeat the work counters exactly, and an untraced pass over the same
operations gives trace.overhead_ratio.  See bench/README.md.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while tuning; a later claim must hold here too
SETUP_PROBES = 2  # fresh interpreters timed up to their first operation
CHILD_TIMEOUT_S = 170

# operations in one traced pass: fixed, so work counts repeat exactly
TRACE_OPS = {"sample_chains": 96, "simcheck_images": 80, "score_chains": 60}

# wrapped functions that each workload must call; zero calls means a
# rename or a refactor bypassed the wrapper, and the traced run fails
USES = {
    "sample_chains": [
        "cli.main", "rblang.syntax.parse", "rblang.elaborate.elaborate_dynamic",
        "rblang.elaborate.provider", "automata.transition", "rblang.run.run_program",
        "core.MixedSystem", "core.compose", "core.sample",
    ],
    "simcheck_images": [
        "cli.main", "core.system_from_json", "automata.ma_from_json",
        "embeddings.spa_from_json", "automata.simulates", "automata.bisimilar",
        "automata.lift_check", "embeddings.spa_simulates", "transport.feasible_transport",
    ],
    "score_chains": [
        "rblang.syntax.parse", "rblang.elaborate.elaborate_static",
        "rblang.elaborate.elaborate_graph", "core.MixedSystem", "core.compose",
        "core.outer", "core.inner", "core.likelihood", "core.marginal", "core.compress",
        "bayes.bn_score", "factorgraph.fg_to_bn",
    ],
}

# counters that must be identical across two traced passes of one seed
REPEAT = [
    "core.MixedSystem.outcomes", "core.compose.outcomes_out", "automata.lift_check.calls",
    "transport.feasible_transport.allowed_pairs", "rblang.elaborate.provider.calls",
]


class BenchError(Exception):
    pass


def spawn(args):
    """Start a worker; (process, scaled seconds until it printed READY).
    The worker reports its mean calibration time during set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + [str(a) for a in args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            raise BenchError("worker %s did not finish set-up in time" % args)
        line = proc.stdout.readline().split()
        ready_s = time.perf_counter() - t0
        if len(line) != 2 or line[0] != "READY":
            raise BenchError("worker %s ended during set-up" % args)
        return proc, ready_s * calibration.REFERENCE_S / float(line[1])
    except BaseException:
        stop(proc)
        raise


def finish(proc, args):
    """Wait for a worker; its JSON result, or None if it printed none."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def stop(proc):
    """End a worker, letting it remove its work directory first."""
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(results):
    """(attempted, failures) over worker results, warm-up included."""
    attempted, failures = 0, []
    for r in results:
        attempted += r["executions"] + r["warmup"]
        failures += r["warmup_failures"] + r["failures"]
    return attempted, failures


def end_to_end(workload, seed, seconds):
    setup = []
    for _ in range(SETUP_PROBES):
        args = [workload, seed, "setup"]
        proc, ready_s = spawn(args)
        finish(proc, args)
        setup.append(ready_s)
    args = [workload, seed, "timed", seconds]
    proc, ready_s = spawn(args)
    setup.append(ready_s)
    r = finish(proc, args)
    times, wall = r["times"], r["wall_times"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1000.0,
        "op_ms_p90": percentile(times, 90) * 1000.0,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    print("# %s seed %d: %d ops x %d passes, p50 class %s, p90 class %s"
          % (workload, seed, len(times), r["executions"] // len(times),
             class_at(r, 50), class_at(r, 90)))
    print("# unscaled wall time: ops_per_s %.4g, op_ms_p50 %.4g, op_ms_p90 %.4g"
          % (len(wall) / sum(wall), statistics.median(wall) * 1000.0,
             percentile(wall, 90) * 1000.0))
    return [r], metrics


def class_at(r, q):
    """Size class of the operation at the q-th percentile of op time."""
    ranked = sorted(zip(r["times"], r["classes"]))
    return ranked[min(len(ranked) - 1, len(ranked) * q // 100)][1]


def run_pass(args):
    proc, _ = spawn(args)
    return finish(proc, args)


def per_layer(workload, seed):
    n = TRACE_OPS[workload]
    untraced = run_pass([workload, seed, "pass", 0, n])
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-seed%d.jsonl.gz" % (workload, seed))
    first = run_pass([workload, seed, "pass", 1, n, spans])
    second = run_pass([workload, seed, "pass", 1, n])
    layers = first["layers"]
    missing = [f for f in USES[workload] if layers[f + ".calls"] == 0]
    if missing:
        raise BenchError("%s made no calls through %s" % (workload, ", ".join(missing)))
    drift = {k: (layers[k], second["layers"][k]) for k in REPEAT
             if layers[k] != second["layers"][k]}
    if drift:
        raise BenchError("work counters differ between two traced passes: %s" % drift)
    layers["trace.overhead_ratio"] = sum(untraced["times"]) / sum(first["times"])
    return [untraced, first, second], layers


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sample_chains", "simcheck_images", "score_chains"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; held-out seed %d)"
                    % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="summed operation time of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so the worker it started is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared(kind)
    try:
        if args.trace:
            results, values = per_layer(args.workload, args.seed)
        else:
            results, values = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        sys.stderr.write("benchmark failed: no value for %s\n" % ", ".join(missing))
        return 1
    attempted, failures = tally(results)
    for f in failures[:10]:
        sys.stderr.write("failed: %s\n" % f)
    print("# attempted %d, failed %d, failed_frac %.6f"
          % (attempted, len(failures), len(failures) / attempted))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
