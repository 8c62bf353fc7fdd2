"""One benchmark process: set up a workload, then run one measurement.

    python3 bench/worker.py WORKLOAD SEED setup
    python3 bench/worker.py WORKLOAD SEED timed SECONDS
    python3 bench/worker.py WORKLOAD SEED pass TRACED OPS [SPANS_PATH]

The worker imports `rbmx` from the `src` directory of the checkout that
holds this file, generates the workload's inputs and references, runs one
untimed operation of each size class, and prints READY.  That moment ends
set-up.  `setup` then exits.

`timed` runs operations in a closed loop for about SECONDS of summed op
time, in PASSES passes over the same operations: the first pass runs whole
cycles of the workload's sequence until it has used its share of the time
(and at least MIN_OPS ran), the later passes repeat those operations.  An
operation's time is the least over its passes, as with timeit, so a stall
of the shared machine that hits one pass does not move the result.

`pass` runs the first OPS operations of the sequence once, with or
without tracing.  The last line of output is a JSON result.
"""

import gc
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import types

import calibration
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 100
PASSES = 2


def import_rbmx():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rbmx.automata
    import rbmx.bayes
    import rbmx.cli
    import rbmx.core
    import rbmx.embeddings
    import rbmx.factorgraph
    import rbmx.rblang
    import rbmx.rblang.elaborate
    import rbmx.rblang.run
    import rbmx.rblang.syntax
    import rbmx.transport

    if not os.path.abspath(rbmx.__file__).startswith(src + os.sep):
        raise SystemExit("rbmx was not loaded from %s" % src)
    return types.SimpleNamespace(
        cli=rbmx.cli, core=rbmx.core, automata=rbmx.automata, bayes=rbmx.bayes,
        embeddings=rbmx.embeddings, factorgraph=rbmx.factorgraph,
        transport=rbmx.transport, rblang=rbmx.rblang, syntax=rbmx.rblang.syntax,
        elaborate=rbmx.rblang.elaborate, run=rbmx.rblang.run)


def load_workload(name):
    import sample_chains
    import score_chains
    import simcheck_images

    mods = {m.Workload.name: m for m in (sample_chains, simcheck_images, score_chains)}
    if name not in mods:
        raise SystemExit("unknown workload %r; choose from %s" % (name, sorted(mods)))
    return mods[name].Workload


def run_op(wl, op):
    """(seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(op)
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - t0, "%s: %s" % (type(exc).__name__, exc)
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(op, out)
    except Exception as exc:  # output the check cannot read
        return dt, "unreadable output: %s: %s" % (type(exc).__name__, exc)


def loop(wl, ops, until_s=None, tracer=None):
    """Run ops in order, cycling, each after one calibration sample.
    Without until_s each runs once; with it, stop at the first cycle
    boundary where the summed op time has reached until_s and MIN_OPS ran.
    Returns (wall times, calibration samples, failures)."""
    times, samples, failures = [], [], []
    i = 0
    while True:
        if until_s is None:
            if i == len(ops):
                break
        elif i % wl.cycle_len == 0 and i >= MIN_OPS and sum(times) >= until_s:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        samples.append(calibration.sample())
        dt, failure = run_op(wl, op)
        times.append(dt)
        if failure is not None:
            failures.append("%s: %s" % (op.cls, failure))
        i += 1
    return times, samples, failures


def timed(wl, seconds):
    """Per-op least wall and scaled times over PASSES passes, the number
    of executions, and the failures."""
    wall, samples, failures = loop(wl, wl.ops, until_s=seconds / PASSES)
    ops = [wl.ops[i % len(wl.ops)] for i in range(len(wall))]
    walls, scaleds = [wall], [calibration.scale(wall, samples)]
    for _ in range(PASSES - 1):
        wall, samples, more = loop(wl, ops)
        walls.append(wall)
        scaleds.append(calibration.scale(wall, samples))
        failures += more
    return per_op(walls), per_op(scaleds), len(ops) * PASSES, failures


def per_op(runs):
    """Each operation's least time over the passes."""
    return [min(ts) for ts in zip(*runs)]


def main(argv):
    # a terminated worker unwinds, so its work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    speed = [calibration.sample()]
    rbmx = import_rbmx()
    Workload = load_workload(name)
    work_parent = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % name, dir=work_parent)
    try:
        wl = Workload(seed, workdir, rbmx)
        _, samples, warm_failures = loop(wl, wl.warmup)
        gc.collect()
        speed += samples + [calibration.sample()]
        # the mean kernel time during set-up lets the parent scale it
        print("READY %.9f" % (sum(speed) / len(speed)), flush=True)
        if mode == "setup":
            return 0
        result = {"warmup": len(wl.warmup), "warmup_failures": warm_failures}
        if mode == "timed":
            wall, times, executions, failures = timed(wl, float(argv[3]))
        else:
            traced, n_ops = argv[3] == "1", int(argv[4])
            ops = [wl.ops[i % len(wl.ops)] for i in range(n_ops)]
            tracer = None
            if traced:
                tracer = tracing.Tracer(keep_spans=len(argv) > 5)
                tracing.install(tracer, rbmx)
            wall, samples, failures = loop(wl, ops, tracer=tracer)
            times = calibration.scale(wall, samples)
            executions = len(times)
            if tracer is not None:
                tracer.uninstall()
                scale = calibration.REFERENCE_S * len(samples) / sum(samples)
                result["layers"] = tracing.layer_metrics(tracer, scale)
                if len(argv) > 5:
                    tracer.write_spans(argv[5])
        result.update(
            times=times,
            wall_times=wall,
            executions=executions,
            classes=[wl.ops[i % len(wl.ops)].cls for i in range(len(times))],
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_parent)
        except OSError:  # another worker's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
