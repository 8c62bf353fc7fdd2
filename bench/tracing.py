"""Per-layer tracing, installed from the benchmark's own files.

The tracer wraps public functions of each `rbmx` layer.  Callers bind most
of them with ``from ... import``, so a wrapper is written into every
``rbmx`` module that holds the original function object, including the
defining module itself (``compose`` recurses through its own global).

Each wrapper records a span (name, start, end, parent span, operation) and
per-target counts.  Self time is a span's duration minus the time covered
by its child spans.  Spans are kept in memory and can be written out after
the traced pass.
"""

import gc
import gzip
import json
import sys
import time

perf_counter = time.perf_counter


class Stat:
    __slots__ = ("calls", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.self = 0.0
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    def __init__(self, keep_spans):
        self.keep_spans = keep_spans
        self.stats = {}
        self.names = []
        self.spans = []
        self.stack = []
        self.op = -1
        self.gc_ms = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._undo = []

    # --- wrapping --------------------------------------------------------

    def register(self, name):
        """The Stat of a span name, created on first use."""
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        return self.stats[name]

    def wrap(self, name, fn, before=None, after=None):
        """A function that calls fn inside a span named name.  before(args)
        runs first and its value goes to after(stat, result, args, ctx)."""
        stat = self.register(name)
        idx = self.names.index(name)
        stack = self.stack
        spans = self.spans
        keep = self.keep_spans

        def traced(*args, **kwargs):
            ctx = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            if keep:
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if keep:
                    spans[frame[0]] = (idx, t0, t1,
                                       parent[0] if parent is not None else -1,
                                       self.op)
            if after is not None:
                after(stat, result, args, ctx)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr, name, before=None, after=None):
        """Replace every binding of module.attr across the loaded rbmx
        modules.  Raises when the function is missing, so a rename fails
        loudly instead of zeroing a metric."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, before, after)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rbmx" or mod_name.startswith("rbmx.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, orig))
                    bound += 1
        if getattr(module, attr) is not traced:
            raise RuntimeError("could not patch %s.%s" % (module.__name__, attr))
        return bound

    def patch_method(self, cls, attr, name, before=None, after=None):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, before, after))
        self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # --- garbage collector ---------------------------------------------------

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_ms += (perf_counter() - self._gc_start) * 1000.0
            self.gc_collections += 1
            self._gc_start = None

    def watch_gc(self):
        gc.callbacks.append(self._gc_callback)

    # --- output ------------------------------------------------------------------

    def write_spans(self, path):
        """One JSON header line with the span names, then one line per span:
        [name index, start s, end s, parent span or -1, operation]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write("[%d,%.9f,%.9f,%d,%d]\n" % s)


def install(tracer, rbmx):
    """Wrap every traced entry point of the rbmx layers.  ``rbmx`` is a
    namespace holding the imported layer modules."""
    core, automata, embeddings, transport = (
        rbmx.core, rbmx.automata, rbmx.embeddings, rbmx.transport)
    syntax, elaborate, run = rbmx.syntax, rbmx.elaborate, rbmx.run
    State = core.State

    def compose_after(stat, result, args, ctx):
        # the variadic form folds through binary calls, which are traced
        # themselves; only binary calls build a product
        if len(args) == 2:
            stat.add("outcomes_out", len(result.omega))

    def feasible_after(stat, result, args, ctx):
        stat.add("feasible", result is not None)

    def transport_before(args):
        return len(args[2])  # a caller passing an unsized iterable fails here

    def transport_after(stat, result, args, ctx):
        stat.add("feasible", result is not None)
        stat.add("allowed_pairs", ctx)

    def system_after(stat, result, args, ctx):
        stat.add("outcomes", len(args[0].prob.omega))

    def transition_before(args):
        M, q, a = args[0], args[1], args[2]
        if not isinstance(q, State):
            q = State(q)
        return (q, a) in M.delta

    def transition_after(stat, result, args, ctx):
        stat.add("hits", bool(ctx))

    def steps_after(stat, result, args, ctx):
        stat.add("steps", len(result.norms))

    def dynamic_after(stat, result, args, ctx):
        # the provider lives on the automaton that elaborate_dynamic returns
        result.provider = tracer.wrap("rblang.elaborate.provider", result.provider)

    tracer.patch_function(rbmx.cli, "main", "cli.main")
    tracer.patch_function(syntax, "parse", "rblang.syntax.parse")
    tracer.patch_function(elaborate, "elaborate_static", "rblang.elaborate.elaborate_static")
    tracer.patch_function(elaborate, "elaborate_graph", "rblang.elaborate.elaborate_graph")
    tracer.patch_function(elaborate, "elaborate_dynamic", "rblang.elaborate.elaborate_dynamic",
                          after=dynamic_after)
    tracer.register("rblang.elaborate.provider")  # reported even if never called
    tracer.patch_function(run, "run_program", "rblang.run.run_program", after=steps_after)
    tracer.patch_method(automata.MixedAutomaton, "transition", "automata.transition",
                        before=transition_before, after=transition_after)
    tracer.patch_method(core.MixedSystem, "__init__", "core.MixedSystem", after=system_after)
    tracer.patch_function(core, "compose", "core.compose", after=compose_after)
    for fn in ("sample", "outer", "inner", "likelihood", "marginal", "compress",
               "system_from_json"):
        tracer.patch_function(core, fn, "core." + fn)
    tracer.patch_function(automata, "ma_from_json", "automata.ma_from_json")
    tracer.patch_function(automata, "simulates", "automata.simulates")
    tracer.patch_function(automata, "bisimilar", "automata.bisimilar")
    tracer.patch_function(automata, "lift_check", "automata.lift_check", after=feasible_after)
    tracer.patch_function(embeddings, "spa_from_json", "embeddings.spa_from_json")
    tracer.patch_function(embeddings, "spa_simulates", "embeddings.spa_simulates")
    tracer.patch_function(transport, "feasible_transport", "transport.feasible_transport",
                          before=transport_before, after=transport_after)
    tracer.patch_function(rbmx.bayes, "bn_score", "bayes.bn_score")
    tracer.patch_function(rbmx.factorgraph, "fg_to_bn", "factorgraph.fg_to_bn")
    tracer.watch_gc()


def layer_metrics(tracer, scale):
    """Flat {metric name: value} over everything the tracer saw; times are
    multiplied by scale, the pass's machine-speed factor."""
    out = {}
    for name, st in tracer.stats.items():
        out[name + ".calls"] = st.calls
        out[name + ".self_ms"] = st.self * 1000.0 * scale
        for key, n in st.counts.items():
            out[name + "." + key] = n
    st = tracer.stats
    out["core.MixedSystem.built"] = st["core.MixedSystem"].calls
    out["automata.transition.hit_ratio"] = _ratio(
        st["automata.transition"].counts.get("hits", 0), st["automata.transition"].calls)
    for name in ("automata.lift_check", "transport.feasible_transport"):
        out[name + ".feasible_ratio"] = _ratio(st[name].counts.get("feasible", 0),
                                               st[name].calls)
    out["rblang.run.steps"] = st["rblang.run.run_program"].counts.get("steps", 0)
    out.setdefault("core.MixedSystem.outcomes", 0)
    out.setdefault("core.compose.outcomes_out", 0)
    out.setdefault("transport.feasible_transport.allowed_pairs", 0)
    out["runtime.gc_ms"] = tracer.gc_ms * scale
    out["runtime.gc_collections"] = tracer.gc_collections
    return out


def _ratio(num, den):
    # a ratio over zero attempts is reported as 0; the matching .calls
    # metric shows the base
    return num / den if den else 0.0
