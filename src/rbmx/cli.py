"""Command line front end.

    rbmx parse FILE
    rbmx elaborate FILE [--mode static|graph|dynamic] [--obs JSON] [--cap N]
    rbmx sample FILE --steps N [--seed S] [--obs FILE] [--resolver lex|uniform]
    rbmx eval FILE --query PRED --mode outer|inner|likelihood|polarized
    rbmx fg FILE [--dot]
    rbmx fg2bn FILE [--root NODE]
    rbmx compose A B [--sigma R]
    rbmx simcheck A B [--bisim]
    rbmx embed {spa2ma,pa2ma,ma2spa,spa2pa} FILE [--cap N]

FILE is a ReactiveBayes source for parse/elaborate/sample/fg/fg2bn and a
JSON model document everywhere else (fg/fg2bn also accept a factor-graph
document).  Model documents are recognized by shape: "kind": "spa"/"pa",
"delta" for automata, "omega" for systems, "systems" for factor graphs.

simcheck asks whether B simulates A.  With --bisim it asks for the greatest
R such that both R and its inverse are simulations, for all three kinds
(ma, spa, pa); that is stronger than simulation both ways.

Results go to stdout as JSON with sorted keys (or DOT with --dot);
diagnostics go to stderr.  Exit codes: 0 success, 1 negative verdict (no
simulation / not bisimilar), 2 usage or input error, 3 inconsistency.
RBMX_SEED supplies the default seed for sample.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .automata import bisimilar, ma_compose, ma_from_json, ma_to_json, simulates
from .bayes import MixedKernel, bn_to_json
from .core import (
    MixedSystem,
    compose,
    format_rat,
    inner,
    likelihood,
    outer,
    polarized_from_json,
    polarized_score,
    rat,
    system_from_json,
    system_to_json,
)
from .embeddings import (
    pa_bisimilar,
    pa_compose,
    pa_from_json,
    pa_simulates,
    pa_to_json,
    pa_to_ma,
    spa_bisimilar,
    spa_compose,
    spa_embed_pa,
    spa_from_json,
    spa_simulates,
    spa_to_json,
    spa_to_ma,
    ma_to_spa,
)
from .errors import InconsistentSystem, MalformedSystem, RbmxError
from .factorgraph import dot_export, fg_from_json, fg_to_bn, fg_to_json
from .rblang import (
    elaborate_dynamic,
    elaborate_graph,
    elaborate_static,
    parse,
    pre_vars,
    print_program,
    program_factor_graph,
    program_guards,
    run_program,
    statements,
)
from .rblang.syntax import SInit, SOn


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_program(path):
    with open(path) as fh:
        return parse(fh.read())


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_model(path):
    """(kind, object) for a JSON model document; kind in
    system/ma/spa/pa/fg."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise MalformedSystem("%s: model document must be a JSON object" % path)
    kind = doc.get("kind")
    if kind == "spa":
        return "spa", spa_from_json(doc)
    if kind == "pa":
        return "pa", pa_from_json(doc)
    if "delta" in doc:
        return "ma", ma_from_json(doc)
    if "omega" in doc:
        return "system", system_from_json(doc)
    if "systems" in doc:
        return "fg", fg_from_json(doc)
    raise MalformedSystem("%s: unrecognized model document" % path)


def _load_fg(path):
    """Factor graph from either a program source or a factor-graph/JSON
    document."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return fg_from_json(json.loads(text))
    return program_factor_graph(parse(text))


def _parse_scalar(text):
    """Query values: T/F, integers, else the bare string (quotes stripped)."""
    if text == "T":
        return True
    if text == "F":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    return text


def _parse_query(text):
    """'x=1,y=b' -> conjunction of equalities over a state."""
    clauses = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, val = part.partition("=")
        if not eq or not name.strip():
            raise ValueError("bad query clause %r (want var=value)" % part)
        clauses.append((name.strip(), _parse_scalar(val.strip())))
    if not clauses:
        raise ValueError("empty query")

    def pred(q):
        d = q.as_dict()
        return all(n in d and d[n] == v for n, v in clauses)

    return pred, [n for n, _ in clauses]


def _kernel_to_json(K: MixedKernel) -> dict:
    return {
        "kind": "kernel",
        "name": K.name,
        "in": list(K.in_names),
        "out": list(K.out_names),
        "table": [[q.as_dict(), system_to_json(K.apply(q))] for q in K.inputs()],
    }


# --- subcommands -------------------------------------------------------------


def cmd_parse(args):
    p = _read_program(args.file)
    dynamic = bool(pre_vars(p.body)) or any(
        isinstance(s, (SInit, SOn)) for s in statements(p.body)
    )
    _emit(
        {
            "domains": {name: list(vals) for name, vals in p.domains.items()},
            "vars": dict(p.vars),
            "funcs": sorted(p.funcs),
            "dists": sorted(p.dists),
            "guards": [label for label, _ in program_guards(p)],
            "statements": len(statements(p.body)),
            "mode_hint": "dynamic" if dynamic else "static",
            "printed": print_program(p),
        }
    )
    return 0


def cmd_elaborate(args):
    p = _read_program(args.file)
    if args.mode == "static":
        obs = json.loads(args.obs) if args.obs else None
        res = elaborate_static(p, obs=obs)
        if isinstance(res, MixedSystem):
            _emit(system_to_json(res))
        else:
            _emit(_kernel_to_json(res))
    elif args.mode == "graph":
        _emit(bn_to_json(elaborate_graph(p)))
    else:
        M = elaborate_dynamic(p)
        M.materialize(cap=args.cap)
        for a in M.alphabet:  # partial initials are not in states()
            M.transition(M.initial, a)
        _emit(ma_to_json(M))
    return 0


def cmd_sample(args):
    p = _read_program(args.file)
    obs = None
    if args.obs:
        obs = []
        with open(args.obs) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    obs.append(json.loads(line))
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("RBMX_SEED", "0"))
    run = run_program(p, obs=obs, steps=args.steps, seed=seed, resolver=args.resolver)
    _emit(
        {
            "trace": list(run.trace),
            "actions": list(run.actions),
            "norms": [format_rat(z) for z in run.norms],
            "flags": list(run.flags),
        }
    )
    return 0


def cmd_eval(args):
    doc = _read_json(args.file)
    pred, names = _parse_query(args.query)
    if args.mode == "polarized":
        prob, pr = polarized_from_json(doc)
        known = {n for row in pr.rel.values() for q in row for n in q.names}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError("query mentions unknown variables %s" % missing)
        value = polarized_score(prob, pr, pred)
    else:
        S = system_from_json(doc)
        missing = [n for n in names if n not in S.var_names]
        if missing:
            raise ValueError("query mentions unknown variables %s" % missing)
        fn = {"outer": outer, "inner": inner, "likelihood": likelihood}[args.mode]
        value = fn(S, pred)
    _emit({"mode": args.mode, "query": args.query, "value": format_rat(value)})
    return 0


def cmd_fg(args):
    g = _load_fg(args.file)
    if args.dot:
        sys.stdout.write(dot_export(g))
    else:
        _emit(fg_to_json(g))
    return 0


def cmd_fg2bn(args):
    g = _load_fg(args.file)
    root = args.root if args.root else g.labels[0]
    _emit(bn_to_json(fg_to_bn(g, root=root)))
    return 0


def cmd_compose(args):
    kind_a, A = _load_model(args.a)
    kind_b, B = _load_model(args.b)
    if kind_a != kind_b:
        raise MalformedSystem(
            "cannot compose a %s with a %s" % (kind_a, kind_b)
        )
    if kind_a == "system":
        _emit(system_to_json(compose(A, B)))
    elif kind_a == "ma":
        _emit(ma_to_json(ma_compose(A, B)))
    elif kind_a == "spa":
        _emit(spa_to_json(spa_compose(A, B)))
    elif kind_a == "pa":
        _emit(pa_to_json(pa_compose(A, B, rat(args.sigma))))
    else:
        raise MalformedSystem("cannot compose factor graphs; merge their systems")
    return 0


def _pairs_json(R):
    out = []
    for a, b in R:
        out.append([a.as_dict() if hasattr(a, "as_dict") else a,
                    b.as_dict() if hasattr(b, "as_dict") else b])
    out.sort(key=repr)
    return out


def cmd_simcheck(args):
    kind_a, A = _load_model(args.a)
    kind_b, B = _load_model(args.b)
    if kind_a != kind_b:
        raise MalformedSystem("cannot compare a %s with a %s" % (kind_a, kind_b))
    # (simulation, bisimulation) per kind, looked up at call time so that
    # rebinding a module name (as the benchmark's tracer does) takes effect
    checks = {
        "ma": (simulates, bisimilar),
        "spa": (spa_simulates, spa_bisimilar),
        "pa": (pa_simulates, pa_bisimilar),
    }
    if kind_a not in checks:
        raise MalformedSystem("simcheck wants two automata, got %s" % kind_a)
    sim, bisim = checks[kind_a]
    R = (bisim if args.bisim else sim)(A, B)
    verdict = R is not None
    _emit(
        {
            "kind": kind_a,
            "check": "bisimulation" if args.bisim else "simulation",
            "verdict": verdict,
            "pairs": _pairs_json(R) if verdict else [],
        }
    )
    return 0 if verdict else 1


def cmd_embed(args):
    kind, M = _load_model(args.file)
    want = {"spa2ma": "spa", "pa2ma": "pa", "ma2spa": "ma", "spa2pa": "spa"}
    if kind != want[args.direction]:
        raise MalformedSystem(
            "embed %s wants a %s document, got %s"
            % (args.direction, want[args.direction], kind)
        )
    if args.direction == "spa2ma":
        _emit(ma_to_json(spa_to_ma(M, cap=args.cap)))
    elif args.direction == "pa2ma":
        _emit(ma_to_json(pa_to_ma(M, cap=args.cap)))
    elif args.direction == "ma2spa":
        _emit(spa_to_json(ma_to_spa(M, cap=args.cap)))
    else:
        _emit(pa_to_json(spa_embed_pa(M)))
    return 0


# --- dispatch ----------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="rbmx",
        description="Exact mixed probabilistic/nondeterministic systems: "
        "parse, elaborate, sample, score, transform, compare, embed.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("parse", help="parse a program and echo its shape")
    q.add_argument("file")
    q.set_defaults(func=cmd_parse)

    q = sub.add_parser("elaborate", help="program -> system / network / automaton")
    q.add_argument("file")
    q.add_argument("--mode", choices=("static", "graph", "dynamic"), default="static")
    q.add_argument("--obs", help="JSON observation record (static mode)")
    q.add_argument("--cap", type=int, default=4096,
                   help="transition-table bound (dynamic mode)")
    q.set_defaults(func=cmd_elaborate)

    q = sub.add_parser("sample", help="seeded execution of a dynamic program")
    q.add_argument("file")
    q.add_argument("--steps", type=int, required=True,
                   help="number of instants (the trace length)")
    q.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $RBMX_SEED or 0)")
    q.add_argument("--obs", help="observation trace file, one JSON record per line")
    q.add_argument("--resolver", choices=("lex", "uniform"), default="lex",
                   help="how rows resolve nondeterminism")
    q.set_defaults(func=cmd_sample)

    q = sub.add_parser("eval", help="score a state property on a system document")
    q.add_argument("file")
    q.add_argument("--query", required=True, help="conjunction var=value,var=value")
    q.add_argument("--mode", choices=("outer", "inner", "likelihood", "polarized"),
                   default="outer")
    q.set_defaults(func=cmd_eval)

    q = sub.add_parser("fg", help="factor graph of a program or document")
    q.add_argument("file")
    q.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    q.set_defaults(func=cmd_fg)

    q = sub.add_parser("fg2bn", help="tree factor graph -> Bayesian network")
    q.add_argument("file")
    q.add_argument("--root", help="root label (default: first)")
    q.set_defaults(func=cmd_fg2bn)

    q = sub.add_parser("compose", help="parallel composition of two documents")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--sigma", default="1/2",
                   help="scheduler bias for pa composition")
    q.set_defaults(func=cmd_compose)

    q = sub.add_parser("simcheck", help="does B simulate A?")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--bisim", action="store_true",
                   help="check bisimulation instead: the greatest R with R "
                   "and its inverse both simulations (all kinds)")
    q.set_defaults(func=cmd_simcheck)

    q = sub.add_parser("embed", help="translate between automaton classes")
    q.add_argument("direction", choices=("spa2ma", "pa2ma", "ma2spa", "spa2pa"))
    q.add_argument("file")
    q.add_argument("--cap", type=int, default=4096,
                   help="bound on constructed states/selections")
    q.set_defaults(func=cmd_embed)

    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentSystem as exc:
        sys.stderr.write("inconsistent: %s\n" % exc)
        return 3
    except RbmxError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
