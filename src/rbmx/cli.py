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
diagnostics go to stderr.  An error in a JSON document names its file, and
an error in a sample --obs record names the file and the line as well.
Exit codes: 0 success, 1 negative verdict (no simulation / not bisimilar),
2 usage or input error, 3 inconsistency.  RBMX_SEED supplies the default
seed for sample.
"""

import argparse
import itertools
import json
import os
import sys

from .automata import bisimilar, ma_compose, ma_from_json, ma_to_json, simulates
from .bayes import bn_to_json, kernel_to_json
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
    is_dynamic,
    parse,
    print_program,
    program_factor_graph,
    program_guards,
    run_program,
    statements,
)
from .rblang.syntax import MAX_NESTING

# brackets and quotes of a UTF-8 JSON text, with braces read as brackets
_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_A_MARK = bytes(c for c in range(256) if c not in b'[]{}"')
_DEPTH_STEP = [0] * 256
_DEPTH_STEP[ord("[")], _DEPTH_STEP[ord("]")] = 1, -1


def _emit(doc):
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_program(path):
    with open(path) as fh:
        return parse(fh.read())


def _loads(text, source):
    """The JSON document in text, read from source (named in errors).
    Arrays and objects nest at most MAX_NESTING levels deep: the decoder
    recurses once per level, so the depth is counted, outside strings,
    before it runs.  A deeper document, or text that is not JSON, raises
    MalformedSystem."""
    # drop escaped backslashes, then escaped quotes: every quote left opens
    # or closes a string, and only the marks between strings are kept
    data = text.encode("utf-8", "surrogatepass").replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(data.translate(_BRACKETS, _NOT_A_MARK).split(b'"')[::2])
    depth = max(itertools.accumulate(map(_DEPTH_STEP.__getitem__, brackets)), default=0)
    if depth > MAX_NESTING:
        raise MalformedSystem(
            "%s: JSON nested deeper than %d levels" % (source, MAX_NESTING)
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedSystem("%s: %s" % (source, exc)) from None


def _read_document(path, read, text=None):
    """read(doc) for the JSON document doc at path (text is the file's, if
    read already).  Every model document is read here: each RbmxError the
    reader raises keeps its type, so its exit code, and names the file."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    doc = _loads(text, path)
    try:
        return read(doc)
    except RbmxError as exc:
        exc.args = ("%s: %s" % (path, exc),)
        raise


def _model(doc):
    """(kind, object) for a model document by its shape: system/ma/spa/pa/fg."""
    if not isinstance(doc, dict):
        raise MalformedSystem("model document must be a JSON object")
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
    raise MalformedSystem("unrecognized model document")


def _load_fg(path):
    """Factor graph from either a program source or a factor-graph/JSON
    document."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _read_document(path, fg_from_json, text)
    return program_factor_graph(parse(text))


def _parse_scalar(text):
    """Query values: T/F, integers written as the tokenizer's integer
    literal (an optional "-", then ASCII digits), else the bare string
    (quotes stripped)."""
    if text == "T":
        return True
    if text == "F":
        return False
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() reads
            pass
    if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
        return text[1:-1]
    return text


def _parse_query(text):
    """'x=1,y=b' -> conjunction of equalities over a state.  A value matches
    only one of its own type, as in core.domain_index: x=1 does not hold
    at x = T."""
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
        return all(n in d and type(d[n]) is type(v) and d[n] == v for n, v in clauses)

    return pred, [n for n, _ in clauses]


# --- subcommands -------------------------------------------------------------


def cmd_parse(args):
    p = _read_program(args.file)
    _emit(
        {
            "domains": {name: list(d.values) for name, d in p.domains.items()},
            "vars": dict(p.vars),
            "funcs": sorted(p.funcs),
            "dists": sorted(p.dists),
            "guards": [label for label, _ in program_guards(p)],
            "statements": len(statements(p.body)),
            "mode_hint": "dynamic" if is_dynamic(p) else "static",
            "printed": print_program(p),
        }
    )
    return 0


def cmd_elaborate(args):
    p = _read_program(args.file)
    if args.mode == "static":
        obs = _loads(args.obs, "--obs") if args.obs else None
        res = elaborate_static(p, obs=obs)
        if isinstance(res, MixedSystem):
            _emit(system_to_json(res))
        else:
            _emit(dict(kernel_to_json(res), kind="kernel"))
    elif args.mode == "graph":
        _emit(bn_to_json(elaborate_graph(p)))
    else:
        M = elaborate_dynamic(p)
        _emit(ma_to_json(M.materialize(cap=args.cap)))
    return 0


def cmd_sample(args):
    p = _read_program(args.file)
    obs = None
    if args.obs:
        obs = []
        with open(args.obs) as fh:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    where = "%s line %d" % (args.obs, n)
                    record = _loads(line, where)
                    if not isinstance(record, dict):
                        raise MalformedSystem("%s: observation record %r is not an object"
                                              % (where, record))
                    obs.append(record)
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
    pred, names = _parse_query(args.query)
    if args.mode == "polarized":
        prob, pr = _read_document(args.file, polarized_from_json)
        known = {n for row in pr.rel.values() for q in row for n in q.names}
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError("query mentions unknown variables %s" % missing)
        value = polarized_score(prob, pr, pred)
    else:
        S = _read_document(args.file, system_from_json)
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
    kind_a, A = _read_document(args.a, _model)
    kind_b, B = _read_document(args.b, _model)
    if kind_a != kind_b:
        raise MalformedSystem("cannot compose a %s with a %s" % (kind_a, kind_b))
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
    def plain(q):
        return q.as_dict() if hasattr(q, "as_dict") else q
    return sorted(([plain(a), plain(b)] for a, b in R), key=repr)


def cmd_simcheck(args):
    kind_a, A = _read_document(args.a, _model)
    kind_b, B = _read_document(args.b, _model)
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
    kind, M = _read_document(args.file, _model)
    want = {"spa2ma": "spa", "pa2ma": "pa", "ma2spa": "ma", "spa2pa": "spa"}
    if kind != want[args.direction]:
        raise MalformedSystem("embed %s wants a %s document, got %s"
                              % (args.direction, want[args.direction], kind))
    if args.direction == "spa2ma":
        _emit(ma_to_json(spa_to_ma(M)))
    elif args.direction == "pa2ma":
        _emit(ma_to_json(pa_to_ma(M)))
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
                   help="ma2spa only: bound on the selections per transition, "
                        "whose number is exponential in the outcomes")
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
    except (RbmxError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
