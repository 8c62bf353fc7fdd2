"""Digest what the front end makes of a corpus of program texts, per checkout.

    python3 tools/programs.py CHECKOUT [CHECKOUT2] [--mutations N] [--seed S]

The corpus comes from the first checkout's `tests/*.py`: every string
literal that holds `||` or a `domain` declaration, and every such sum of
literals and module-level string constants (HEAD + "|| x = 1"), in file
order, and N
single-token mutations of each (a token deleted, repeated, or replaced by
another token of the text or of the language), drawn with seed S.

For each checkout, a fresh Python process started in that checkout reads
the corpus and, for each text, records the parse verdict: the error's type
and message, or `print_program` of the parsed program.  For a parsed
program it also records `elaborate_static`'s system or kernel document
(a static program) or `ma_to_json` of `elaborate_dynamic(p).materialize(
cap=256)` (a dynamic one), or the error either raises.  The process writes
no bytecode and hash randomization is fixed, so both trees are only read
and a set prints in the same order every time.

It prints one JSON line per checkout: the checkout, the number of
programs, and the sha256 of every record in order.  With two checkouts it
exits 1 when the digests or the counts differ, and 0 when they agree.  It
imports nothing from either checkout itself.
"""

import argparse
import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys

RUN_TIMEOUT_S = 1800

# run in the checkout's root with the corpus, a JSON list of texts, on
# stdin; prints {"programs": n, "sha256": hex}
CHILD = r"""
import hashlib, json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
from rbmx.automata import ma_to_json
from rbmx.bayes import MixedKernel, kernel_to_json
from rbmx.core import system_to_json
from rbmx.rblang.elaborate import elaborate_dynamic, elaborate_static
from rbmx.rblang.syntax import is_dynamic, parse, print_program

def failed(exc):
    return "raised %s: %s" % (type(exc).__name__, exc)

def record(text):
    try:
        p = parse(text)
    except Exception as exc:  # a refused text is part of the output
        return failed(exc)
    try:
        if is_dynamic(p):
            doc = ma_to_json(elaborate_dynamic(p).materialize(cap=256))
        else:
            S = elaborate_static(p)
            doc = kernel_to_json(S) if isinstance(S, MixedKernel) else system_to_json(S)
        got = json.dumps(doc, sort_keys=True)
    except Exception as exc:
        got = failed(exc)
    return print_program(p) + "\n" + got

digest = hashlib.sha256()
texts = json.load(sys.stdin)
for text in texts:
    got = record(text)
    digest.update(("%d\n%s\n" % (len(got), got)).encode())
print(json.dumps({"programs": len(texts), "sha256": digest.hexdigest()}))
"""

DECLARES_DOMAIN = re.compile(r"\bdomain\s+\w+\s*=")
TOKEN = re.compile(r'"[^"\n]*"|-?\d+(?:[./]\d+)?(?:[eE][+-]?\d+)?|\w+|\|\||->|\S')
LANGUAGE = ("||", "|", "->", "=", "~", ":", ",", "(", ")", "{", "}", "/", "domain", "var",
            "func", "op", "dist", "observe", "pre", "init", "on", "then", "else", "if", "T",
            "F", "0", "1", "-1", "1/2", "0.5", '"a"', "Uniform", "Bernoulli")


def literals(checkout):
    """The program-like strings of checkout's tests/*.py, first occurrences
    in file order: each string literal, and each sum of string literals and
    module-level names bound to one, such as BIT_BOOL + "|| b = 1"."""
    found = {}
    for path in sorted(pathlib.Path(checkout, "tests").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {t.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str)
                 for t in node.targets if isinstance(t, ast.Name)}

        def text(node):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                return node.value
            if isinstance(node, ast.Name):
                return names.get(node.id)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                a, b = text(node.left), text(node.right)
                return None if a is None or b is None else a + b
            return None

        for node in ast.walk(tree):
            t = text(node) if isinstance(node, (ast.Constant, ast.BinOp)) else None
            if t is not None and ("||" in t or DECLARES_DOMAIN.search(t)):
                found.setdefault(t)
    return list(found)


def mutate(text, rng):
    """text with one token deleted, repeated, or replaced by another."""
    spans = [m.span() for m in TOKEN.finditer(text)]
    start, end = rng.choice(spans)
    kind = rng.randrange(4)
    if kind == 0:
        new = ""
    elif kind == 1:
        new = text[start:end] + " " + text[start:end]
    elif kind == 2:
        a, b = rng.choice(spans)
        new = text[a:b]
    else:
        new = rng.choice(LANGUAGE)
    return text[:start] + new + text[end:]


def corpus(checkout, mutations, seed):
    """The literals of checkout's tests, each followed by its mutations;
    each text once."""
    rng = random.Random(seed)
    texts = {}
    for text in literals(checkout):
        texts.setdefault(text)
        for _ in range(mutations):
            texts.setdefault(mutate(text, rng))
    return list(texts)


def digest(checkout, texts):
    """{"checkout", "programs", "sha256"} of one checkout's records."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(texts),
                       cwd=checkout, env=env, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit("the front end in %s exited with %d:\n%s"
                         % (checkout, r.returncode, r.stderr))
    got = json.loads(r.stdout.strip().splitlines()[-1])
    return dict(checkout=checkout, **got)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    ap.add_argument("--mutations", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")
    checkouts = [os.path.abspath(c) for c in args.checkouts]
    texts = corpus(checkouts[0], args.mutations, args.seed)
    results = []
    for checkout in checkouts:
        results.append(digest(checkout, texts))
        print(json.dumps(results[-1]), flush=True)
    first = results[0]
    same = all((r["programs"], r["sha256"]) == (first["programs"], first["sha256"])
               for r in results)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
