import ast
import pathlib
import sys

import rbmx

SRC = pathlib.Path(rbmx.__file__).parent
BROAD = {"Exception", "BaseException"}
LIMITS = {"RecursionError", "MemoryError"}


def _find(match):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                  for node in ast.walk(tree) if match(node)]
    return found


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    assert _find(lambda node: isinstance(node, ast.Assert)) == []


def _catches(names):
    """A matcher for handlers that catch one of names, or everything."""

    def match(node):
        if not isinstance(node, ast.ExceptHandler):
            return False
        if node.type is None:
            return True
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(isinstance(t, ast.Name) and t.id in names for t in caught)

    return match


def test_no_broad_except():
    # a handler that catches everything hides programming errors as results
    assert _find(_catches(BROAD)) == []


def test_no_recursion_or_memory_handler():
    # limits are checked before recursing or allocating, not caught after
    assert _find(_catches(LIMITS)) == []


def _imports_inside_functions(node):
    """A matcher hit for every function whose body holds an import."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))


def test_no_function_local_imports():
    # imports sit at the top of a module, where a reader finds them
    assert _find(_imports_inside_functions) == []


def _third_party_import(node):
    """A matcher hit for every absolute import of a module that is neither
    in the standard library nor rbmx itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    allowed = sys.stdlib_module_names | {"rbmx"}
    return any(name.split(".")[0] not in allowed for name in names)


def test_standard_library_only():
    # pyproject.toml declares no dependencies, so none may be imported
    assert _find(_third_party_import) == []


def _decodes_json(node):
    """A call of json.load or json.loads, or an import from json that could
    reach them under another name."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "json"
    if isinstance(node, ast.Import):
        return any(alias.name == "json" and alias.asname for alias in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
            and node.func.attr in ("load", "loads"))


def _owners(match):
    """The "file:function" of every node that match accepts, by the
    innermost function holding it ("<module>" outside any, "Class.method"
    for a method)."""
    found = []

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if isinstance(node, ast.ClassDef):
                    name = "%s.%s" % (node.name, name)
                visit(child, path, name)
            else:
                if match(child):
                    found.append("%s:%s" % (path.relative_to(SRC), owner))
                visit(child, path, owner)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "<module>")
    return found


def test_one_json_decoder():
    # the decoder recurses once per nesting level, so every document goes
    # through cli._loads, which bounds the depth first
    assert _owners(_decodes_json) == ["cli.py:_loads"]


def _weight_format(node):
    return isinstance(node, ast.Constant) and node.value == "%d/%d"


def test_one_weight_format():
    # "%d/%d" raises a raw ValueError on an integer past CPython's limit on
    # integer text; core.format_rat raises CapExceeded instead, so every
    # exact weight is written through it
    assert _owners(_weight_format) == ["core.py:format_rat"]


def _raises_outside_domain(node):
    """A raise of VariableSetMismatch whose message says "outside domain"."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "VariableSetMismatch"
            and any(isinstance(n, ast.Constant) and "outside domain" in str(n.value)
                    for n in ast.walk(node.exc)))


def test_one_state_check():
    # automata and kernels check a state's values by one rule, which reads
    # each value's type, so 1 is never taken for True anywhere
    assert _owners(_raises_outside_domain) == ["core.py:check_state"]


def _calls_lcm(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "lcm"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "lcm")


def test_one_integer_measure():
    # a measure is brought to integers over one scale by core.Masses, which
    # transport and sampling share; exact_weights totals a distribution as
    # it reads it, and coupling brings two scales to one
    assert _owners(_calls_lcm) == ["core.py:exact_weights", "core.py:Masses.__init__",
                                   "transport.py:coupling"]


def _builds_sorter(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "TopologicalSorter"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "TopologicalSorter")


def test_one_topological_order():
    # validation, sampling and the network reader share the one dependency
    # order a network builds, once, on first use
    assert _owners(_builds_sorter) == ["bayes.py:BayesianNetwork.order"]


# the readers of JSON documents, each under the one guard
READERS = {"system_from_json", "polarized_from_json", "ma_from_json", "spa_from_json",
           "pa_from_json", "bn_from_json", "fg_from_json"}


def test_one_document_guard():
    # a reader turns a bad field into MalformedSystem only through
    # core.document_reader, which wraps its reading and its building
    assert _owners(_catches({"DOCUMENT_ERRORS"})) == ["core.py:guarded"]


def _guarded(node):
    """Whether the function node is decorated with document_reader(...)."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "document_reader" for d in node.decorator_list)


def test_every_reader_is_guarded():
    public = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.FunctionDef) and node.name.endswith("_from_json")
                    and not node.name.startswith("_")):
                public[node.name] = _guarded(node)
    assert {name for name, guarded in public.items() if guarded} == READERS
    # the other public readers read a part of a document, inside a reader
    for name in set(public) - READERS:
        callers = _owners(lambda node: isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name) and node.func.id == name)
        assert callers and {c.split(":")[1] for c in callers} <= READERS, (name, callers)


UNCHECKED = {"_system", "_prob"}  # core's builders of results valid by construction


def _calls_unchecked(node):
    """A call of one of core's unchecked builders, by name or attribute."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id in UNCHECKED
            or isinstance(f, ast.Attribute) and f.attr in UNCHECKED)


def test_unchecked_builders_stay_inside_the_package():
    # they trust their parts, so only rbmx's own operations on checked
    # systems call them; a caller outside goes through MixedSystem
    assert not UNCHECKED & set(rbmx.__all__)
    repo = pathlib.Path(__file__).resolve().parents[1]
    package = repo / "src" / "rbmx"
    outside = []
    for path in sorted(repo.rglob("*.py")):
        if package not in path.parents:
            tree = ast.parse(path.read_text(), filename=str(path))
            outside += ["%s:%d" % (path.relative_to(repo), node.lineno)
                        for node in ast.walk(tree) if _calls_unchecked(node)]
    assert outside == []
    assert {c.split(":")[0] for c in _owners(_calls_unchecked)} == {"core.py",
                                                                  "rblang/elaborate.py"}
