import ast
import pathlib

import rbmx

SRC = pathlib.Path(rbmx.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
