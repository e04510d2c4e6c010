"""Every module-level function and class of the package is reached.

A name counts as reached when some other place names it, as an AST ``Name``
or ``Attribute``: another top-level statement of a source module (the
package ``__init__`` does not count, since it only re-exports), a script
under ``scripts/`` or a benchmark module under ``perfbench/``.  Tests do not
count: code that only a test calls feeds no reported number.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sethopf"

# names the tests use as oracles or constructors, with nothing else calling them
EXCEPTIONS = {
    "deshuffle": "oracle for the Q-basis rows of the split table (tests/test_hopf.py)",
    "fubini": "oracle for the number of compositions of an n-set (tests/test_compositions.py)",
    "h_elem": "shorthand constructor of H-basis elements throughout the tests",
}


def _named(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreached() -> set[str]:
    sources = sorted(SRC.glob("*.py"))
    readers = [p for p in sources if p.name != "__init__.py"]
    readers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    bodies = {p: ast.parse(p.read_text()).body for p in sources + readers}
    # every top-level statement of the readers, with the names it mentions
    named = [(node, _named(node)) for p in readers for node in bodies[p]]
    out = set()
    for p in sources:
        for node in bodies[p]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not any(
                node.name in names for other, names in named if other is not node
            ):
                out.add(node.name)
    return out


def test_every_definition_is_named_elsewhere():
    # an exception that gains a caller, or goes, leaves the list too
    assert _unreached() == set(EXCEPTIONS)
