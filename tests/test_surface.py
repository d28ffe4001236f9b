"""The package's public surface is what code outside the tests calls.

A public function, class or method of ``src/subspace_money`` must be named
somewhere besides its own definition: in the package, the demos, the
benchmarks, README or CI.  A module-level name counts when it appears as a
word, a method when ``.name`` appears outside an attribute chain rooted at
``np`` or ``numpy``: ``np.full`` names no method of the package's.  The
package's re-exports in ``__init__.py`` are not a use.  A name that only
tests call belongs in the tests, as a helper in ``tests/reference.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "subspace_money"

# The paper's operations, kept whether or not shipped code calls them: the
# membership oracle, the one surface an attacker is granted; Ver's accepted
# branch, the note a wallet keeps after verifying; and Ver2, the double
# verifier that the soundness bound is stated against (the attacks score
# their registers with the verifier frame's kernels, block by block).
EXEMPT = {"OracleSession.member", "VerifyOutcome.post_state", "double_verify"}

# numpy's attribute chains, such as np.linalg.norm, left out of the caller texts.
NUMPY_CHAIN = re.compile(r"\b(?:np|numpy)(?:\.\w+)+")


def _caller_texts() -> dict[Path, str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "demos").rglob("*.py")
    files += (p for p in (ROOT / "benchmarks").rglob("*") if p.suffix in (".py", ".md"))
    files += [ROOT / "README.md"]
    files += (p for p in (ROOT / ".github").rglob("*") if p.is_file())
    return {p: NUMPY_CHAIN.sub("", p.read_text()) for p in sorted(files)}


def _public_definitions():
    """(module file, qualified name, use pattern, node) per public function, class and method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, node.name, rf"\b{node.name}\b", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", rf"\.{item.name}\b", item


def _without_definition(text: str, node: ast.AST) -> str:
    """The text with the definition's own lines, decorators included, left out."""
    lines = text.splitlines()
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(lines[: start - 1] + lines[node.end_lineno :])


def test_every_public_name_is_named_outside_the_tests():
    texts = _caller_texts()
    unused = [
        f"{path.name}: {name}"
        for path, name, pattern, node in _public_definitions()
        if name not in EXEMPT
        and not any(
            re.search(pattern, _without_definition(text, node) if where == path else text)
            for where, text in texts.items()
        )
    ]
    assert not unused, "public names that only tests call: " + ", ".join(unused)


# The verifier frame's arrays.  leaders, keep and error_cosets name nothing
# else in the package; rows is also a matrix attribute, so it counts when the
# object read is named as a frame.
FRAME_ONLY = {"leaders", "keep", "error_cosets"}
FRAME_ALSO = {"rows"}


def test_only_oracles_reads_the_verifier_frame_arrays():
    reads = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oracles.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and (
            node.attr in FRAME_ONLY
            or node.attr in FRAME_ALSO and "frame" in ast.unparse(node.value).lower()
        )
    ]
    assert not reads, "frame arrays read outside oracles.py: " + ", ".join(reads)
