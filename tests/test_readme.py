"""The README's "Library use" block is the package's API contract: it runs as
written, and the package root exports exactly the names it imports."""

import ast
import contextlib
import io
import pathlib

import polyslice

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_use_block_runs_and_imports_exactly_the_package_exports():
    source = library_use_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "True 9/5"
    imported = [alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "polyslice"
                for alias in node.names]
    assert sorted(imported) == sorted(n for n in polyslice.__all__ if n != "__version__")
