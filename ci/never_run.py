"""Gate: every statement of src/mglab runs in the tier-1 test process, or is allowed.

Runs the tier-1 suite in this process under a line tracer that follows only
frames whose code lives in src/mglab, then lists each statement that never
ran.  Child processes (``mgl`` runs started by tests) are not traced, so what
only they run counts as never run.  A statement may stay unrun only if
``ALLOWED`` names it, keyed by module, enclosing function and its source text
(whitespace collapsed), not by line number, and gives the reason.

Exit status 1 when pytest fails, when a statement outside ``ALLOWED`` never
ran, or when an ``ALLOWED`` entry matches no unrun statement (it now runs or is
gone, so the entry goes too); else 0.  The table goes to stdout and, given a
path argument, is appended to that file (a CI step summary).

    PYTHONPATH=src python ci/never_run.py [summary.md]
"""
import ast
import os
import pathlib
import sys
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (module, enclosing function, statement text): why no tier-1 input runs it in process.
ALLOWED = {
    ("cli.py", "<module>", "entry_point()"):
        "runs only as `python -m mglab.cli`, in a child process",
    ("jsonio.py", "_parse_values", "raise"):
        "safety re-raise: every value RandomVariable refuses, _parse_value refuses first",
}


def statements(tree: ast.AST, scope: str = "<module>"):
    """(node, scope, first, last) of every statement: ``scope`` is the qualified name of
    the enclosing function or class, and a run of any line in first..last means it ran
    (a compound statement's header only).  Docstrings compile to no instruction and
    are left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            yield node, scope, first, max(first, last)
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
        yield from statements(node, inner)


def main(summary: str | None) -> int:
    os.chdir(ROOT)
    prefix = str(ROOT / "src" / "mglab")
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    sys.settrace(None)
    threading.settrace(None)

    unrun = []
    for path in sorted(pathlib.Path(prefix).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node, scope, first, last in statements(ast.parse(source)):
            if not any((str(path), n) in ran for n in range(first, last + 1)):
                text = " ".join(" ".join(lines[node.lineno - 1:last]).split())
                unrun.append(((path.name, scope, text), node.lineno))
    unexpected = [key for key, _ in unrun if key not in ALLOWED]
    stale = sorted(set(ALLOWED) - {key for key, _ in unrun})

    out = ["", f"src/ statements tier-1 never runs in process (pytest exit {code}; child "
           "processes are not traced):", "",
           "| module | line | function | statement | allowed because |",
           "| --- | --- | --- | --- | --- |"]
    for (module, scope, text), line in unrun:
        why = ALLOWED.get((module, scope, text), "**not allowed**")
        out.append(f"| {module} | {line} | {scope} | `{text}` | {why} |")
    out.append(f"| total | {len(unrun)} | | {len(unexpected)} not allowed | |")
    out.extend(f"- allowed entry `{entry}` matches no unrun statement: drop it" for entry in stale)
    text = "\n".join(out) + "\n"
    print(text)
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if code or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
