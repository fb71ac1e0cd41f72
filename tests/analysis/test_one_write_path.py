"""Guard against another copy of the write or undo sequence (DESIGN.md
§9): the calls that make up a logical row change appear only inside
``Server.apply_change``, and a transaction's undo chain is read only by
``Server.rollback`` — the one undo path a live ROLLBACK and restart
recovery share.  The one exemption is replica apply's version note:
redo places rows at their logged row ids, so it cannot go through
``apply_change``."""

import ast
import pathlib

import repro

#: guarded method -> the only functions under src/ that may call it.
ALLOWED = {
    "log_change": {"Server.apply_change"},
    "stamp_page": {"Server.apply_change"},
    "_index_delete": {"Server.apply_change"},
    "note_write": {"Server.apply_change", "Replica._apply_frame"},
    "undo_chain": {"Server.rollback"},
}


def _call_sites(node, scope=()):
    """``(method, 'Class.function')`` for every guarded call below."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in ALLOWED
        ):
            yield child.func.attr, ".".join(scope[:2])
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _call_sites(child, inner)


def test_row_change_steps_are_called_only_from_apply_change():
    found = {method: set() for method in ALLOWED}
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for method, where in _call_sites(ast.parse(path.read_text())):
            found[method].add(where)
    # Equality, not subset: the guard must notice its own targets moving.
    assert found == ALLOWED
