"""Guard against an operator that builds every column of a batch it
reads only a few of (DESIGN.md §7, "A column is built when something
first reads it"): under ``repro/exec/``, outside ``batch.py``, the
functions that read a batch's ``.columns`` — which builds them all —
are exactly the list below.  Everything else reads through
``Batch.column`` (one column) or ``flat_rows`` (the row tuples).  A
``.columns`` read off ``self``, a quantifier or a schema is not a
batch's and is not counted."""

import ast
import pathlib

import repro.exec

#: Receivers whose ``.columns`` is a column-name list, not a batch's.
NOT_BATCHES = ("self", "quantifier", "schema")


def _receiver_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _column_reads(node, scope=()):
    """``'outer.function'`` for every batch ``.columns`` read below."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr == "columns"
            and isinstance(child.ctx, ast.Load)
            and _receiver_name(child.value) not in NOT_BATCHES
        ):
            yield ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _column_reads(child, inner)


def column_reads(source):
    return set(_column_reads(ast.parse(source)))


def test_only_the_listed_functions_build_every_column():
    found = set()
    for path in pathlib.Path(repro.exec.__file__).parent.rglob("*.py"):
        if path.name == "batch.py":
            continue
        found |= {
            (path.stem, function) for function in column_reads(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == set()


def test_the_guard_sees_an_eager_reader():
    planted = (
        "class HashJoinOp:\n"
        "    def _probe(self, ctx, batch):\n"
        "        rows = zip(*batch.columns)\n"
        "        width = len(self.columns) + len(quantifier.columns)\n"
        "        return rows, out.batch.columns, width\n"
    )
    assert column_reads(planted) == {"HashJoinOp._probe"}
    assert column_reads(
        "def null_extend(env, quantifier):\n"
        "    return len(quantifier.columns), self.schema.columns\n"
    ) == set()
