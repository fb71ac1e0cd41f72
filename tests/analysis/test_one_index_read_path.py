"""Guard against an operator that reads the latest heap under a snapshot
(DESIGN.md §9, "One snapshot rule for index reads"): under
``repro/exec/``, a table storage's row fetch — ``.get(`` or
``.get_visible(`` on ``storage`` or ``<anything>.storage`` — appears only
inside ``operators.index_rows``, which applies the snapshot rule.  Heap
scans go through ``TableStorage.scan(snapshot=...)``; the group-by
fallback's private temp table (``_TempGroupStore._rows``) is not a table
storage and never read at a snapshot."""

import ast
import pathlib

import repro.exec

FETCHES = ("get", "get_visible")


def _is_storage(node):
    return (isinstance(node, ast.Name) and node.id == "storage") or (
        isinstance(node, ast.Attribute) and node.attr == "storage"
    )


def _fetch_sites(node, scope=()):
    """``(method, 'outer.function')`` for every storage row fetch below."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr in FETCHES
            and (
                _is_storage(child.func.value)
                or child.func.attr == "get_visible"
            )
        ):
            yield child.func.attr, ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _fetch_sites(child, inner)


def fetch_sites(source):
    return set(_fetch_sites(ast.parse(source)))


def test_table_rows_are_fetched_only_by_index_rows():
    found = set()
    for path in pathlib.Path(repro.exec.__file__).parent.rglob("*.py"):
        found |= {
            (path.stem,) + site for site in fetch_sites(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == {
        ("operators", "get", "index_rows"),
        ("operators", "get_visible", "index_rows"),
    }


def test_the_guard_sees_a_latest_heap_read():
    planted = (
        "class JoinOp:\n"
        "    def probe(self, ctx, row_id):\n"
        "        storage = self.quantifier.schema.storage\n"
        "        return storage.get(row_id), self.schema.storage.get(row_id)\n"
    )
    assert fetch_sites(planted) == {("get", "JoinOp.probe")}
    assert fetch_sites("cache = {}\ncache.get(1)\n") == set()
