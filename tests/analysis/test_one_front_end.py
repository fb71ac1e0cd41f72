"""Guard against a second front end in the engine (DESIGN.md §13, "One
query path"): under ``repro/engine/``, a statement is parsed —
``parse_statement(`` — and bound — ``Binder(`` — only inside
``StatementCache`` (``engine/statements.py``), which keys the result on
the statement's shape or text and the catalog generation and shares it.
A parse or bind anywhere else — a text's own form, or a shape's lifted
template — would hand the executor a form the cache never saw:
uncounted, unsanitized, and bound again on every run."""

import ast
import pathlib

import repro.engine

FRONT_END = ("parse_statement", "Binder")


def _front_end_sites(node, scope=()):
    """``(callee, 'outer.function')`` for every parse or bind below."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in FRONT_END:
                yield name, ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _front_end_sites(child, inner)


def front_end_sites(source):
    return set(_front_end_sites(ast.parse(source)))


def test_statements_are_parsed_and_bound_only_by_the_cache():
    found = set()
    for path in pathlib.Path(repro.engine.__file__).parent.rglob("*.py"):
        found |= {
            (path.stem,) + site for site in front_end_sites(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == {
        # A shape's lifted template, bound once for all its texts.
        ("statements", "parse_statement", "StatementCache._prepare_shape"),
        ("statements", "Binder", "StatementCache._prepare_shape"),
        # A text keyed on itself.
        ("statements", "parse_statement", "StatementCache._prepare_text"),
        ("statements", "Binder", "StatementCache._prepare_text"),
        # The sanitizer's fresh parse and bind of a shape hit's text.
        ("statements", "parse_statement", "StatementCache._check_shape"),
        ("statements", "Binder", "StatementCache._check_shape"),
    }


def test_the_guard_sees_a_second_front_end():
    planted = (
        "class Connection:\n"
        "    def _execute_call(self, procedure):\n"
        "        body = sql.parse_statement(procedure.body_sql)\n"
        "        return Binder(self.server.catalog).bind(body)\n"
    )
    assert front_end_sites(planted) == {
        ("parse_statement", "Connection._execute_call"),
        ("Binder", "Connection._execute_call"),
    }
    assert front_end_sites("binder = make_binder()\nparse(text)\n") == set()


def test_the_guard_sees_a_template_bound_outside_the_cache():
    planted = (
        "class Connection:\n"
        "    def _statement(self, sql, values):\n"
        "        template = parse_statement(sql, lift=True)\n"
        "        self._bound = Binder(self.server.catalog).bind(template)\n"
    )
    assert front_end_sites(planted) == {
        ("parse_statement", "Connection._statement"),
        ("Binder", "Connection._statement"),
    }
