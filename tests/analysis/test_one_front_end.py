"""Guards against a second front end (DESIGN.md §13, "One query path").

Under ``repro/engine/``, a statement is parsed — ``parse_statement(`` —
and bound — ``Binder(`` — only inside ``StatementCache``
(``engine/statements.py``), which keys the result on the statement's
shape or text and the catalog generation and shares it.  A parse or
bind anywhere else — a text's own form, or a shape's lifted template —
would hand the executor a form the cache never saw: uncounted,
unsanitized, and bound again on every run.

Under ``repro/sql/``, literal text becomes a value only in the lexer's
one conversion per kind, and both of the lexer's scanners are built from
its one fragment per token class: a second number or string reader
could disagree with the first about what a literal is, and a statement
shape would then share a form between texts that tokenize apart."""

import ast
import pathlib
import re

import repro.engine
import repro.sql
from repro.sql import lexer

FRONT_END = ("parse_statement", "Binder")
#: What turns literal text into a value: a conversion, a test of which
#: conversion a text takes, or the string escape's ``.replace("''", ...)``.
VALUE_READERS = (
    "int", "float", "Decimal", "fromisoformat", "isdigit", "isdecimal",
    "isnumeric", "replace",
)


def _call_sites(node, names, scope=()):
    """``(callee, 'outer.function')`` for every call below of a name in
    ``names`` (``replace`` only when it replaces the string escape)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "replace" and not any(
                isinstance(arg, ast.Constant) and arg.value == "''"
                for arg in child.args
            ):
                name = None
            if name in names:
                yield name, ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _call_sites(child, names, inner)


def front_end_sites(source):
    return set(_call_sites(ast.parse(source), FRONT_END))


def value_reader_sites(source):
    return set(_call_sites(ast.parse(source), VALUE_READERS))


def package_sites(package, find):
    found = set()
    for path in pathlib.Path(package.__file__).parent.rglob("*.py"):
        found |= {(path.stem,) + site for site in find(path.read_text())}
    return found


def test_statements_are_parsed_and_bound_only_by_the_cache():
    found = package_sites(repro.engine, front_end_sites)
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


def test_literal_text_becomes_a_value_only_in_the_lexer():
    # Equality, as above.
    assert package_sites(repro.sql, value_reader_sites) == {
        ("lexer", "isdigit", "number_value"),
        ("lexer", "float", "number_value"),
        ("lexer", "int", "number_value"),
        ("lexer", "replace", "string_value"),
        ("lexer", "fromisoformat", "parse_date_literal"),
    }


def test_the_guard_sees_a_second_number_reader():
    planted = (
        "def _read_number(text, index):\n"
        "    start = index\n"
        "    while index < len(text) and text[index].isdigit():\n"
        "        index += 1\n"
        "    return int(text[start:index]), index\n"
        "def _read_string(text, index):\n"
        "    end = text.index(\"'\", index + 1)\n"
        "    return text[index + 1:end].replace(\"''\", \"'\"), end + 1\n"
    )
    assert value_reader_sites(planted) == {
        ("isdigit", "_read_number"), ("int", "_read_number"),
        ("replace", "_read_string"),
    }
    assert value_reader_sites("name.replace('_', ' ')\n") == set()


#: The token classes both scanners read; the shape pass leaves out
#: ``PARAMETER`` (a text with a ``?`` is keyed on itself).
SHARED = (
    "NUMBER", "BAD_EXPONENT", "STRING", "QUOTED_IDENT", "WORD", "COMMENT",
    "OPERATOR",
)


def character_classes(source):
    """The name each top-level statement of ``source`` assigns or defines
    (None for another) that holds a string, not a docstring, with a
    regular-expression character class in it."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and ast.get_docstring(node) is not None
    }
    names = set()
    for statement in tree.body:
        name = (
            ast.unparse(statement.targets[0])
            if isinstance(statement, ast.Assign)
            else getattr(statement, "name", None)
        )
        names |= {
            name for node in ast.walk(statement)
            if isinstance(node, ast.Constant) and id(node) not in docstrings
            and re.search(r"\[[^]]+\]", str(node.value))
        }
    return names


def test_both_scanners_read_the_one_fragment_per_token_class():
    for name in SHARED:
        fragment = getattr(lexer, name)
        assert fragment in lexer._TOKEN_SCAN.pattern, name
        assert fragment in lexer._SHAPE_SCAN.pattern, name
    assert lexer.PARAMETER in lexer._TOKEN_SCAN.pattern
    assert lexer.PARAMETER not in lexer._SHAPE_SCAN.pattern
    # Character classes are written only in the fragments.
    source = pathlib.Path(lexer.__file__).read_text()
    assert character_classes(source) <= set(SHARED) | {"_MANTISSA"}


def test_the_guard_sees_a_character_class_outside_the_fragments():
    planted = (
        'NUMBER = r"[0-9]+"\n'
        '_SHAPE_SCAN = re.compile(r"(?P<number>[0-9]+)|(?P<other>.)")\n'
        'def _read_number(text):\n'
        '    """Digits, as in ``[0-9]+``."""\n'
        '    return re.match("[0-9]+", text).group()\n'
    )
    assert character_classes(planted) == {
        "NUMBER", "_SHAPE_SCAN", "_read_number",
    }
