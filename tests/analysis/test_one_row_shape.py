"""Guard for the one row shape inside the operator tree and the one
expression evaluator (DESIGN.md §7, "One row shape" and "One expression
evaluator"): below Project a row is a flat value tuple under its batch's
layout, and expressions are evaluated over batches only, a row being a
one-row batch.  So no function under ``repro/exec/`` builds an
environment dict (``env_of``), and the scalar evaluator, its row-at-a-time
fallbacks and the environment packers the flat rows replaced are defined
and called nowhere under ``src/`` (they live on under ``tests/exec/`` as
the differential references)."""

import ast
import pathlib

import repro

#: Where an environment dict is built under ``repro/exec/``: nowhere.
ENV_BUILDERS = set()

#: The environment-row machinery and the scalar evaluator that went
#: (kept in ``tests/exec/env_reference.py``).
GONE = {"BatchBuilder", "from_envs", "rows_to_batches", "null_extend",
        "_flatten_env", "env_of", "evaluate", "evaluate_predicate",
        "_rowwise_batch", "_is_total"}

SRC = pathlib.Path(repro.__file__).parent


def _called_name(node):
    """The bare name a call's callee is spelled with, or None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _env_builds(node, scope=()):
    """``'outer.function'`` for every ``env_of(...)`` call below."""
    for child in ast.iter_child_nodes(node):
        if _called_name(child) == "env_of":
            yield ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _env_builds(child, inner)


def env_builds(source):
    return set(_env_builds(ast.parse(source)))


def definitions(source):
    return {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }


def calls(source):
    return {
        name for name in map(_called_name, ast.walk(ast.parse(source)))
        if name is not None
    }


def test_only_the_listed_functions_build_an_environment():
    found = set()
    for path in (SRC / "exec").rglob("*.py"):
        found |= {
            (path.stem, function) for function in env_builds(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == ENV_BUILDERS


def test_the_environment_packers_are_gone():
    """And the scalar evaluator: defined and called nowhere."""
    for path in SRC.rglob("*.py"):
        source = path.read_text()
        assert not definitions(source) & GONE, path
        assert not calls(source) & GONE, path


def test_the_guard_sees_a_planted_environment():
    planted = (
        "class GroupOp:\n"
        "    def _emit(self, layout, row):\n"
        "        def unpack():\n"
        "            return batch.env_of(layout, row)\n"
        "        return env_of(layout, row), unpack\n"
        "\n"
        "def null_extend(env, quantifiers):\n"
        "    return layout_of(quantifiers), self.env_of\n"
    )
    assert env_builds(planted) == {"GroupOp._emit", "GroupOp._emit.unpack"}
    assert definitions(planted) & GONE == {"null_extend"}


def test_the_guard_sees_a_reintroduced_scalar_evaluator():
    planted = (
        "def evaluate(expr, env, params=None):\n"
        "    return env[expr.quantifier_id][expr.column_index]\n"
        "\n"
        "class NLJoinOp:\n"
        "    def _joined(self, ctx, merged):\n"
        "        return expr_module.evaluate_predicate(c.expr, merged)\n"
    )
    assert definitions(planted) & GONE == {"evaluate"}
    assert calls(planted) & GONE == {"evaluate_predicate"}
