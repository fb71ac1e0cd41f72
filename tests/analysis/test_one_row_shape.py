"""Guard for the one row shape inside the operator tree (DESIGN.md §7,
"One row shape"): below Project a row is a flat value tuple under its
batch's layout.  An environment dict is built (``env_of``) only to hand
one row to ``evaluate``, so the functions under ``repro/exec/`` that
call ``env_of`` are exactly the list below; and the environment packers
the flat rows replaced are defined nowhere under ``src/``."""

import ast
import pathlib

import repro

#: Where ``evaluate`` reads a row: each builds an environment and lets
#: no other function see it.
ENV_BUILDERS = {
    ("expr", "_rowwise_batch"),
    ("operators", "NLJoinOp._joined"),
    ("operators", "IndexNLJoinOp.probe"),
    ("operators", "HashJoinOp._any_match"),
}

#: The environment-row machinery that went (kept under ``tests/exec/``
#: as the differential references' packer).
GONE = {"BatchBuilder", "from_envs", "rows_to_batches", "null_extend",
        "_flatten_env"}

SRC = pathlib.Path(repro.__file__).parent


def _env_builds(node, scope=()):
    """``'outer.function'`` for every ``env_of(...)`` call below."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, (ast.Name, ast.Attribute))
            and getattr(child.func, "id", getattr(child.func, "attr", None))
            == "env_of"
        ):
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


def test_only_the_listed_functions_build_an_environment():
    found = set()
    for path in (SRC / "exec").rglob("*.py"):
        found |= {
            (path.stem, function) for function in env_builds(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == ENV_BUILDERS


def test_the_environment_packers_are_gone():
    for path in SRC.rglob("*.py"):
        assert not definitions(path.read_text()) & GONE, path


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
