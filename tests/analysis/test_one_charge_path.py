"""Guard for the one CPU charge path (DESIGN.md §7, "Charging rule"):
under ``repro/exec/`` the simulated clock is advanced only inside
``ExecutionContext.charge``, which keeps sub-microsecond time exactly in
an integer picosecond carry; and the float fraction it replaced, with
the per-row fold that kept it grouping-independent, is defined nowhere
under ``src/``."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: The float carry and its per-row fold, gone.
GONE = {"charge_rows", "_fraction"}


def _advances(node, scope=()):
    """``'outer.function'`` for every ``….advance(...)`` call below."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "advance"
        ):
            yield ".".join(scope)
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            inner = scope + (child.name,)
        yield from _advances(child, inner)


def advances(source):
    return set(_advances(ast.parse(source)))


def definitions(source):
    """Functions, classes and assigned names or attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
        ):
            found.add(node.attr)
    return found


def test_only_charge_advances_the_clock_under_exec():
    found = set()
    for path in (SRC / "exec").rglob("*.py"):
        found |= {
            (path.stem, function) for function in advances(path.read_text())
        }
    # Equality, not subset: the guard must notice its own target moving.
    assert found == {("executor", "ExecutionContext.charge")}


def test_the_float_carry_is_gone():
    for path in SRC.rglob("*.py"):
        assert not definitions(path.read_text()) & GONE, path


def test_the_guard_sees_a_planted_bypass():
    planted = (
        "class ParallelPipeline:\n"
        "    def run(self, ctx, stats):\n"
        "        ctx.clock.advance(int(stats.wall_clock_us))\n"
        "class ExecutionContext:\n"
        "    _fraction = 0.0\n"
        "    def charge(self, us):\n"
        "        self.clock.advance(int(us))\n"
        "    def charge_rows(self, count, unit_us):\n"
        "        self._fraction += unit_us\n"
    )
    assert advances(planted) == {
        "ParallelPipeline.run", "ExecutionContext.charge",
    }
    assert definitions(planted) & GONE == GONE
    assert definitions("ctx.charge(unit, count)\nfraction = 0.5\n") & GONE \
        == set()
