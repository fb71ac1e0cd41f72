"""Guard for the one soft-limit path (DESIGN.md, "One soft-limit path"):
an operator takes work memory through ``WorkMemory.reserve``, and only
the task's top-down walk in ``exec/memory.py`` asks a consumer to
relinquish.  The peek that let an operator degrade without asking
anyone (``would_exceed_soft`` over ``headroom_pages``) is defined and
called nowhere under ``src/``, and ``Task.allocate`` only accounts."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: The peek and the headroom it read, gone.
GONE = {"would_exceed_soft", "headroom_pages"}


def _called_name(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def names(source):
    """Every function defined and every name called in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Call):
            found.add(_called_name(node))
    return found


def relinquish_callers():
    """``path relative to src/repro`` of every file calling
    ``relinquish_memory``."""
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "relinquish_memory" in {
            _called_name(node) for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        }
    }


def method_calls(source, class_name, method_name):
    """Names called inside ``class_name.method_name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == method_name
                ):
                    return {
                        _called_name(call) for call in ast.walk(item)
                        if isinstance(call, ast.Call)
                    }
    raise AssertionError("%s.%s not found" % (class_name, method_name))


def test_the_peek_is_gone():
    for path in SRC.rglob("*.py"):
        assert not names(path.read_text()) & GONE, path


def test_only_the_task_asks_a_consumer_to_relinquish():
    # Equality, not subset: the guard must notice its own target moving.
    assert relinquish_callers() == {"exec/memory.py"}


def test_task_allocate_only_accounts():
    source = (SRC / "exec" / "memory.py").read_text()
    assert method_calls(source, "Task", "allocate") == {
        "MemoryQuotaExceededError"
    }


def test_the_guard_sees_a_planted_peek():
    planted = (
        "class WorkMemory:\n"
        "    def would_exceed_soft(self, n_bytes):\n"
        "        return n_bytes > self.task.headroom_pages()\n"
        "class Task:\n"
        "    def allocate(self, memory, pages):\n"
        "        for __, consumer in self._consumers:\n"
        "            consumer.relinquish_memory()\n"
        "def fold(memory, group_bytes):\n"
        "    if memory.would_exceed_soft(group_bytes):\n"
        "        return None\n"
    )
    assert names(planted) & GONE == GONE
    assert "relinquish_memory" in method_calls(planted, "Task", "allocate")
    assert names("memory.reserve(group_bytes)\n") & GONE == set()
