"""Repo-specific lint rules (the SIM suite).

Each rule encodes one engine invariant that otherwise holds only by
convention:

* **SIM001** — engine code must not read the wall clock or use the
  process-global random generator.  All time flows through
  :class:`repro.common.clock.SimClock` and all randomness through seeded
  ``random.Random(seed)`` instances, or determinism (and experiment
  reproducibility, and resume) silently breaks.
* **SIM002** — no ``==``/``!=`` on float costs and selectivities: cost
  arithmetic accumulates rounding error, so exact comparison is always a
  latent bug.  Compare with tolerances or inequalities.
* **SIM003** — in ``repro.exec``, ``repro.storage``, and
  ``repro.engine``, every call that
  pins a buffer-pool frame (``fetch``/``new_page``/…) must be guarded:
  the pinned frame is either wrapped in ``pool.pin_guard(...)`` or the
  pinning assignment is immediately followed by a ``try/finally`` whose
  ``finally`` unpins.  Unguarded pins leak when an error (e.g.
  :class:`MemoryQuotaExceededError` mid-join) unwinds the stack.
* **SIM004** — metric names must be registered as literals matching the
  ``subsystem.counter_name`` convention of
  :mod:`repro.profiling.metrics`, so the registry's namespace stays
  greppable and collision-checked.
* **SIM005** — operator classes must implement the full operator
  protocol: every ``Operator`` subclass defines ``execute_batches`` and
  none defines a row-at-a-time ``execute`` (there is one execution
  protocol), and any class exposing ``memory_pages`` must also implement
  ``relinquish_memory`` (and vice versa) — a consumer that advertises
  memory but cannot relinquish starves the memory governor's reclaim.
* **SIM006** — no mutable default arguments.
* **SIM007** — no silently swallowed broad exceptions
  (``except:``/``except Exception:`` with a body of only ``pass``).
* **SIM008** — ``except`` blocks that catch injected-fault errors
  (:class:`repro.common.errors.FaultError` and friends) must either
  re-raise or account the fault (a counter ``inc``, a plan
  ``record``/``note_retry``/…).  A fault silently absorbed never shows
  up in ``faults.*`` metrics, which breaks both the chaos-CI accounting
  and same-seed replay comparisons.
* **SIM009** — catalog lock discipline: in ``repro.engine``, a function
  that mutates the catalog (``add_table``/``drop_table``/``add_index``/
  ``drop_index``) must take the table-exclusive DDL lock in the same
  function (a call to ``acquire_table`` or the ``_ddl_lock`` helper).
  Unlocked catalog mutations race in-flight DML under the workload
  scheduler: a writer parked at a yield point resumes into a schema that
  changed underneath it.
"""

import ast
import re

from repro.analysis.lint import Rule, register

# --------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------- #


def _rightmost_name(node):
    """The trailing identifier of a Name/Attribute chain, or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _next_sibling(stmt):
    """The statement following ``stmt`` in its enclosing body, or None."""
    parent = getattr(stmt, "parent", None)
    if parent is None:
        return None
    for field in ("body", "orelse", "finalbody"):
        body = getattr(parent, field, None)
        if isinstance(body, list):
            for index, candidate in enumerate(body):
                if candidate is stmt:
                    if index + 1 < len(body):
                        return body[index + 1]
                    return None
    return None


# --------------------------------------------------------------------- #
# SIM001 — simulated time and seeded randomness only
# --------------------------------------------------------------------- #


@register
class NoWallClockRule(Rule):
    rule_id = "SIM001"
    summary = (
        "no wall-clock or process-global randomness in engine code; use "
        "SimClock and seeded random.Random instances"
    )

    #: random functions allowed: only constructing a seeded generator.
    ALLOWED_RANDOM = ("Random",)
    #: method names that read the wall clock when called.
    WALL_CLOCK_CALLS = ("now", "utcnow", "today")

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "time" or alias.name.startswith("time."):
                self.report(
                    node,
                    "import of wall-clock module 'time'; engine time must "
                    "flow through repro.common.clock.SimClock",
                )

    def visit_ImportFrom(self, node):
        if node.module == "time":
            self.report(
                node,
                "import from wall-clock module 'time'; engine time must "
                "flow through repro.common.clock.SimClock",
            )
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in self.ALLOWED_RANDOM:
                    self.report(
                        node,
                        "'from random import %s' uses the process-global "
                        "generator; construct a seeded random.Random(seed)"
                        % (alias.name,),
                    )

    def visit_Call(self, node):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "time":
                self.report(
                    node,
                    "time.%s() reads the wall clock; charge the SimClock "
                    "instead" % (func.attr,),
                )
                return
            if receiver.id == "random" and func.attr not in self.ALLOWED_RANDOM:
                self.report(
                    node,
                    "random.%s() uses the unseeded process-global "
                    "generator; use a seeded random.Random(seed) instance"
                    % (func.attr,),
                )
                return
        if func.attr in self.WALL_CLOCK_CALLS:
            self.report(
                node,
                "%s.%s() reads the wall clock; simulated components must "
                "use SimClock.now" % (_rightmost_name(receiver) or "?",
                                      func.attr),
            )


# --------------------------------------------------------------------- #
# SIM002 — no float equality on costs/selectivities
# --------------------------------------------------------------------- #


@register
class NoFloatEqualityRule(Rule):
    rule_id = "SIM002"
    summary = "no == / != against float literals or cost/selectivity values"

    NAME_RE = re.compile(r"(^|_)(cost|costs|selectivity|selectivities)($|_)")

    def visit_Compare(self, node):
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in [node.left] + list(node.comparators):
            if isinstance(operand, ast.Constant) and isinstance(
                operand.value, float
            ):
                self.report(
                    node,
                    "equality comparison against float literal %r; float "
                    "costs/fractions accumulate rounding error — use an "
                    "inequality or tolerance" % (operand.value,),
                )
                return
            name = _rightmost_name(operand)
            if name is not None and self.NAME_RE.search(name):
                self.report(
                    node,
                    "equality comparison on %r; costs and selectivities "
                    "are floats — use an inequality or tolerance" % (name,),
                )
                return


# --------------------------------------------------------------------- #
# SIM003 — pinned frames must be guarded
# --------------------------------------------------------------------- #


@register
class GuardedPinRule(Rule):
    rule_id = "SIM003"
    summary = (
        "in repro.exec/repro.storage, frame pins must be released via "
        "pool.pin_guard(...) or an immediate try/finally unpin"
    )

    #: Pool methods that return a *pinned* frame; receiver must look like
    #: a buffer pool.
    PIN_METHODS = (
        "fetch", "new_page", "allocate_heap_frame", "unspill_heap_frame",
        "repin",
    )
    #: Module-conventional wrapper helpers that also return pinned frames.
    WRAPPER_METHODS = ("_read", "_fetch")
    #: Calls that release a pin inside a finally block.
    RELEASE_METHODS = ("unpin", "release_frame")

    @classmethod
    def applies_to(cls, context):
        return context.in_package(
            "repro.exec", "repro.storage", "repro.engine"
        )

    def _is_pin_call(self, node):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            return False
        attr = node.func.attr
        if attr in self.WRAPPER_METHODS:
            return True
        if attr in self.PIN_METHODS:
            receiver = _rightmost_name(node.func.value)
            return receiver is not None and receiver.endswith("pool")
        return False

    def _finally_releases(self, try_node):
        for stmt in try_node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self.RELEASE_METHODS
                ):
                    return True
        return False

    def visit_Call(self, node):
        if not self._is_pin_call(node):
            return
        parent = getattr(node, "parent", None)
        # pool.pin_guard(pool.new_page(...)) — guarded by construction.
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr == "pin_guard"
        ):
            return
        # ``return self.pool.fetch(...)`` — a wrapper helper; its callers
        # are checked at their own call sites.
        if isinstance(parent, ast.Return):
            return
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            follower = _next_sibling(parent)
            if isinstance(follower, ast.Try) and self._finally_releases(
                follower
            ):
                return
            self.report(
                node,
                "pinned frame is not guarded: follow the assignment with "
                "try/finally unpin, or use pool.pin_guard(...)",
            )
            return
        # Any other position (discarded expression, nested arithmetic...)
        # cannot be proven to release the pin.
        self.report(
            node,
            "pin-returning call in an unguarded position; bind the frame "
            "and release it via pin_guard or try/finally",
        )


# --------------------------------------------------------------------- #
# SIM004 — metric names are literal and follow the naming convention
# --------------------------------------------------------------------- #


@register
class MetricNameRule(Rule):
    rule_id = "SIM004"
    summary = (
        "metric names must be string literals matching "
        "'subsystem.counter_name'"
    )

    REGISTRATION_METHODS = ("counter", "gauge", "histogram", "register_probe")
    NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
    PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*\.")
    TEMPLATE_RE = re.compile(r"^[a-z0-9_.%s]+$")

    def _is_metrics_receiver(self, node):
        name = _rightmost_name(node)
        return name is not None and (
            "metrics" in name or "registry" in name
        )

    def visit_Call(self, node):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in self.REGISTRATION_METHODS:
            return
        if not self._is_metrics_receiver(func.value):
            return
        if not node.args:
            return
        name_arg = node.args[0]
        if isinstance(name_arg, ast.Constant) and isinstance(
            name_arg.value, str
        ):
            if not self.NAME_RE.match(name_arg.value):
                self.report(
                    name_arg,
                    "metric name %r does not match the "
                    "'subsystem.counter_name' convention"
                    % (name_arg.value,),
                )
            return
        # ``"pool.%s" % name`` / ``"plancache." + name`` — a literal
        # template with a literal subsystem prefix is acceptable (the
        # registry still sees one namespace per subsystem).
        if (
            isinstance(name_arg, ast.BinOp)
            and isinstance(name_arg.op, (ast.Mod, ast.Add))
            and isinstance(name_arg.left, ast.Constant)
            and isinstance(name_arg.left.value, str)
        ):
            template = name_arg.left.value
            well_formed = self.PREFIX_RE.match(template) and (
                isinstance(name_arg.op, ast.Add)
                or self.TEMPLATE_RE.match(template)
            )
            if not well_formed:
                self.report(
                    name_arg,
                    "metric name template %r must start with a literal "
                    "'subsystem.' prefix" % (template,),
                )
            return
        if isinstance(name_arg, ast.JoinedStr):
            head = name_arg.values[0] if name_arg.values else None
            if (
                isinstance(head, ast.Constant)
                and isinstance(head.value, str)
                and self.PREFIX_RE.match(head.value)
            ):
                return
            self.report(
                name_arg,
                "f-string metric name must start with a literal "
                "'subsystem.' prefix",
            )
            return
        self.report(
            name_arg,
            "metric name must be a string literal (or a literal template "
            "with a 'subsystem.' prefix), not a computed expression",
        )


# --------------------------------------------------------------------- #
# SIM005 — the full operator protocol
# --------------------------------------------------------------------- #


@register
class OperatorProtocolRule(Rule):
    rule_id = "SIM005"
    summary = (
        "Operator subclasses must define execute_batches() and must not "
        "define execute(); memory_pages and relinquish_memory must be "
        "implemented together"
    )

    OPERATOR_BASES = ("Operator",)

    def _defined_names(self, node):
        defined = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                defined.add(stmt.target.id)
        return defined

    def visit_ClassDef(self, node):
        defined = self._defined_names(node)
        base_names = {_rightmost_name(base) for base in node.bases}
        if base_names & set(self.OPERATOR_BASES):
            if "execute_batches" not in defined:
                self.report(
                    node,
                    "operator class %r does not implement "
                    "execute_batches(); the operator protocol "
                    "(execute_batches/memory/observability) must be "
                    "complete" % (node.name,),
                )
            if "execute" in defined:
                self.report(
                    node,
                    "operator class %r defines a row-at-a-time execute(); "
                    "operators have one protocol, execute_batches()"
                    % (node.name,),
                )
        has_pages = "memory_pages" in defined
        has_relinquish = "relinquish_memory" in defined
        if has_pages and not has_relinquish:
            self.report(
                node,
                "class %r exposes memory_pages without relinquish_memory; "
                "the memory governor cannot reclaim from it" % (node.name,),
            )
        elif has_relinquish and not has_pages and node.name != "Operator":
            self.report(
                node,
                "class %r implements relinquish_memory without exposing "
                "memory_pages; the governor cannot account it"
                % (node.name,),
            )


# --------------------------------------------------------------------- #
# SIM006 — mutable default arguments
# --------------------------------------------------------------------- #


@register
class MutableDefaultRule(Rule):
    rule_id = "SIM006"
    summary = "no mutable default arguments"

    MUTABLE_CALLS = ("list", "dict", "set", "bytearray")

    def _check(self, node):
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self.MUTABLE_CALLS
            ):
                self.report(
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                )

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


# --------------------------------------------------------------------- #
# SIM007 — swallowed exceptions
# --------------------------------------------------------------------- #


@register
class SwallowedExceptionRule(Rule):
    rule_id = "SIM007"
    summary = "no bare/broad except with a body of only pass"

    BROAD = ("Exception", "BaseException")

    def _is_broad(self, type_node):
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return _rightmost_name(type_node) in self.BROAD

    def visit_ExceptHandler(self, node):
        if not self._is_broad(node.type):
            return
        for stmt in node.body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or ellipsis
            return
        self.report(
            node,
            "broad exception handler silently swallows errors; handle a "
            "specific exception or record why it is safe to ignore",
        )


# --------------------------------------------------------------------- #
# SIM008 — fault handlers must re-raise or count
# --------------------------------------------------------------------- #


@register
class FaultHandlingRule(Rule):
    rule_id = "SIM008"
    summary = (
        "except blocks catching injected-fault errors must re-raise or "
        "account the fault (counter inc / plan record / note_retry)"
    )

    #: The typed fault family (plus the ossim probe-outage, which the
    #: governor handles), and anything whose name starts with "Fault".
    FAULT_NAMES = (
        "FaultError",
        "TransientIOError",
        "IOFaultError",
        "SpillWriteError",
        "WorkingSetProbeOutage",
    )
    #: A call to any of these inside the handler counts as accounting.
    COUNT_METHODS = (
        "inc",
        "observe",
        "record",
        "record_fault",
        "note",
        "note_retry",
        "note_statement_abort",
    )

    def _caught_names(self, type_node):
        if type_node is None:
            return []
        if isinstance(type_node, ast.Tuple):
            names = []
            for elt in type_node.elts:
                names.extend(self._caught_names(elt))
            return names
        name = _rightmost_name(type_node)
        return [name] if name is not None else []

    def _catches_fault(self, type_node):
        return any(
            name in self.FAULT_NAMES or name.startswith("Fault")
            for name in self._caught_names(type_node)
        )

    def _body_accounts(self, node):
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self.COUNT_METHODS
                ):
                    return True
        return False

    def visit_ExceptHandler(self, node):
        if not self._catches_fault(node.type):
            return
        if self._body_accounts(node):
            return
        self.report(
            node,
            "fault-typed exception handler neither re-raises nor counts "
            "the fault; absorbed faults break the faults.* accounting "
            "and seed-replay comparisons",
        )


# --------------------------------------------------------------------- #
# SIM009 — catalog mutations hold the DDL table lock
# --------------------------------------------------------------------- #


@register
class CatalogLockDisciplineRule(Rule):
    rule_id = "SIM009"
    summary = (
        "functions mutating the catalog must take the DDL table lock "
        "(acquire_table / _ddl_lock) in the same function"
    )

    #: Catalog mutators; the receiver must look like a catalog.
    MUTATOR_METHODS = ("add_table", "drop_table", "add_index", "drop_index")
    #: Either of these in the same function satisfies the discipline.
    LOCK_CALLS = ("acquire_table", "_ddl_lock")

    @classmethod
    def applies_to(cls, context):
        return context.in_package("repro.engine")

    def _is_catalog_mutation(self, node):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            return False
        if node.func.attr not in self.MUTATOR_METHODS:
            return False
        receiver = _rightmost_name(node.func.value)
        return receiver is not None and "catalog" in receiver

    def _check(self, node):
        mutation = None
        locked = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if self._is_catalog_mutation(sub):
                mutation = mutation or sub
            elif (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr in self.LOCK_CALLS
            ):
                locked = True
        if mutation is not None and not locked:
            self.report(
                mutation,
                "catalog mutation %r without the DDL lock discipline; "
                "wrap it in _ddl_lock(...) or acquire_table(..., X) in "
                "this function so in-flight DML is drained first"
                % (mutation.func.attr,),
            )

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check
