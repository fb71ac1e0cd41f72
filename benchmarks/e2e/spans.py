"""Benchmark-side span tracing: one table of layer -> public entry points.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
each entry point named in :data:`ENTRY_POINTS` with a timing wrapper for
the length of a traced round and :func:`uninstall` puts the originals
back, so the untraced run executes exactly the code a library user runs.

A *span* is one call of an entry point: name, layer, start, end, the span
that caused it (``parent``) and the id of the statement it served.  Span
stacks are per thread, because scheduled sessions are threads.  Entry
points that are generator functions (``Executor.run``,
``TableStorage.scan``, ``BTree.range_scan`` ...) are timed across every
resume until exhaustion - only the slices in which the generator's own
frame is running count as its ``busy`` time, so the consumer's work
between two ``next()`` calls is not charged to the producer.

A span's ``self`` time is its busy time minus the busy time of the spans
it caused; a layer's self time is the sum over its spans.  Spans marked
``wait`` (a session parked without the baton) are reported as waiting
and never as busy, and their time is taken out of the spans above them.
"""

import collections
import importlib
import inspect
import itertools
import sys
import threading
import time

#: layer -> entry points, as ``module:function`` or ``module:Class.method``.
#: ``!`` marks the root spans (one per client statement) and ``~`` marks
#: wait spans.  An entry that no longer resolves is reported as missing
#: rather than raising, so a refactor degrades one row of the report.
ENTRY_POINTS = {
    "sql": [
        "repro.sql.lexer:tokenize",
        "repro.sql.parser:parse_statement",
        "repro.sql.binder:Binder.bind",
    ],
    "optimizer": [
        "repro.optimizer.optimizer:Optimizer.optimize_select",
        "repro.optimizer.optimizer:Optimizer.optimize_simple_dml",
        "repro.optimizer.plancache:PlanCache.execute_plan_for",
    ],
    "stats": [
        "repro.stats.manager:StatisticsManager.feedback_eq",
        "repro.stats.manager:StatisticsManager.feedback_range",
        "repro.stats.manager:StatisticsManager.note_insert",
        "repro.stats.manager:StatisticsManager.note_update",
        "repro.stats.manager:StatisticsManager.note_delete",
    ],
    "exec": [
        "repro.exec.executor:Executor.run",
    ],
    "buffer": [
        "repro.buffer.pool:BufferPool.fetch",
        "repro.buffer.pool:BufferPool.new_page",
        "repro.buffer.pool:BufferPool.unpin",
        "repro.buffer.pool:BufferPool.flush_all",
    ],
    "storage": [
        "repro.storage.btree:BTree.search",
        "repro.storage.btree:BTree.prefix_scan",
        "repro.storage.btree:BTree.range_scan",
        "repro.storage.btree:BTree.insert",
        "repro.storage.btree:BTree.delete",
        "repro.storage.rowstore:TableStorage.get",
        "repro.storage.rowstore:TableStorage.get_visible",
        "repro.storage.rowstore:TableStorage.insert",
        "repro.storage.rowstore:TableStorage.update",
        "repro.storage.rowstore:TableStorage.delete",
        "repro.storage.rowstore:TableStorage.scan",
        "repro.storage.log:TransactionLog.log_change",
        "repro.storage.log:TransactionLog.force",
        "repro.storage.log:GroupCommitCoordinator.commit",
        "repro.storage.log:GroupCommitCoordinator.flush",
        "repro.storage.pagedfile:Volume.read_payload",
        "repro.storage.pagedfile:Volume.write_payload",
    ],
    "engine.server": [
        "!repro.engine.server:Connection.execute",
        "!repro.engine.server:Connection.commit",
        "!repro.engine.server:Connection.rollback",
    ],
    "engine.locks": [
        "repro.engine.locks:LockManager.acquire",
        "repro.engine.locks:LockManager.acquire_table",
        "repro.engine.locks:LockManager.release_all",
    ],
    "engine.versions": [
        "repro.engine.versions:VersionManager.note_write",
        "repro.engine.versions:VersionManager.commit",
        "repro.engine.versions:VersionManager.rollback",
        "repro.engine.versions:VersionManager.open_snapshot",
        "repro.engine.versions:VersionManager.close_snapshot",
        "repro.engine.versions:VersionManager.purge",
    ],
    "engine.scheduler": [
        "repro.engine.scheduler:WorkloadScheduler.yield_point",
        "repro.engine.scheduler:WorkloadScheduler.wait_for_commit",
        "repro.engine.scheduler:WorkloadScheduler.wait_for_lock",
        "repro.engine.scheduler:WorkloadScheduler.wait_for_repl",
        # The one private name in the table: parking is where a session
        # stops being busy, and no public call brackets exactly that.
        "~repro.engine.scheduler:WorkloadScheduler._park",
    ],
    "recovery": [
        "repro.recovery.restart:RecoveryManager.run",
    ],
    "replication": [
        "repro.replication.stream:LogStreamPublisher.tap",
        "repro.replication.stream:LogStreamPublisher.pump",
        "repro.replication.stream:LogStreamPublisher.ensure_acked",
        "repro.replication.replica:Replica.receive",
        "repro.replication.replica:Replica.apply_one",
        "repro.replication.replica:Replica.drain",
    ],
}

LAYERS = tuple(ENTRY_POINTS)

#: One finished span.  ``busy_s`` differs from ``end - start`` only for
#: generators (suspended time is the consumer's, not theirs); ``wait_s``
#: is the part of ``busy_s`` spent parked, in this span or below it.
Span = collections.namedtuple(
    "Span", "id name layer start end busy_s self_s wait_s parent stmt is_wait"
)

# Positions in the mutable frame a live span keeps on its thread's stack.
(_ID, _START, _END, _SLICE, _BUSY, _CHILD, _WAIT, _WAIT_AT_RESUME,
 _PARENT, _STMT) = range(10)


class Recorder:
    """Collects spans from every thread while entry points are wrapped."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stmts = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, root):
        """A frame for a new span of the calling thread (not yet running)."""
        stack = self._stack()
        if stack:
            parent, stmt = stack[-1][_ID], stack[-1][_STMT]
        else:
            parent = 0
            stmt = next(self._stmts) if root else 0
        return [next(self._ids), None, None, 0.0, 0.0, 0.0, 0.0, 0.0,
                parent, stmt]

    def resume(self, frame):
        self._stack().append(frame)
        frame[_WAIT_AT_RESUME] = frame[_WAIT]
        now = time.perf_counter()
        if frame[_START] is None:
            frame[_START] = now
        frame[_SLICE] = now

    def suspend(self, frame, is_wait):
        now = time.perf_counter()
        elapsed = now - frame[_SLICE]
        frame[_END] = now
        frame[_BUSY] += elapsed
        if is_wait:
            frame[_WAIT] += elapsed
        stack = self._stack()
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[_CHILD] += elapsed
            parent[_WAIT] += frame[_WAIT] - frame[_WAIT_AT_RESUME]

    def close(self, frame, name, layer, is_wait):
        if frame[_START] is None:
            return  # a generator that was never advanced did no work
        self.spans.append(Span(
            frame[_ID], name, layer, frame[_START], frame[_END],
            frame[_BUSY], frame[_BUSY] - frame[_CHILD], frame[_WAIT],
            frame[_PARENT], frame[_STMT], is_wait,
        ))

    def drain(self):
        """The spans recorded so far; the recorder starts over empty."""
        spans, self.spans = self.spans, []
        return spans


def _wrap_call(recorder, fn, name, layer, root, is_wait):
    def wrapper(*args, **kwargs):
        frame = recorder.open(root)
        recorder.resume(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.suspend(frame, is_wait)
            recorder.close(frame, name, layer, is_wait)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_generator(recorder, fn, name, layer, root, is_wait):
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        frame = recorder.open(root)
        try:
            while True:
                recorder.resume(frame)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.suspend(frame, is_wait)
                yield item
        finally:
            iterator.close()
            recorder.close(frame, name, layer, is_wait)
    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(spec):
    """(owner objects, attribute, original) for one table entry, or None.

    A method is patched on its class.  A module-level function is patched
    under every name it is bound to across the loaded ``repro`` modules:
    ``repro.engine.server`` does ``from repro.sql import parse_statement``,
    so replacing ``repro.sql.parser.parse_statement`` alone records nothing.
    """
    module_name, __, path = spec.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    if "." in path:
        class_name, __, attr = path.partition(".")
        cls = getattr(module, class_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if not inspect.isfunction(original):
            return None
        return [cls], attr, original
    original = getattr(module, path, None)
    if not inspect.isfunction(original):
        return None
    owners = [
        mod for mod_name, mod in list(sys.modules.items())
        if mod is not None
        and (mod_name == "repro" or mod_name.startswith("repro."))
        and vars(mod).get(path) is original
    ]
    return owners, path, original


class Installation:
    """The set of wrappers currently in place (undo with :meth:`uninstall`)."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.missing = []
        self.installed = []
        self._undo = []

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def install(recorder):
    """Wrap every resolvable entry point; returns the :class:`Installation`."""
    installation = Installation(recorder)
    for layer, specs in ENTRY_POINTS.items():
        for spec in specs:
            root, wait = spec.startswith("!"), spec.startswith("~")
            spec = spec.lstrip("!~")
            resolved = _resolve(spec)
            name = spec.partition(":")[2]
            if resolved is None:
                installation.missing.append(name)
                continue
            owners, attr, original = resolved
            wrap = (
                _wrap_generator if inspect.isgeneratorfunction(original)
                else _wrap_call
            )
            wrapper = wrap(recorder, original, name, layer, root, wait)
            for owner in owners:
                setattr(owner, attr, wrapper)
                installation._undo.append((owner, attr, original))
            installation.installed.append(name)
    return installation


def entry_names():
    """Every span name the table can produce."""
    return [
        spec.lstrip("!~").partition(":")[2]
        for specs in ENTRY_POINTS.values() for spec in specs
    ]


class Totals:
    """Calls, busy seconds and self seconds per layer and per span name.

    Busy and self exclude parked time; what the wait spans covered is
    ``wait_s``.
    """

    def __init__(self, spans):
        self.by_layer = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.by_name = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.wait_s = 0.0
        for span in spans:
            if span.is_wait:
                self.wait_s += span.busy_s
                continue
            for bucket in (self.by_layer[span.layer], self.by_name[span.name]):
                bucket[0] += 1
                bucket[1] += span.busy_s - span.wait_s
                bucket[2] += span.self_s

    def calls(self, *names):
        return sum(self.by_name[name][0] for name in names)

    def busy_s(self, *names):
        return sum(self.by_name[name][1] for name in names)
