"""Work-memory accounting and temp-file spilling shared by operators.

Operators account their work memory in pages against the statement's
:class:`~repro.exec.memory.Task`; rows that no longer fit are written to
the temporary file in page-sized chunks (charging device time through the
volume, exactly like any other page I/O).
"""

from repro.common.errors import ExecutionError, IOFaultError, SpillWriteError
from repro.faults.plan import SPILL_WRITE_ERROR

#: Rough per-value bytes when estimating row footprints.
VALUE_BYTES = 16
ROW_OVERHEAD_BYTES = 32


def env_row_bytes(env):
    """Estimated bytes of one environment row."""
    total = ROW_OVERHEAD_BYTES
    for row in env.values():
        try:
            total += VALUE_BYTES * len(row)
        except TypeError:
            total += VALUE_BYTES
    return total


class WorkMemory:
    """Page-accounted memory for one operator."""

    def __init__(self, task, page_size):
        self.task = task
        self.page_size = page_size
        self.bytes_used = 0
        self.pages_held = 0

    def add(self, n_bytes):
        """Account ``n_bytes`` more; may trigger reclamation or the hard
        limit via the task."""
        self.bytes_used += int(n_bytes)
        needed = -(-self.bytes_used // self.page_size)
        if needed > self.pages_held:
            # task.allocate may reclaim, re-entering *this* operator's
            # relinquish_memory (which shrinks pages_held via remove), so
            # apply the delta computed now rather than overwriting
            # pages_held with the pre-reclaim target — otherwise
            # pages_held overstates the net allocation and teardown
            # over-releases, corrupting the task's accounting for every
            # other consumer.
            delta = needed - self.pages_held
            self.task.allocate(delta)
            self.pages_held += delta

    def remove(self, n_bytes):
        self.bytes_used = max(0, self.bytes_used - int(n_bytes))
        needed = -(-self.bytes_used // self.page_size)
        if needed < self.pages_held:
            # Shrink our claim before returning the pages: the task's
            # accounting must never show consumers holding more than the
            # task has allocated.
            surplus = self.pages_held - needed
            self.pages_held = needed
            self.task.release(surplus)

    def release_all(self):
        held = self.pages_held
        self.pages_held = 0
        self.bytes_used = 0
        if held:
            self.task.release(held)

    def would_exceed_soft(self, n_bytes):
        needed = -(-(self.bytes_used + n_bytes) // self.page_size)
        return needed - self.pages_held > self.task.headroom_pages()


class SpillFile:
    """Rows written to the temporary file in page-sized chunks.

    With a fault plan attached, each page flush may suffer injected
    spill-write failures; the operator-level retry budget
    (``rates.spill_retry_limit``) absorbs them, and persistent failure
    surfaces as :class:`SpillWriteError` with the staged page freed —
    the statement aborts, the temp file does not leak.
    """

    def __init__(self, temp_file, row_bytes_estimate, page_size, fault_plan=None,
                 yield_hook=None):
        self.temp_file = temp_file
        self.rows_per_page = max(1, page_size // max(1, row_bytes_estimate))
        self.fault_plan = fault_plan
        #: Workload-scheduler yield point: fired before each page flush
        #: so sibling sessions can run while this one does spill I/O.
        self.yield_hook = yield_hook
        self._pages = []
        self._buffer = []
        self.row_count = 0

    def append(self, row):
        self._buffer.append(row)
        self.row_count += 1
        if len(self._buffer) >= self.rows_per_page:
            self._flush()

    def _flush(self):
        if not self._buffer:
            return
        if self.yield_hook is not None:
            self.yield_hook()
        page_no = self.temp_file.allocate_page()
        plan = self.fault_plan
        if plan is not None:
            attempt = 0
            while plan.should(
                SPILL_WRITE_ERROR, plan.rates.spill_write_error
            ):
                plan.record(
                    SPILL_WRITE_ERROR,
                    "page=%d attempt=%d" % (page_no, attempt),
                )
                attempt += 1
                if attempt > plan.rates.spill_retry_limit:
                    self.temp_file.free_page(page_no)
                    raise SpillWriteError(
                        "spill write to temp page %d still failing after "
                        "%d retries" % (page_no, plan.rates.spill_retry_limit)
                    )
                plan.note_retry(SPILL_WRITE_ERROR)
        try:
            self.temp_file.write(page_no, list(self._buffer))
        except IOFaultError:
            self.temp_file.free_page(page_no)
            raise
        self._pages.append(page_no)
        self._buffer = []

    def finish_writing(self):
        self._flush()

    def read_all(self):
        """Read every spilled row back (charging I/O), in write order."""
        self.finish_writing()
        for page_no in self._pages:
            for row in self.temp_file.read(page_no):
                yield row

    def free(self):
        self.finish_writing()
        for page_no in self._pages:
            self.temp_file.free_page(page_no)
        self._pages = []
        self.row_count = 0


class SpillableBuffer:
    """An append-then-rescan row buffer that overflows to the temp file.

    Used to materialize nested-loop-join inner inputs and derived tables:
    rows stay in accounted work memory until the soft limit pushes the
    tail to disk.
    """

    def __init__(self, ctx, row_bytes_estimate=64):
        self.ctx = ctx
        self.memory = WorkMemory(ctx.task, ctx.pool.page_size)
        self.row_bytes = row_bytes_estimate
        self._in_memory = []
        self._spill = None
        self._sealed = False

    def append(self, row):
        if self._sealed:
            raise ExecutionError("buffer already sealed")
        if self._spill is None and self.memory.would_exceed_soft(self.row_bytes):
            self._spill = SpillFile(
                self.ctx.temp_file,
                self.row_bytes,
                self.ctx.pool.page_size,
                fault_plan=getattr(self.ctx, "fault_plan", None),
                yield_hook=getattr(self.ctx, "yield_hook", None),
            )
        if self._spill is not None:
            self._spill.append(row)
        else:
            self._in_memory.append(row)
            self.memory.add(self.row_bytes)

    def seal(self):
        if self._spill is not None:
            self._spill.finish_writing()
        self._sealed = True

    @property
    def spilled(self):
        """Whether any rows overflowed to the temporary file."""
        return self._spill is not None

    def __len__(self):
        return len(self._in_memory) + (
            self._spill.row_count if self._spill is not None else 0
        )

    def scan(self):
        for row in self._in_memory:
            yield row
        if self._spill is not None:
            yield from self._spill.read_all()

    def free(self):
        self._in_memory = []
        self.memory.release_all()
        if self._spill is not None:
            self._spill.free()
            self._spill = None
