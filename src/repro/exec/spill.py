"""Work-memory accounting and temp-file spilling shared by operators.

Operators take work memory, in pages of the statement's
:class:`~repro.exec.memory.Task`, through :meth:`WorkMemory.reserve`;
when the task finds no room an operator degrades itself, and rows that
no longer fit are written to the temporary file in page-sized chunks
(charging device time through the volume, like any other page I/O).
"""

from repro.common.errors import ExecutionError, IOFaultError, SpillWriteError
from repro.faults.plan import SPILL_WRITE_ERROR

#: Rough per-value bytes when estimating row footprints.
VALUE_BYTES = 16
ROW_OVERHEAD_BYTES = 32


def row_bytes(width):
    """Estimated bytes of one row of ``width`` values."""
    return ROW_OVERHEAD_BYTES + VALUE_BYTES * width


class WorkMemory:
    """Page-accounted memory of ``owner``, registered with the task as a
    memory consumer at ``owner.depth`` until :meth:`release_all`."""

    def __init__(self, task, page_size, owner):
        self.task = task
        self.page_size = page_size
        self.owner = owner
        self.bytes_used = 0
        self.pages_held = 0
        task.register_consumer(owner, owner.depth)

    def _pages_for(self, n_bytes):
        """Pages beyond those held that ``n_bytes`` more need."""
        return -(-(self.bytes_used + n_bytes) // self.page_size) - self.pages_held

    def reserve(self, n_bytes):
        """Account ``n_bytes`` more if :meth:`Task.reserve` finds room
        under the soft limit; False, with nothing accounted, if not."""
        pages = self._pages_for(n_bytes)
        if pages > 0 and not self.task.reserve(self, pages):
            return False
        self.bytes_used += n_bytes
        return True

    def add(self, n_bytes):
        """Account ``n_bytes`` more past the soft limit (what an owner that
        degraded still holds); raises past the hard limit."""
        pages = self._pages_for(n_bytes)
        if pages > 0:
            self.task.allocate(self, pages)
        self.bytes_used += n_bytes

    def remove(self, n_bytes):
        self.bytes_used = max(0, self.bytes_used - n_bytes)
        surplus = -self._pages_for(0)
        if surplus > 0:
            self.task.release(self, surplus)

    def release_all(self):
        """Give every page back and unregister the owner."""
        self.bytes_used = 0
        if self.pages_held:
            self.task.release(self, self.pages_held)
        self.task.unregister_consumer(self.owner)


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

    @classmethod
    def for_context(cls, ctx, row_bytes_estimate):
        """A spill file on ``ctx``'s temp file, under its fault plan and
        scheduler yield hook."""
        return cls(
            ctx.temp_file, row_bytes_estimate, ctx.pool.page_size,
            fault_plan=ctx.fault_plan, yield_hook=ctx.yield_hook,
        )

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
    """A nested-loop join's inner input, a memory consumer at ``depth``:
    rows stay in work memory until the task finds no room for one, then
    every later row goes to the temp file."""

    memory = None  # read by the registration in ``__init__``

    def __init__(self, ctx, depth, row_bytes_estimate=64):
        self.ctx = ctx
        self.depth = depth
        self.row_bytes = row_bytes_estimate
        self._in_memory = []
        self._spill = None
        self._sealed = False
        self.memory = WorkMemory(ctx.task, ctx.pool.page_size, self)

    @property
    def memory_pages(self):
        return self.memory.pages_held if self.memory is not None else 0

    def relinquish_memory(self):
        """Declined: buffered rows keep their place ahead of the spilled
        ones."""
        return 0

    def append(self, row):
        if self._sealed:
            raise ExecutionError("buffer already sealed")
        if self._spill is None and not self.memory.reserve(self.row_bytes):
            self._spill = SpillFile.for_context(self.ctx, self.row_bytes)
        if self._spill is not None:
            self._spill.append(row)
        else:
            self._in_memory.append(row)

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
