"""Column-major batches, the unit every operator produces.

A batch is read column-major: one flat list of columns, with a *layout*
mapping each environment key (quantifier id, or ``GROUP_ENV``) to its
column span.  A column is built when something first reads it: a scan's
batch keeps its row tuples and a hash join's keeps its pieces until a
consumer asks for a column (:meth:`Batch.column`), the row tuples
(:meth:`Batch.flat_rows`) or environments (:meth:`Batch.rows` /
:meth:`Batch.env_at`), and builds only that.  Vectorized code reads
whole columns with zero per-row dict lookups; code that works a row at
a time (nested-loop join emission, spill files) unpacks with
:meth:`Batch.rows` and re-packs with :func:`rows_to_batches`.
:func:`batches_to_rows` is the boundary above the operator tree, where
result tuples leave the engine.

Two row shapes flow through the engine and both are supported: dict
environments (``{qid: row_tuple}``) below Project, and plain tuples from
Project upward (``layout is None``).
"""

from itertools import chain, compress
from operator import itemgetter

#: Rows per batch.  Large enough to amortize interpreter overhead,
#: small enough that a batch never dominates an operator's memory.
DEFAULT_BATCH_ROWS = 256


def layout_of(shape):
    """The layout of rows whose environments hold ``shape``'s
    ``(key, width)`` pairs, in that order."""
    layout = []
    offset = 0
    for key, width in shape:
        layout.append((key, offset, width))
        offset += width
    return tuple(layout)


def concat_layouts(left, right):
    """The layout of ``{**left_env, **right_env}`` rows."""
    return layout_of(
        [(key, width) for key, __, width in left]
        + [(key, width) for key, __, width in right]
    )


def env_of(layout, values):
    """One row's flat ``values`` under ``layout`` as an environment dict."""
    return {
        key: values[offset:offset + width] for key, offset, width in layout
    }


class Batch:
    """A column-major slab of rows sharing one environment layout.

    ``layout`` is a tuple of ``(key, offset, width)`` triples: the rows'
    environment dicts all had exactly these keys, and key ``k``'s column
    ``i`` is flat column ``offset + i``.  ``layout is None`` means the
    rows are plain tuples (post-Project).

    A column is built when something first reads it (late
    materialisation).  A batch holds, besides the columns built so far,
    at most one source of the others: its rows as flat value tuples
    (:meth:`from_rows`, the scans' form), or a *source* object with
    ``column(position)`` and ``flat_rows()`` (the hash join's pieces).
    Every reader goes through :meth:`column`, :meth:`flat_rows`,
    :meth:`rows` or :meth:`env_at`, which build only what they return;
    :attr:`columns` builds them all.  A column is None only while the
    row tuples or the source can still build it.
    """

    __slots__ = ("layout", "count", "_columns", "_rows", "_source")

    def __init__(self, layout, columns, count, rows=None, source=None):
        self.layout = layout
        self.count = count
        #: One entry per flat column: the list, or None until built.
        self._columns = columns
        self._rows = rows
        self._source = source

    # -- construction --------------------------------------------------- #

    @classmethod
    def from_envs(cls, envs):
        """Pack environment dicts (all sharing one key/width shape)."""
        layout = layout_of(
            [(key, len(row)) for key, row in envs[0].items()]
        )
        if len(layout) == 1:
            key = layout[0][0]
            rows = [env[key] for env in envs]
        else:
            keys = [key for key, __, __w in layout]
            rows = [
                tuple(chain.from_iterable(map(env.__getitem__, keys)))
                for env in envs
            ]
        return cls.from_flat_rows(layout, rows)

    @classmethod
    def from_tuples(cls, rows, width):
        """Pack plain result tuples (the post-Project shape)."""
        return cls(None, [None] * width, len(rows), rows=rows)

    @classmethod
    def from_rows(cls, key, rows):
        """Pack a non-empty list of same-width row tuples as the rows of
        one environment key (a scan's quantifier).  The list is kept, not
        copied: its producer must not change it afterwards."""
        width = len(rows[0])
        return cls(((key, 0, width),), [None] * width, len(rows), rows=rows)

    @classmethod
    def from_flat_rows(cls, layout, rows):
        """Wrap flat value tuples laid out under ``layout`` (kept, not
        copied)."""
        width = sum(width for __, __o, width in layout)
        return cls(layout, [None] * width, len(rows), rows=rows)

    @classmethod
    def from_source(cls, layout, width, count, source):
        """A batch whose ``width`` columns ``source`` builds on demand."""
        return cls(layout, [None] * width, count, source=source)

    @classmethod
    def from_columns(cls, layout, columns, count):
        """Wrap pre-built columns (the vectorized operators' fast path)."""
        return cls(layout, columns, count)

    def as_quantifier(self, key):
        """This tuple-shaped batch's columns as the rows of environment
        key ``key`` (a sub-plan's output seen through its quantifier).
        The two batches share their columns: one builds, both see it."""
        return Batch(
            ((key, 0, len(self._columns)),), self._columns, self.count,
            self._rows, self._source,
        )

    # -- columnar access ------------------------------------------------ #

    @property
    def columns(self):
        """Every column, built: what a reader of all of them sees."""
        columns = self._columns
        for position, column in enumerate(columns):
            if column is None:
                self._build_column(position)
        return columns

    def column(self, key, index):
        """The column list for environment key ``key``, position ``index``.

        The returned list is the batch's own storage: read-only by
        convention.  Returns ``None`` when the key is absent (the caller
        raises ``evaluate``'s exact error).
        """
        for entry_key, offset, width in self.layout:
            if entry_key == key:
                if index >= width:
                    # ``evaluate`` raises IndexError from the row tuple.
                    raise IndexError("column index out of range")
                column = self._columns[offset + index]
                if column is None:
                    column = self._build_column(offset + index)
                return column
        return None

    def _build_column(self, position):
        rows = self._rows
        if rows is not None:
            column = list(map(itemgetter(position), rows))
        else:
            column = self._source.column(position)
        self._columns[position] = column
        return column

    # -- row access ----------------------------------------------------- #

    def flat_rows(self):
        """Each row's values as one flat tuple in layout order, as a
        list (read-only: it may be the producer's own)."""
        rows = self._rows
        if rows is None:
            if self._source is not None:
                rows = self._source.flat_rows()
                self._source = None
            elif self._columns:
                rows = list(zip(*self._columns))
            else:
                rows = [()] * self.count
            self._rows = rows
        return rows

    def rows(self):
        """Unpack into environment dicts (or result tuples), in order."""
        layout = self.layout
        if layout is None:
            yield from self.flat_rows()
        elif len(layout) == 1:
            key = layout[0][0]
            for row in self.flat_rows():
                yield {key: row}
        else:
            for row in self.flat_rows():
                yield env_of(layout, row)

    def env_at(self, index):
        """Materialize row ``index`` as an environment dict."""
        return env_of(self.layout, self.flat_rows()[index])

    # -- transformations ------------------------------------------------ #

    def take(self, mask):
        """Rows where ``mask`` is true, as a new batch (same layout).
        Row tuples are compressed once; columns not built yet stay so."""
        if self._source is not None:
            self.flat_rows()
        columns = [
            None if column is None else list(compress(column, mask))
            for column in self._columns
        ]
        rows = self._rows
        if rows is not None:
            rows = list(compress(rows, mask))
            return Batch(self.layout, columns, len(rows), rows=rows)
        count = len(columns[0]) if columns else sum(
            1 for keep in mask if keep
        )
        return Batch(self.layout, columns, count)

    def slice(self, start, stop):
        if self._source is not None:
            self.flat_rows()
        columns = [
            None if column is None else column[start:stop]
            for column in self._columns
        ]
        count = max(0, min(stop, self.count) - start)
        rows = self._rows
        return Batch(
            self.layout, columns, count,
            None if rows is None else rows[start:stop],
        )


class BatchBuilder:
    """Accumulates rows (dict or tuple shape) into full batches.

    Consecutive rows sharing a layout signature pack together; a shape
    change or a full buffer flushes.  Usage::

        builder = BatchBuilder(ctx.batch_rows)
        for row in ...:
            batch = builder.add(row)
            if batch is not None:
                yield batch
        tail = builder.finish()
        if tail is not None:
            yield tail
    """

    __slots__ = ("batch_rows", "_rows", "_signature")

    def __init__(self, batch_rows=DEFAULT_BATCH_ROWS):
        self.batch_rows = batch_rows
        self._rows = []
        self._signature = None

    def add(self, row):
        """Buffer one row; returns a completed batch or None."""
        if isinstance(row, dict):
            signature = tuple(
                (key, len(value)) for key, value in row.items()
            )
        else:
            signature = len(row)
        flushed = None
        if self._rows and signature != self._signature:
            flushed = self._flush()
        self._signature = signature
        self._rows.append(row)
        if len(self._rows) >= self.batch_rows:
            # A shape change and a full buffer cannot coincide: the shape
            # flush above emptied the buffer first.
            return self._flush()
        return flushed

    def finish(self):
        """Flush whatever remains; returns a batch or None."""
        if not self._rows:
            return None
        return self._flush()

    def _flush(self):
        rows = self._rows
        self._rows = []
        if isinstance(self._signature, int):
            return Batch.from_tuples(rows, self._signature)
        return Batch.from_envs(rows)


def rows_to_batches(rows, batch_rows=DEFAULT_BATCH_ROWS):
    """Pack a row stream (dicts or tuples) into batches."""
    builder = BatchBuilder(batch_rows)
    for row in rows:
        batch = builder.add(row)
        if batch is not None:
            yield batch
    tail = builder.finish()
    if tail is not None:
        yield tail


def batches_to_rows(batches):
    """Unpack a batch stream into its rows."""
    for batch in batches:
        yield from batch.rows()
