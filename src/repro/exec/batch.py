"""Column-major batches, the unit every operator produces.

One row shape flows through the operator tree: a flat value tuple under
its batch's *layout*, which maps each key (quantifier id, or
``GROUP_ENV``) to its span of the tuple — or, from Project upward, a
plain result tuple (``layout is None``).  Expressions are evaluated over
whole batches (:func:`~repro.exec.expr.evaluate_batch`); one row is a
one-row batch.

A batch is read column-major: a column is built when something first
reads it.  A scan's batch keeps its row tuples and a hash join's keeps
its pieces until a consumer asks for a column (:meth:`Batch.column`) or
the row tuples (:meth:`Batch.flat_rows`), and builds only that.  Code
that produces rows one at a time (nested-loop joins, group and merge
emission) hands ``(layout, flat_row)`` pairs to :func:`pack`.
"""

from functools import lru_cache
from itertools import compress
from operator import itemgetter

#: Rows per batch.  Large enough to amortize interpreter overhead,
#: small enough that a batch never dominates an operator's memory.
DEFAULT_BATCH_ROWS = 256


def layout_of(shape):
    """The layout of rows that hold ``shape``'s
    ``(key, width)`` pairs, in that order."""
    layout = []
    offset = 0
    for key, width in shape:
        layout.append((key, offset, width))
        offset += width
    return tuple(layout)


@lru_cache(maxsize=256)
def concat_layouts(left, right):
    """The layout of a ``left`` row followed by a ``right`` row."""
    return layout_of(
        [(key, width) for key, __, width in left]
        + [(key, width) for key, __, width in right]
    )


class Batch:
    """A column-major slab of rows sharing one layout.

    ``layout`` is a tuple of ``(key, offset, width)`` triples: every row
    is one flat value tuple, and key ``k``'s column ``i`` is flat column
    ``offset + i``.  ``layout is None`` means the rows are plain tuples
    (post-Project).

    A column is built when something first reads it (late
    materialisation).  A batch holds, besides the columns built so far,
    at most one source of the others: its rows as flat value tuples
    (:meth:`from_rows`, the scans' form), or a *source* object with
    ``column(position)`` and ``flat_rows()`` (the hash join's pieces,
    also read whole through :meth:`pieces`).
    Every reader goes through :meth:`column` or :meth:`flat_rows`,
    which build only what they return;
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
    def empty_row(cls):
        """One row with no columns: what an expression that reads no row
        (a FROM-less SELECT list, INSERT ... VALUES, CALL arguments) is
        evaluated over."""
        return cls((), [], 1)

    @classmethod
    def from_tuples(cls, rows, width):
        """Pack plain result tuples (the post-Project shape)."""
        return cls(None, [None] * width, len(rows), rows=rows)

    @classmethod
    def from_rows(cls, key, rows):
        """Pack a non-empty list of same-width row tuples as the rows of
        one key (a scan's quantifier).  The list is kept, not
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
        """This tuple-shaped batch's columns as the rows of
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
        """The column list for key ``key``, position ``index``.

        The returned list is the batch's own storage: read-only by
        convention.  Returns ``None`` when the key is absent (the caller
        raises the evaluator's error).
        """
        for entry_key, offset, width in self.layout:
            if entry_key == key:
                if index >= width:
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

    def pieces(self):
        """``(pieces, probe_width)`` when the rows are still a hash join's
        pieces, or None.  A piece ``(row, candidates, start, stop)`` is
        the probe row ``row`` (``probe_width`` flat values) joined to the
        build rows ``candidates[start:stop]``; ``candidates`` is None for
        a semi / anti row.  Read-only, like a column."""
        source = self._source
        return None if source is None else (source.pieces, source.left_width)

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


def pack(rows, batch_rows=DEFAULT_BATCH_ROWS):
    """Pack a stream of ``(layout, flat_row)`` pairs into batches.

    Consecutive rows of one shape — the same layout, or the same width
    when ``layout is None`` — pack together; a batch ends at
    ``batch_rows`` rows or at a change of shape.  A full batch is yielded
    before the next pair is pulled, and a shape change is seen only once
    the first row of the new shape has been pulled: per-batch charges
    downstream depend on exactly these boundaries.
    """
    buffer, shape = [], None
    for layout, row in rows:
        if (layout, len(row)) != shape:
            if buffer:
                yield _packed(shape, buffer)
                buffer = []
            shape = (layout, len(row))
        buffer.append(row)
        if len(buffer) >= batch_rows:
            yield _packed(shape, buffer)
            buffer = []
    if buffer:
        yield _packed(shape, buffer)


def _packed(shape, rows):
    layout, width = shape
    if layout is None:
        return Batch.from_tuples(rows, width)
    return Batch.from_flat_rows(layout, rows)
