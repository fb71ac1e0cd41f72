"""Column-major batches, the unit every operator produces.

A batch stores rows column-major: one flat list of columns, with a
*layout* mapping each environment key (quantifier id, or ``GROUP_ENV``)
to its column span.  Vectorized code reads whole columns with zero
per-row dict lookups; code that works a row at a time (nested-loop join
emission, spill files, sort runs) unpacks with :meth:`Batch.rows` /
:meth:`Batch.env_at` and re-packs with :func:`rows_to_batches`.
:func:`batches_to_rows` is the boundary above the operator tree, where
result tuples leave the engine.

Two row shapes flow through the engine and both are supported: dict
environments (``{qid: row_tuple}``) below Project, and plain tuples from
Project upward (``layout is None``).
"""

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
    ``i`` lives in ``columns[offset + i]``.  ``layout is None`` means the
    rows are plain tuples of ``len(columns)`` values (post-Project).
    """

    __slots__ = ("layout", "columns", "count")

    def __init__(self, layout, columns, count):
        self.layout = layout
        self.columns = columns
        self.count = count

    # -- construction --------------------------------------------------- #

    @classmethod
    def from_envs(cls, envs):
        """Pack environment dicts (all sharing one key/width shape)."""
        layout = layout_of(
            [(key, len(row)) for key, row in envs[0].items()]
        )
        columns = [
            [env[key][index] for env in envs]
            for key, __, width in layout
            for index in range(width)
        ]
        return cls(layout, columns, len(envs))

    @classmethod
    def from_tuples(cls, rows, width):
        """Pack plain result tuples (the post-Project shape)."""
        if width:
            columns = [[row[i] for row in rows] for i in range(width)]
        else:
            columns = []
        return cls(None, columns, len(rows))

    @classmethod
    def from_rows(cls, key, rows):
        """Pack a non-empty list of same-width row tuples as the rows of
        one environment key (a scan's quantifier)."""
        columns = [list(column) for column in zip(*rows)]
        return cls(((key, 0, len(columns)),), columns, len(rows))

    @classmethod
    def from_columns(cls, layout, columns, count):
        """Wrap pre-built columns (the vectorized operators' fast path)."""
        return cls(layout, columns, count)

    def as_quantifier(self, key):
        """This tuple-shaped batch's columns as the rows of environment
        key ``key`` (a sub-plan's output seen through its quantifier)."""
        return Batch(((key, 0, len(self.columns)),), self.columns, self.count)

    # -- columnar access ------------------------------------------------ #

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
                return self.columns[offset + index]
        return None

    # -- row access ----------------------------------------------------- #

    def rows(self):
        """Unpack into environment dicts (or result tuples), in order."""
        if self.layout is None:
            yield from zip(*self.columns) if self.columns else (
                () for __ in range(self.count)
            )
            return
        for index in range(self.count):
            yield self.env_at(index)

    def env_at(self, index):
        """Materialize row ``index`` as an environment dict."""
        columns = self.columns
        return {
            key: tuple(
                columns[offset + i][index] for i in range(width)
            )
            for key, offset, width in self.layout
        }

    # -- transformations ------------------------------------------------ #

    def take(self, mask):
        """Rows where ``mask`` is true, as a new batch (same layout)."""
        columns = [
            [value for value, keep in zip(column, mask) if keep]
            for column in self.columns
        ]
        count = columns[0].__len__() if columns else sum(
            1 for keep in mask if keep
        )
        return Batch(self.layout, columns, count)

    def slice(self, start, stop):
        columns = [column[start:stop] for column in self.columns]
        count = max(0, min(stop, self.count) - start)
        return Batch(self.layout, columns, count)


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
