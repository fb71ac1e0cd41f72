"""The environment-row shape the operator tree no longer uses, kept for
the test references.

Before rows below Project became flat tuples under a layout, the
row-at-a-time operators traded environment dicts (``{qid: row_tuple}``)
and re-packed them into batches with ``BatchBuilder``.  The differential
references under ``tests/exec/`` (``RowPathHashJoinOp``,
``RowPathSortOp``, ``RowAtATimeGroupByOp``, the env-path joins) are
written in that shape; this module is what they pack and unpack with.
"""

from itertools import chain

from repro.exec.batch import DEFAULT_BATCH_ROWS, Batch, env_of, layout_of
from repro.exec.spill import ROW_OVERHEAD_BYTES, VALUE_BYTES


def env_rows(batch):
    """A batch's rows as environment dicts (result tuples when
    ``layout is None``), in order."""
    layout = batch.layout
    if layout is None:
        return list(batch.flat_rows())
    if len(layout) == 1:
        key = layout[0][0]
        return [{key: row} for row in batch.flat_rows()]
    return [env_of(layout, row) for row in batch.flat_rows()]


def env_at(batch, index):
    """Row ``index`` of a batch as an environment dict."""
    return env_of(batch.layout, batch.flat_rows()[index])


def from_envs(envs):
    """Pack environment dicts (all sharing one key/width shape)."""
    layout = layout_of([(key, len(row)) for key, row in envs[0].items()])
    keys = [key for key, __, __w in layout]
    rows = [
        tuple(chain.from_iterable(map(env.__getitem__, keys)))
        for env in envs
    ]
    return Batch.from_flat_rows(layout, rows)


class BatchBuilder:
    """Accumulates rows (dict or tuple shape) into full batches.

    Consecutive rows sharing a layout signature pack together; a shape
    change or a full buffer flushes."""

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
        return from_envs(rows)


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
        yield from env_rows(batch)


def null_extend(env, quantifiers):
    """Left-outer NULL extension for the null-supplied side."""
    extended = dict(env)
    for quantifier in quantifiers:
        extended[quantifier.id] = (None,) * max(1, len(quantifier.columns))
    return extended


def env_row_bytes(env):
    """Estimated bytes of one environment row."""
    total = ROW_OVERHEAD_BYTES
    for row in env.values():
        try:
            total += VALUE_BYTES * len(row)
        except TypeError:
            total += VALUE_BYTES
    return total
