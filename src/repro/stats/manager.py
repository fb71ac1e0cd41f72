"""The statistics manager: wiring execution feedback into column stats.

Histograms are created automatically when data is bulk-loaded
(``LOAD TABLE``), when an index is created, or on ``CREATE STATISTICS``;
after that, (almost) every predicate evaluated over a base column during
query execution updates the column's statistics, and INSERT / UPDATE /
DELETE maintain them incrementally (paper Section 3.2).
"""

from repro.common.hashing import SHORT_STRING_MAX
from repro.stats.histogram import ColumnHistogram
from repro.stats.procstats import ProcedureStats
from repro.stats.stringstats import StringStatistics


class ColumnStats:
    """Statistics holder for one column: histogram and/or string stats."""

    def __init__(self, column):
        self.column = column
        self.histogram = None
        self.string_stats = None
        self.built_by = None  # 'load' | 'create-statistics' | 'feedback'

    @property
    def uses_string_infrastructure(self):
        """Long string/binary columns use the predicate-bucket machinery."""
        if self.column.type_name == "LONG VARCHAR":
            return True
        return (
            self.column.type_name == "VARCHAR"
            and (self.column.declared_length or 0) > SHORT_STRING_MAX
        )


class StatisticsManager:
    """All statistics of one database."""

    def __init__(self, catalog):
        self.catalog = catalog
        self._columns = {}  # (table_name, column_index) -> ColumnStats

    # ------------------------------------------------------------------ #
    # lookup / lazy creation
    # ------------------------------------------------------------------ #

    def column_stats(self, table_name, column_index, create=False):
        key = (table_name, column_index)
        stats = self._columns.get(key)
        if stats is None and create:
            table = self.catalog.table(table_name)
            stats = ColumnStats(table.columns[column_index])
            self._columns[key] = stats
            table.column_stats[column_index] = stats
        return stats

    def histogram(self, table_name, column_index):
        stats = self.column_stats(table_name, column_index)
        return stats.histogram if stats is not None else None

    def string_stats(self, table_name, column_index, create=False):
        stats = self.column_stats(table_name, column_index, create=create)
        if stats is None:
            return None
        if stats.string_stats is None and create:
            stats.string_stats = StringStatistics()
        return stats.string_stats

    def procedure_stats(self, procedure_name):
        procedure = self.catalog.procedure(procedure_name)
        if procedure.stats is None:
            procedure.stats = ProcedureStats()
        return procedure.stats

    # ------------------------------------------------------------------ #
    # bulk builds
    # ------------------------------------------------------------------ #

    def build_statistics(self, table_name, column_names=None, built_by="create-statistics"):
        """Build histograms by scanning the table (LOAD TABLE / CREATE
        STATISTICS / CREATE INDEX path)."""
        table = self.catalog.table(table_name)
        if column_names is None:
            indexes = list(range(len(table.columns)))
        else:
            indexes = [table.column_index(name) for name in column_names]
        rows = [row for __, row in table.storage.scan()] if table.storage else []
        for index in indexes:
            stats = self.column_stats(table_name, index, create=True)
            values = [row[index] for row in rows]
            if stats.uses_string_infrastructure:
                stats.string_stats = StringStatistics()
                for value in values:
                    stats.string_stats.observe_value(value)
            else:
                stats.histogram = ColumnHistogram.build(
                    stats.column.type_name, values
                )
            stats.built_by = built_by
        return indexes

    # ------------------------------------------------------------------ #
    # feedback from query execution
    # ------------------------------------------------------------------ #

    def feedback_eq(self, table_name, column_index, value, matched, scanned,
                    table_rows):
        """An equality predicate was evaluated against ``scanned`` base
        rows and matched ``matched`` of them."""
        stats = self.column_stats(table_name, column_index, create=True)
        if stats.uses_string_infrastructure:
            stats.string_stats = stats.string_stats or StringStatistics()
            if scanned:
                stats.string_stats.observe_predicate(
                    "=", str(value), matched / scanned
                )
            return
        histogram = self._ensure_histogram(stats, table_rows)
        histogram.note_table_total(table_rows)
        observed_count = self._scale(matched, scanned, table_rows)
        histogram.feedback_eq(value, observed_count)

    def feedback_range(self, table_name, column_index, low, high, matched,
                       scanned, table_rows, low_inclusive=True,
                       high_inclusive=True):
        stats = self.column_stats(table_name, column_index, create=True)
        if stats.uses_string_infrastructure:
            return
        histogram = self._ensure_histogram(stats, table_rows)
        histogram.note_table_total(table_rows)
        observed_count = self._scale(matched, scanned, table_rows)
        histogram.feedback_range(
            low, high, observed_count, low_inclusive, high_inclusive
        )

    def feedback_null(self, table_name, column_index, matched, scanned,
                      table_rows):
        stats = self.column_stats(table_name, column_index, create=True)
        if stats.uses_string_infrastructure:
            return
        histogram = self._ensure_histogram(stats, table_rows)
        histogram.note_table_total(table_rows)
        histogram.feedback_null(self._scale(matched, scanned, table_rows))

    def feedback_like(self, table_name, column_index, pattern, matched,
                      scanned, table_rows):
        stats = self.column_stats(table_name, column_index, create=True)
        selectivity = (matched / scanned) if scanned else 0.0
        string_stats = stats.string_stats or StringStatistics()
        stats.string_stats = string_stats
        string_stats.observe_predicate("LIKE", pattern, selectivity)

    def _ensure_histogram(self, stats, table_rows):
        if stats.histogram is None:
            stats.histogram = ColumnHistogram(stats.column.type_name)
            stats.built_by = stats.built_by or "feedback"
        return stats.histogram

    @staticmethod
    def _scale(matched, scanned, table_rows):
        """Scale an observation on ``scanned`` rows up to the table."""
        if scanned <= 0:
            return 0.0
        return matched * (table_rows / scanned)

    # ------------------------------------------------------------------ #
    # DML maintenance
    # ------------------------------------------------------------------ #

    def note_insert(self, table_name, row):
        for (t_name, index), stats in self._columns.items():
            if t_name != table_name:
                continue
            if stats.histogram is not None:
                stats.histogram.note_insert(row[index])
            if stats.string_stats is not None:
                stats.string_stats.observe_value(row[index])

    def note_delete(self, table_name, row):
        for (t_name, index), stats in self._columns.items():
            if t_name != table_name:
                continue
            if stats.histogram is not None:
                stats.histogram.note_delete(row[index])

    def note_update(self, table_name, old_row, new_row):
        self.note_delete(table_name, old_row)
        self.note_insert(table_name, new_row)
