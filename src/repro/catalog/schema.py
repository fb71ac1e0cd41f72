"""Catalog objects: tables, columns, indexes, procedures, options."""

from repro.catalog.types import estimated_value_bytes, normalize_type
from repro.common.errors import CatalogError


class Column:
    """One column of a table."""

    def __init__(self, name, type_name, nullable=True, declared_length=None):
        self.name = name
        self.type_name = normalize_type(type_name)
        self.nullable = nullable
        self.declared_length = declared_length

    def estimated_bytes(self):
        return estimated_value_bytes(self.type_name, self.declared_length)

    def __repr__(self):
        return "Column(%s %s%s)" % (
            self.name,
            self.type_name,
            "" if self.nullable else " NOT NULL",
        )


class ForeignKey:
    """A referential-integrity constraint.

    The statistics subsystem uses these when estimating multi-column join
    selectivity ("a combination of existing referential integrity
    constraints, index statistics, and density values", Section 3.2).
    """

    def __init__(self, columns, ref_table, ref_columns):
        self.columns = tuple(columns)
        self.ref_table = ref_table
        self.ref_columns = tuple(ref_columns)

    def __repr__(self):
        return "ForeignKey(%s -> %s(%s))" % (
            ",".join(self.columns),
            self.ref_table,
            ",".join(self.ref_columns),
        )


class TableSchema:
    """Schema (and runtime hooks) for one base table."""

    def __init__(self, name, columns, primary_key=(), foreign_keys=()):
        self.name = name
        self.columns = list(columns)
        self.primary_key = tuple(primary_key)
        self.foreign_keys = list(foreign_keys)
        self._by_name = {}
        for index, column in enumerate(self.columns):
            if column.name in self._by_name:
                raise CatalogError(
                    "duplicate column %r in table %r" % (column.name, name)
                )
            self._by_name[column.name] = index
        for key_column in self.primary_key:
            if key_column not in self._by_name:
                raise CatalogError(
                    "primary key column %r missing from table %r"
                    % (key_column, name)
                )
        #: Set by the engine: the TableStorage backing this table.
        self.storage = None
        #: Set by the stats manager: per-column statistics holders.
        self.column_stats = {}

    def column_index(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                "no column %r in table %r" % (name, self.name)
            ) from None

    def has_column(self, name):
        return name in self._by_name

    def column(self, name):
        return self.columns[self.column_index(name)]

    def row_bytes(self):
        """Estimated stored width of one row (plus a small row header)."""
        return 8 + sum(column.estimated_bytes() for column in self.columns)

    @property
    def row_count(self):
        return self.storage.row_count if self.storage is not None else 0

    def __repr__(self):
        return "TableSchema(%s: %s)" % (
            self.name,
            ", ".join(column.name for column in self.columns),
        )


class IndexSchema:
    """Schema for one (B+-tree) index."""

    def __init__(self, name, table_name, column_names, unique=False):
        self.name = name
        self.table_name = table_name
        self.column_names = tuple(column_names)
        self.unique = unique
        #: Set by the engine: the BTree instance.
        self.btree = None
        #: True for the Index Consultant's costing-only indexes: no
        #: entries, so every maintenance and verification path skips them.
        self.virtual = False
        #: Positions of the key columns in a table row; resolved by
        #: :meth:`Catalog.add_index`, which attaches the index to its table.
        self.key_positions = None
        #: LSN stamp of the last DML/DDL that touched this index's
        #: entries (observability; fallback decisions use the narrower
        #: per-key state below).
        self.last_dml_lsn = 0
        #: Per-key delete stamps: ``key tuple -> LSN`` of the mutation
        #: that removed the entry.  Only *removals* can blind a snapshot
        #: index scan (an entry inserted after the snapshot is filtered
        #: by the visibility check; an entry deleted after it is simply
        #: gone from the tree), so only keys stamped here — and only when
        #: the stamp postdates the snapshot and the key falls inside the
        #: scan's bounds — force the heap fallback.  Pruned against the
        #: oldest open snapshot by the engine.
        self.delete_stamps = {}
        #: LSN horizon of the last full rebuild (CREATE INDEX, restart
        #: recovery, REORGANIZE): the whole tree reflects this committed
        #: horizon, so snapshots older than it cannot use the index.
        self.rebuild_lsn = 0
        #: Standby mode (replication): the tree is not maintained at all
        #: while shipped WAL is applied heap-only; every snapshot scan
        #: falls back until promotion rebuilds the index.
        self.always_fallback = False

    def key_of(self, row):
        """The index key of one table row."""
        return tuple(row[position] for position in self.key_positions)

    def __repr__(self):
        return "IndexSchema(%s ON %s(%s)%s)" % (
            self.name,
            self.table_name,
            ",".join(self.column_names),
            " UNIQUE" if self.unique else "",
        )


class ProcedureSchema:
    """A stored procedure: a named, parameterized statement.

    Procedures drive two of the paper's mechanisms: per-procedure execution
    statistics (moving averages of CPU time and result cardinality,
    Section 3.2) and the plan cache with its training period (Section 4.1).
    """

    def __init__(self, name, parameters, body_sql):
        self.name = name
        self.parameters = tuple(parameters)
        self.body_sql = body_sql
        #: Set by the stats manager: ProcedureStats.
        self.stats = None

    def __repr__(self):
        return "ProcedureSchema(%s(%s))" % (self.name, ", ".join(self.parameters))


class Catalog:
    """All schema objects of one database."""

    def __init__(self):
        self._tables = {}
        self._indexes = {}
        self._procedures = {}
        #: Server/database options ("incorrect database option settings"
        #: are one of the design flaws Application Profiling detects).
        self.options = {}
        #: The DTT model used by the cost model; set by the engine.
        self.dtt_model = None

    # -- tables ---------------------------------------------------------- #

    def add_table(self, schema):
        if schema.name in self._tables:
            raise CatalogError("table %r already exists" % (schema.name,))
        self._tables[schema.name] = schema
        return schema

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError("no table named %r" % (name,)) from None

    def has_table(self, name):
        return name in self._tables

    def drop_table(self, name):
        self.table(name)  # raises if missing
        del self._tables[name]
        for index_name in [
            index.name for index in self._indexes.values() if index.table_name == name
        ]:
            del self._indexes[index_name]

    def tables(self):
        return list(self._tables.values())

    # -- indexes ---------------------------------------------------------- #

    def add_index(self, schema):
        if schema.name in self._indexes:
            raise CatalogError("index %r already exists" % (schema.name,))
        table = self.table(schema.table_name)  # must exist
        schema.key_positions = tuple(
            table.column_index(name) for name in schema.column_names
        )
        self._indexes[schema.name] = schema
        return schema

    def index(self, name):
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError("no index named %r" % (name,)) from None

    def drop_index(self, name):
        self.index(name)
        del self._indexes[name]

    def indexes_on(self, table_name):
        return [
            index
            for index in self._indexes.values()
            if index.table_name == table_name
        ]

    def indexes(self):
        return list(self._indexes.values())

    # -- procedures ------------------------------------------------------- #

    def add_procedure(self, schema):
        if schema.name in self._procedures:
            raise CatalogError("procedure %r already exists" % (schema.name,))
        self._procedures[schema.name] = schema
        return schema

    def procedure(self, name):
        try:
            return self._procedures[name]
        except KeyError:
            raise CatalogError("no procedure named %r" % (name,)) from None

    def has_procedure(self, name):
        return name in self._procedures

    def procedures(self):
        return list(self._procedures.values())
