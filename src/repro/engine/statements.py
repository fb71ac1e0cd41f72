"""Prepared statements: a repeated text is parsed and bound once.

Section 4.1 asks that optimization of a simple statement be cheap; the
parse and bind in front of it are pure overhead for a text the server
has seen before.  :class:`StatementCache` maps the exact text (plus the
procedure parameter names a CALL body binds against) and the catalog's
generation to the statement's parse tree and bound form.  Every engine
parse and bind goes through :meth:`StatementCache.prepare`.

The bound form is *shared*, never copied: the binder annotates parse-tree
nodes in place, so a cached tree is bound exactly once, and nothing after
the binder writes into either (under the sanitizers each hit re-checks
that against a fingerprint taken when the entry was cached).  Any DDL
bumps :attr:`Catalog.generation`, so a form bound against a dropped table
or index is never found again.  A statement with a recursive CTE is not
cached: its executor re-binds the recursive arm through the statement's
own binder, whose quantifier-id counter must start where a fresh bind
left it.
"""

import collections

from repro.sql import Binder, ast, parse_statement
from repro.sql.binder import bound_fingerprint

#: Cached statements per server (LRU beyond this): about 2.8 KB each
#: for a point SELECT.
CAPACITY = 1024

#: Statement kinds that have a bound form.
_BINDS = (
    ast.SelectStatement, ast.InsertStatement, ast.UpdateStatement,
    ast.DeleteStatement,
)


class Prepared:
    """One statement text, parsed and (when it binds) bound.

    ``binder`` is kept only for a statement whose recursive arm the
    executor re-binds; a bind error is kept too and raised by
    :attr:`bound`, where the caller would have bound the tree itself.
    """

    __slots__ = ("tree", "_bound", "_error", "binder", "fingerprint")

    def __init__(self, tree, bound=None, error=None, binder=None):
        self.tree = tree
        self._bound = bound
        self._error = error
        self.binder = binder
        self.fingerprint = None

    @property
    def bound(self):
        if self._error is not None:
            raise self._error
        return self._bound


class StatementCache:
    """One server's prepared statements, keyed against its catalog."""

    def __init__(self, catalog, metrics, sanitize=False):
        self.catalog = catalog
        self.sanitize = sanitize
        self._entries = collections.OrderedDict()
        self._m_hits = metrics.counter("statements.cache_hits")
        self._m_misses = metrics.counter("statements.cache_misses")

    def __len__(self):
        return len(self._entries)

    def prepare(self, sql, procedure_params=None):
        """The :class:`Prepared` form of ``sql``: cached, or parsed (a
        parse error raises here) and bound now."""
        key = (sql, procedure_params, self.catalog.generation)
        prepared = self._entries.get(key)
        if prepared is not None:
            self._entries.move_to_end(key)
            self._m_hits.inc()
            if self.sanitize:
                self._check_unchanged(sql, prepared)
            return prepared
        self._m_misses.inc()
        tree = parse_statement(sql)
        if not isinstance(tree, _BINDS):
            prepared = Prepared(tree)
        else:
            binder = Binder(self.catalog, procedure_params=procedure_params)
            try:
                bound = binder.bind(tree)
            except Exception as exc:
                # Whatever the bind raised is raised again where the
                # caller takes the bound form, after the statement is
                # counted, as it was before binding moved here.
                return Prepared(tree, error=exc)
            if binder.binds_recursive_arms:
                return Prepared(tree, bound, binder=binder)
            prepared = Prepared(tree, bound)
        if self.sanitize:
            prepared.fingerprint = bound_fingerprint(
                (prepared.tree, prepared._bound)
            )
        self._entries[key] = prepared
        if len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
        return prepared

    @staticmethod
    def _check_unchanged(sql, prepared):
        if bound_fingerprint((prepared.tree, prepared._bound)) != (
            prepared.fingerprint
        ):
            from repro.analysis.sanitizers import BoundFormError

            raise BoundFormError(
                "the cached parse tree or bound form of %r changed after "
                "it was cached" % (sql,)
            )
