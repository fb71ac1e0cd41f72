"""Prepared statements: a statement shape is parsed and bound once.

Section 4.1 asks that optimization of a simple statement be cheap; the
parse and bind in front of it are pure overhead for a statement the
server has seen before — and an OLTP client sends one statement again
and again with new constants.  :class:`StatementCache` keys a SELECT,
INSERT, UPDATE or DELETE on its *shape* (its text with each number and
string literal replaced by its kind, :func:`~repro.sql.lexer.
literal_shape`) and the catalog's generation.  The shape's first text is
parsed with those literals lifted into :class:`~repro.sql.ast.Slot`
parameters and bound once; every text of the shape runs on that form
with its own literal values as its parameters (``Prepared.values``),
which the optimizer's estimator reads as the literals
(``make_optimizer(slots=...)``), so every estimate, plan and charge is
the literal text's.  Any other text — one given parameters or holding a
``?``, a procedure body, another kind of statement, a literal read
outside an expression (``LIMIT n``, ``DATE '...'``), a shape whose
lifted form does not bind or has a recursive CTE — is keyed on its exact
text (plus the procedure parameter names a CALL body binds against),
and only a text that starts with one of the four keywords has its shape
looked up.  A statement that changes the catalog is not remembered: it
bumps the generation it would be keyed under.  Every engine parse and
bind goes through :meth:`StatementCache.prepare`.

The bound form is *shared*, never copied: the binder annotates parse-tree
nodes in place, so a cached tree is bound exactly once, and nothing after
the binder writes into either (under the sanitizers each hit re-checks
that against a fingerprint taken when the entry was cached, and a shape
hit also parses and binds its own text to check that the shared form,
read with its values, is the text's).  Any DDL bumps
:attr:`Catalog.generation`, so a form bound against a dropped table or
index is never found again.  A statement with a recursive CTE is not
cached: its executor re-binds the recursive arm through the statement's
own binder, whose quantifier-id counter must start where a fresh bind
left it.
"""

import collections

from repro.sql import Binder, ast, parse_statement
from repro.sql.binder import bound_fingerprint
from repro.sql.lexer import literal_shape
from repro.sql.parser import LIFTS

#: Cached statements and shapes per server (LRU beyond this): about
#: 2.8 KB each for a point SELECT.
CAPACITY = 1024

#: Statement kinds that have a bound form.
_BINDS = (
    ast.SelectStatement, ast.InsertStatement, ast.UpdateStatement,
    ast.DeleteStatement,
)

#: Statements that bump :attr:`Catalog.generation` when they run.
_CHANGES_CATALOG = (
    ast.CreateTableStatement, ast.CreateIndexStatement,
    ast.CreateProcedureStatement, ast.DropTableStatement,
    ast.DropIndexStatement,
)

#: The second part of a shape's key (a text's is its procedure parameter
#: names or None).
_SHAPE = object()

#: The entry of a shape whose texts are each keyed on their own text.
_TEXT_KEYED = object()


class Prepared:
    """One statement text, parsed and (when it binds) bound.

    ``binder`` is kept only for a statement whose recursive arm the
    executor re-binds; a bind error is kept too and raised by
    :attr:`bound`, where the caller would have bound the tree itself.
    ``values`` are a shape's literal values for this text (its
    parameters), None for a text keyed on itself.
    """

    __slots__ = ("tree", "_bound", "_error", "binder", "fingerprint",
                 "values")

    def __init__(self, tree, bound=None, error=None, binder=None,
                 values=None):
        self.tree = tree
        self._bound = bound
        self._error = error
        self.binder = binder
        self.fingerprint = None
        self.values = values

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

    def prepare(self, sql, procedure_params=None, lift=True):
        """The :class:`Prepared` form of ``sql``: cached by its shape or
        its text, or parsed (a parse error raises here) and bound now.
        ``lift=False`` keys the text on itself (its caller gives it
        parameters)."""
        shape = None
        # All four keywords have six letters.
        if lift and procedure_params is None and (
            sql.lstrip()[:6].upper() in LIFTS
        ):
            shape = literal_shape(sql)
        if shape is not None:
            text, values = shape
            key = (text, _SHAPE, self.catalog.generation)
            shared = self._entries.get(key)
            if shared is None:
                self._m_misses.inc()
                shared = self._prepare_shape(sql, key)
                if shared is None:
                    prepared = self._prepare_text(sql, None, count=False)
                    if prepared._error is None and prepared.binder is None:
                        self._remember(key, _TEXT_KEYED)
                    return prepared
                return Prepared(shared.tree, shared._bound, values=values)
            self._entries.move_to_end(key)
            if shared is not _TEXT_KEYED:
                self._m_hits.inc()
                if self.sanitize:
                    self._check_unchanged(sql, shared)
                    self._check_shape(sql, shared, values)
                return Prepared(shared.tree, shared._bound, values=values)
        return self._prepare_text(sql, procedure_params)

    def _prepare_shape(self, sql, key):
        """Parse ``sql`` with its literals lifted and bind it once for its
        shape; None when the shape does not lift (its texts are then
        keyed on themselves)."""
        tree = parse_statement(sql, lift=True)
        if tree is None:
            return None
        binder = Binder(self.catalog)
        try:
            bound = binder.bind(tree)
        except Exception:  # noqa: BLE001
            # The text binds as itself, and raises its own bind error
            # from there if it has one.
            return None
        if binder.binds_recursive_arms:
            return None
        shared = Prepared(tree, bound)
        if self.sanitize:
            shared.fingerprint = bound_fingerprint((tree, bound))
        self._remember(key, shared)
        return shared

    def _prepare_text(self, sql, procedure_params, count=True):
        """``sql`` keyed on its text (``count=False``: the lookup is
        already counted, as its shape's miss)."""
        key = (sql, procedure_params, self.catalog.generation)
        prepared = self._entries.get(key)
        if prepared is not None:
            self._entries.move_to_end(key)
            if count:
                self._m_hits.inc()
            if self.sanitize:
                self._check_unchanged(sql, prepared)
            return prepared
        if count:
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
        if isinstance(tree, _CHANGES_CATALOG):
            return prepared
        if self.sanitize:
            prepared.fingerprint = bound_fingerprint(
                (prepared.tree, prepared._bound)
            )
        self._remember(key, prepared)
        return prepared

    def _remember(self, key, entry):
        self._entries[key] = entry
        if len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)

    @staticmethod
    def _check_unchanged(sql, prepared):
        if bound_fingerprint((prepared.tree, prepared._bound)) != (
            prepared.fingerprint
        ):
            _bound_form_error(
                "the cached parse tree or bound form of %r changed after "
                "it was cached" % (sql,)
            )

    def _check_shape(self, sql, prepared, values):
        """``sql`` parsed and bound as itself must give the shared form
        with its slots read as ``values``."""
        tree = parse_statement(sql)
        try:
            own = bound_fingerprint((tree, Binder(self.catalog).bind(tree)))
        except Exception as exc:  # noqa: BLE001 — reported below
            own = exc
        if own != bound_fingerprint((prepared.tree, prepared._bound), values):
            _bound_form_error(
                "%r does not parse and bind to its shape's shared form "
                "(%s)" % (sql, own if isinstance(own, Exception) else
                          "the forms differ")
            )


def _bound_form_error(message):
    from repro.analysis.sanitizers import BoundFormError

    raise BoundFormError(message)
