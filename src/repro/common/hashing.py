"""Value coding for the statistics subsystem (paper Section 3.1).

SQL Anywhere funnels every short data type through one histogram
infrastructure by way of an *order-preserving hash* whose range is a
double-precision float:

* numeric types (including date/time) hash to their float value;
* short strings hash to an integer built from the binary values of their
  leading characters;
* each type has a *value width* — the distance between two consecutive
  domain values — used to keep the hashed domain discrete.

Long strings use a separate, *non* order-preserving hash
(:func:`string_hash`) because their buckets key on (hash, predicate) pairs
rather than on range boundaries.
"""

import datetime
import zlib

#: Number of leading characters folded into the order-preserving string
#: hash.  Eight bytes saturate a double's 53-bit mantissa, mirroring the
#: paper's "integer value representing the binary values of characters".
_STRING_PREFIX_CHARS = 7

#: Strings longer than this use the long-string (predicate-cache) statistics
#: infrastructure instead of ordinary histograms.
SHORT_STRING_MAX = 64

_EPOCH = datetime.date(1970, 1, 1)


def order_preserving_hash(value):
    """Map ``value`` to a float such that ordering is preserved per type.

    ``None`` is not hashable here; NULLs are tracked separately by the
    histograms (via Is Null frequent-value statistics).
    """
    if value is None:
        raise ValueError("NULL has no order-preserving hash; track it separately")
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.datetime):
        return value.timestamp()
    if isinstance(value, datetime.date):
        return float((value - _EPOCH).days)
    if isinstance(value, str):
        return _string_order_hash(value)
    if isinstance(value, (bytes, bytearray)):
        return _bytes_order_hash(bytes(value))
    raise TypeError("unsupported type for order-preserving hash: %r" % (type(value),))


def _string_order_hash(text):
    """Pack the first few characters into an integer, then widen to float."""
    return _bytes_order_hash(text.encode("utf-8", errors="replace"))


def _bytes_order_hash(data):
    acc = 0
    prefix = data[:_STRING_PREFIX_CHARS]
    for byte in prefix:
        acc = (acc << 8) | byte
    # Left-justify so that short strings compare correctly against longer
    # ones sharing the prefix ("ab" < "abc").
    acc <<= 8 * (_STRING_PREFIX_CHARS - len(prefix))
    return float(acc)


def string_hash(text):
    """Non order-preserving 32-bit hash for long string/binary statistics."""
    if isinstance(text, str):
        data = text.encode("utf-8", errors="replace")
    else:
        data = bytes(text)
    return zlib.crc32(data) & 0xFFFFFFFF


#: Column types whose values (int, float, bool) hash the same in every
#: process; ``str`` / ``bytes`` hashes are salted per process
#: (``PYTHONHASHSEED``), and so is ``datetime.date`` (it hashes its bytes).
_UNSALTED_TYPES = frozenset(("INT", "DOUBLE", "BOOLEAN"))


def stable_hash(key):
    """``hash(key)`` without anything that differs between processes:
    ``str`` / ``bytes`` parts (alone or inside tuples) go through crc32,
    dates through their ordinal, and ``None`` (hashed by address before
    Python 3.12) is 0 — so hash-bucket and join-partition placement, and
    with it pool misses and simulated time, is the same under every
    ``PYTHONHASHSEED``.  Everything else keeps ``hash()``, so equal keys
    (``1 == 1.0``) still collide."""
    if isinstance(key, (str, bytes)):
        return string_hash(key)
    if isinstance(key, tuple):
        return hash(tuple([stable_hash(part) for part in key]))
    if key is None:
        return 0
    if isinstance(key, datetime.date):
        return key.toordinal()
    return hash(key)


def hash_for_types(type_names):
    """The cheapest process-independent hash for NULL-free keys of these
    column types: plain ``hash`` when no part can be salted,
    :func:`stable_hash` otherwise (or when a type is unknown).  A key
    holding a NULL always needs :func:`stable_hash`."""
    if all(name in _UNSALTED_TYPES for name in type_names):
        return hash
    return stable_hash


def value_width(type_name):
    """Distance between two consecutive domain values of a type.

    The paper gives INT -> 1 and REAL -> 1e-35 as examples; dates step in
    whole days and timestamps in (fractional) seconds.  Strings step by one
    unit of the order-preserving hash's least significant byte position.
    """
    widths = {
        "INT": 1.0,
        "INTEGER": 1.0,
        "BIGINT": 1.0,
        "SMALLINT": 1.0,
        "BOOLEAN": 1.0,
        "REAL": 1e-35,
        "DOUBLE": 1e-35,
        "FLOAT": 1e-35,
        "DECIMAL": 1e-35,
        "NUMERIC": 1e-35,
        "DATE": 1.0,
        "TIME": 1.0,
        "TIMESTAMP": 1e-6,
        "VARCHAR": 1.0,
        "CHAR": 1.0,
        "BINARY": 1.0,
        "LONG VARCHAR": 1.0,
    }
    try:
        return widths[type_name.upper()]
    except KeyError:
        raise ValueError("unknown type name %r" % (type_name,)) from None


def word_tokens(text):
    """Split ``text`` into 'words' for LIKE word-bucket statistics.

    The paper defines a word loosely as "any sequence of characters
    separated by any amount of white space".
    """
    return [token for token in text.split() if token]
