"""SQL tokenizer."""

import datetime
import re

from repro.common.errors import SqlParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
    "DESC", "LIMIT", "DISTINCT", "AS", "ON", "JOIN", "INNER", "LEFT",
    "OUTER", "CROSS", "AND", "OR", "NOT", "IS", "NULL", "LIKE", "BETWEEN",
    "IN", "EXISTS", "UNION", "ALL", "INSERT", "INTO", "VALUES", "UPDATE",
    "SET", "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE",
    "PRIMARY", "KEY", "FOREIGN", "REFERENCES", "STATISTICS", "CALIBRATE", "REORGANIZE",
    "DATABASE", "PROCEDURE", "BEGIN", "COMMIT", "ROLLBACK", "WITH",
    "RECURSIVE", "TRUE", "FALSE", "DATE", "OPTION", "CALL", "CASE", "WHEN",
    "THEN", "ELSE", "END", "COUNT", "SUM", "AVG", "MIN", "MAX",
}

#: What a number is made of.  ``str.isdigit`` is not it: it admits
#: superscripts, which ``int()`` rejects.  (A set, not a string: the
#: empty string is in every string.)
DIGITS = frozenset("0123456789")

#: Multi-character operators, longest first.
_OPERATORS = ["<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/",
              "(", ")", ",", ".", "?", ";"]


class Token:
    """One lexical token."""

    __slots__ = ("kind", "value", "position", "end")

    def __init__(self, kind, value, position, end):
        self.kind = kind  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'eof'
        self.value = value
        self.position = position  # where the token's text starts ...
        self.end = end            # ... and where it stops

    def matches(self, kind, value=None):
        if self.kind != kind:
            return False
        return value is None or self.value == value

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


def tokenize(text):
    """Tokenize SQL text into a list of :class:`Token` ending with EOF."""
    tokens = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline == -1 else newline + 1
            continue
        if char == "'":
            value, end = _read_string(text, index)
            tokens.append(Token("string", value, index, end))
            index = end
            continue
        if char in DIGITS or (
            char == "." and text[index + 1:index + 2] in DIGITS
        ):
            value, end = _read_number(text, index)
            tokens.append(Token("number", value, index, end))
            index = end
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, start, index))
            else:
                tokens.append(Token("ident", word, start, index))
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end == -1:
                raise SqlParseError("unterminated quoted identifier", index)
            tokens.append(Token("ident", text[index + 1 : end], index, end + 1))
            index = end + 1
            continue
        for operator in _OPERATORS:
            if text.startswith(operator, index):
                tokens.append(
                    Token("op", operator, index, index + len(operator))
                )
                index += len(operator)
                break
        else:
            raise SqlParseError("unexpected character %r" % (char,), index)
    tokens.append(Token("eof", None, length, length))
    return tokens


#: One pass over a statement text that finds its number and string
#: literals where :func:`tokenize` finds them.  Between two literals is
#: one ``skip`` run of whole tokens: ASCII words (so the digits of
#: ``t1`` stay in their identifier), quoted identifiers, comments, ASCII
#: whitespace and operators.  ``bad`` is an exponent without digits
#: (which ``tokenize`` rejects) and ``other`` anything else: a ``?``, a
#: character outside ASCII, an unterminated quote.
_SHAPE_SCAN = re.compile(r"""
    (?P<skip>(?:
        [A-Za-z_][A-Za-z0-9_]*
      | "[^"]*"
      | --[^\n]*
      | [ \t\n\r\x0b\x0c\x1c-\x1f]
      | [(),;*/=<>+] | -(?!-) | \.(?![0-9]) | != | \|\|
    )+)
  | (?P<bad>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE](?![+-]?[0-9]))
  | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<string>'[^']*(?:''[^']*)*')
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

#: What stands for a literal of each kind in a shape.  NUL never reaches
#: a shape otherwise: outside a literal it is ``other``.
SHAPE_INT, SHAPE_FLOAT, SHAPE_STRING = "\x00i", "\x00f", "\x00s"


def literal_shape(text):
    """``(shape, values)``: ``text`` with each number and string literal
    replaced by its kind (:data:`SHAPE_INT`, :data:`SHAPE_FLOAT`,
    :data:`SHAPE_STRING`), and the literals' values in text order — the
    values and kinds :func:`tokenize` gives those tokens.  None when the
    text has no literal, or the pass cannot split it as ``tokenize``
    would (then the text is its own shape)."""
    shape = []
    values = []
    for match in _SHAPE_SCAN.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            shape.append(match.group())
        elif kind == "number":
            literal = match.group()
            if literal.isdigit():
                shape.append(SHAPE_INT)
                values.append(int(literal))
            else:
                shape.append(SHAPE_FLOAT)
                values.append(float(literal))
        elif kind == "string":
            shape.append(SHAPE_STRING)
            values.append(match.group()[1:-1].replace("''", "'"))
        else:
            return None
    if not values:
        return None
    return "".join(shape), tuple(values)


def _read_string(text, index):
    """Read a single-quoted string with '' escaping."""
    start = index
    index += 1
    parts = []
    while index < len(text):
        char = text[index]
        if char == "'":
            if text.startswith("''", index):
                parts.append("'")
                index += 2
                continue
            return "".join(parts), index + 1
        parts.append(char)
        index += 1
    raise SqlParseError("unterminated string literal", start)


def _read_number(text, index):
    start = index
    seen_dot = False
    seen_exp = False
    while index < len(text):
        char = text[index]
        if char in DIGITS:
            index += 1
        elif char == "." and not seen_dot and not seen_exp:
            seen_dot = True
            index += 1
        elif char in "eE" and not seen_exp and index > start:
            seen_exp = True
            index += 1
            if index < len(text) and text[index] in "+-":
                index += 1
            if index == len(text) or text[index] not in DIGITS:
                raise SqlParseError(
                    "exponent without digits in %r" % (text[start:index],),
                    start,
                )
        else:
            break
    literal = text[start:index]
    if seen_dot or seen_exp:
        return float(literal), index
    return int(literal), index


def parse_date_literal(text):
    """Parse the body of a DATE 'YYYY-MM-DD' literal."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise SqlParseError("invalid date literal %r" % (text,)) from None
