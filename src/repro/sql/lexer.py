"""SQL tokenizer: one grammar, two scanners.

Each token class is one regular-expression fragment, and each kind of
literal becomes its value in one function.  :func:`tokenize` reads every
class in one ``finditer``; :func:`literal_shape` finds only the literals
and takes each run of other whole (ASCII) tokens as one match, so that a
statement-cache hit (DESIGN.md §13) costs one short pass and no tokens.
"""

import datetime
import re

from repro.common.errors import SqlParseError

KEYWORDS = set("""
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT DISTINCT AS ON
    JOIN INNER LEFT OUTER CROSS AND OR NOT IS NULL LIKE BETWEEN IN EXISTS
    UNION ALL INSERT INTO VALUES UPDATE SET DELETE CREATE DROP TABLE INDEX
    UNIQUE PRIMARY KEY FOREIGN REFERENCES STATISTICS CALIBRATE REORGANIZE
    DATABASE PROCEDURE BEGIN COMMIT ROLLBACK WITH RECURSIVE TRUE FALSE DATE
    OPTION CALL CASE WHEN THEN ELSE END COUNT SUM AVG MIN MAX
""".split())

# The token classes.  Digits are ASCII: ``\d`` and ``str.isdigit`` admit
# digits that ``int()`` reads differently or not at all.
_MANTISSA = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
NUMBER = _MANTISSA + r"(?:[eE][+-]?[0-9]+)?"
#: An exponent without digits (with its sign): an error, not a token.
BAD_EXPONENT = _MANTISSA + r"[eE](?![+-]?[0-9])[+-]?"
#: ``''`` inside is one quote, so a quote may not follow the closing one.
STRING = r"'[^']*(?:''[^']*)*'(?!')"
QUOTED_IDENT = r'"[^"]*"'
#: An identifier or keyword.  ``\w`` is ``str.isalnum()`` or ``_``;
#: ``[^\W\d]`` also takes ``²`` and ``½``, which start no word
#: (:func:`tokenize` checks ``str.isalpha()``).
WORD = r"[^\W\d]\w*"
COMMENT = r"--[^\n]*"
#: Longest first; ``.`` before a digit starts a number.
OPERATOR = r"<>|!=|<=|>=|\|\||\.(?![0-9])|[-=<>+*/(),;]"
PARAMETER = r"\?"


def _alternatives(**classes):
    return "|".join("(?P<%s>%s)" % item for item in classes.items())


#: A token after the whitespace and comments before it; the end of the
#: text after the last token matches no group.
_TOKEN_SCAN = re.compile(r"(?:\s|%s)*(?:%s|\Z)" % (COMMENT, _alternatives(
    bad=BAD_EXPONENT, number=NUMBER, string=STRING, quoted=QUOTED_IDENT,
    word=WORD, op=OPERATOR + "|" + PARAMETER, other=".",
)), re.DOTALL)

#: Between two literals, one ``skip`` run of whole ASCII tokens (so the
#: digits of ``t1`` stay in their word); ``other`` is anything else — a
#: ``?``, a character outside ASCII, an unterminated quote.
_SHAPE_SCAN = re.compile(_alternatives(
    skip="(?:%s)+" % "|".join((WORD, QUOTED_IDENT, COMMENT, r"\s", OPERATOR)),
    bad=BAD_EXPONENT, number=NUMBER, string=STRING, other=".",
), re.DOTALL | re.ASCII)


def number_value(literal, position):
    """The value of a :data:`NUMBER`'s text: digits alone are an int."""
    if not literal.isdigit():
        return float(literal)
    try:
        return int(literal)
    except ValueError:  # past Python's integer string conversion limit
        message = "integer literal of %d digits is too long" % len(literal)
        raise SqlParseError(message, position) from None


def string_value(literal):
    """The value of a :data:`STRING`'s text."""
    return literal[1:-1].replace("''", "'")


class Token:
    """One lexical token."""

    __slots__ = ("kind", "value", "position", "end")

    def __init__(self, kind, value, position, end):
        self.kind = kind  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'eof'
        self.value = value
        self.position = position  # where the token's text starts ...
        self.end = end            # ... and where it stops

    def matches(self, kind, value=None):
        return self.kind == kind and (value is None or self.value == value)

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


_UNTERMINATED = {
    "'": "unterminated string literal", '"': "unterminated quoted identifier",
}


def tokenize(text):
    """Tokenize SQL text into a list of :class:`Token` ending with EOF."""
    tokens = []
    for match in _TOKEN_SCAN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            break
        literal = match[kind]
        start, end = match.span(kind)
        if kind == "word" and not (literal[0].isalpha() or literal[0] == "_"):
            kind, literal = "other", literal[0]  # ``²`` or ``½``
        if kind == "word":
            upper = literal.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, start, end))
            else:
                tokens.append(Token("ident", literal, start, end))
        elif kind == "op":
            tokens.append(Token("op", literal, start, end))
        elif kind == "number":
            value = number_value(literal, start)
            tokens.append(Token("number", value, start, end))
        elif kind == "string":
            tokens.append(Token("string", string_value(literal), start, end))
        elif kind == "quoted":
            tokens.append(Token("ident", literal[1:-1], start, end))
        elif kind == "bad":
            message = "exponent without digits in %r" % (literal,)
            raise SqlParseError(message, start)
        else:
            raise SqlParseError(_UNTERMINATED.get(
                literal, "unexpected character %r" % (literal,)), start)
    tokens.append(Token("eof", None, len(text), len(text)))
    return tokens


#: What stands for a literal of each kind in a shape.  NUL never reaches
#: a shape otherwise: outside a literal it is ``other``.
SHAPE_INT, SHAPE_FLOAT, SHAPE_STRING = "\x00i", "\x00f", "\x00s"


def literal_shape(text):
    """``(shape, values)``: ``text`` with each number and string literal
    replaced by its kind (:data:`SHAPE_INT`, :data:`SHAPE_FLOAT`,
    :data:`SHAPE_STRING`), and the literals' values in text order — the
    values and kinds :func:`tokenize` gives those tokens.  None when the
    text has no literal, or the pass cannot split it as ``tokenize``
    would (then the text is its own shape); a number with no value
    raises ``tokenize``'s error."""
    shape, values = [], []
    for match in _SHAPE_SCAN.finditer(text):
        kind = match.lastgroup
        if kind == "skip":
            shape.append(match.group())
        elif kind == "number":
            value = number_value(match.group(), match.start())
            shape.append(SHAPE_INT if type(value) is int else SHAPE_FLOAT)
            values.append(value)
        elif kind == "string":
            shape.append(SHAPE_STRING)
            values.append(string_value(match.group()))
        else:
            return None
    if not values:
        return None
    return "".join(shape), tuple(values)


def parse_date_literal(text):
    """Parse the body of a DATE 'YYYY-MM-DD' literal."""
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise SqlParseError("invalid date literal %r" % (text,)) from None
