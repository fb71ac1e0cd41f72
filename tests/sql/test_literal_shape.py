"""The statement shape's literals are the lexer's.

:func:`repro.sql.lexer.literal_shape` finds a text's number and string
literals in one regular-expression pass, without tokenizing.  Whatever
it returns must be what :func:`tokenize` says: the same literal spans
(the shape is the text with exactly the lexer's number and string
tokens replaced by their kinds), the same values of the same types, and
texts with one shape tokenize alike apart from those values.  A text
the pass cannot split as the lexer would — one the lexer rejects among
them — has no shape.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Server, ServerConfig
from repro.common.errors import SqlParseError
from repro.sql import parse_statement
from repro.sql.lexer import (
    SHAPE_FLOAT,
    SHAPE_INT,
    SHAPE_STRING,
    literal_shape,
    tokenize,
)
from repro.testgen.queries import QueryGenerator
from repro.testgen.schema import SchemaGenerator, random_dml


def lexer_shape(text):
    """``(shape, values)`` from :func:`tokenize`'s own tokens, None when
    the text has no literal; raises what ``tokenize`` raises."""
    pieces, values, position = [], [], 0
    for token in tokenize(text):
        if token.kind not in ("number", "string"):
            continue
        if token.kind == "string":
            marker = SHAPE_STRING
        elif isinstance(token.value, int):
            marker = SHAPE_INT
        else:
            marker = SHAPE_FLOAT
        pieces.append(text[position:token.position])
        pieces.append(marker)
        values.append(token.value)
        position = token.end
    if not values:
        return None
    pieces.append(text[position:])
    return "".join(pieces), tuple(values)


def skeleton(text):
    """The token stream with every literal's value left out."""
    return [
        (token.kind, None if token.kind in ("number", "string") else token.value)
        for token in tokenize(text)
    ]


def check(text):
    shape = literal_shape(text)
    try:
        want = lexer_shape(text)
    except Exception:  # noqa: BLE001 — a text the lexer rejects
        assert shape is None, text
        return None
    if shape is not None:
        assert shape == want, text
        assert [type(v) for v in shape[1]] == [type(v) for v in want[1]]
    return shape


HAND_CASES = [
    ("SELECT a FROM t1 WHERE t1.b2 = 5", ("SELECT a FROM t1 WHERE t1.b2 = "
                                          "\x00i", (5,))),
    ("SELECT .5", ("SELECT \x00f", (0.5,))),
    ("SELECT 1e5, 1E-3, 2.5e+1", ("SELECT \x00f, \x00f, \x00f",
                                  (1e5, 1e-3, 25.0))),
    ("SELECT 1.", ("SELECT \x00f", (1.0,))),
    ("SELECT 1.5.5", ("SELECT \x00f\x00f", (1.5, 0.5))),
    ("SELECT 1e5e", ("SELECT \x00fe", (1e5,))),
    ("SELECT 5abc", ("SELECT \x00iabc", (5,))),
    ("SELECT 1_000", ("SELECT \x00i_000", (1,))),
    ("SELECT 'it''s'", ("SELECT \x00s", ("it's",))),
    ("SELECT ''", ("SELECT \x00s", ("",))),
    ("SELECT '' ''", ("SELECT \x00s \x00s", ("", ""))),
    ("SELECT '-- 5', 'é'", ("SELECT \x00s, \x00s", ("-- 5", "é"))),
    ('SELECT "col 1" FROM t WHERE "x""" = 2',  # "x", then ""
     ('SELECT "col 1" FROM t WHERE "x""" = \x00i', (2,))),
    ('SELECT "col 1 FROM t WHERE a = 2', None),  # unterminated
    ('SELECT "col 1", "it\'s" FROM t WHERE a = 2',
     ('SELECT "col 1", "it\'s" FROM t WHERE a = \x00i', (2,))),
    ("SELECT a -- 5\nFROM t", None),  # no literal outside the comment
    ("SELECT 7 -- 5 'x\nFROM t", ("SELECT \x00i -- 5 'x\nFROM t", (7,))),
    ("SELECT 5--3", ("SELECT \x00i--3", (5,))),
    ("SELECT x.5", ("SELECT x\x00f", (0.5,))),
    ("SELECT t1", None),
    ("SELECT 1e", None),          # the lexer rejects the exponent
    ("SELECT 1e+", None),
    ("SELECT 1.5E", None),
    ("SELECT 'open", None),
    ("SELECT ٣", None),           # a non-ASCII digit
    ("SELECT 5 + ²", None),       # a superscript is not a digit
    ("SELECT x٣ + 1", None),      # nor does it end an identifier here
    ("SELECT 1\u2003+ 2", None),  # whitespace outside ASCII
    ("SELECT a FROM t WHERE a = ? AND b = 1", None),
    ("SELECT 1 | 2", None),
    ("SELECT 1 != 2 || 'a'", ("SELECT \x00i != \x00i || \x00s", (1, 2, "a"))),
    ("SELECT \x00i", None),       # a marker outside a literal
]


@pytest.mark.parametrize("text, expected", HAND_CASES)
def test_hand_cases(text, expected):
    assert literal_shape(text) == expected
    check(text)


def test_an_integer_past_the_conversion_limit_is_a_parse_error():
    """Python converts at most 4,300 digits to an int; both front-end
    entry points raise the lexer's error for a longer literal."""
    text = "SELECT a FROM t WHERE a = " + "1" * 5000
    statements = Server(ServerConfig(start_buffer_governor=False)).statements
    for entry in (parse_statement, statements.prepare):
        with pytest.raises(SqlParseError, match="5000 digits") as raised:
            entry(text)
        assert raised.value.position == text.index("1")


# --------------------------------------------------------------------- #
# generated texts
# --------------------------------------------------------------------- #

PIECES = [
    "SELECT", "FROM", "WHERE", "a", "t1", "_x", "b2", "LIMIT", "DATE",
    "5", "0", "007", ".5", "1.", "1e5", "1E-3", "2.5e+1", "1e", "1.e5",
    "'it''s'", "''", "'-- x'", "'é'", "'open", '"col 1"', '"a\'b"', '"',
    "-- 5 '\n", "--", "-", "+", "*", "/", "=", "<>", "!=", "<=", ">=", "||",
    "|", "!", "(", ")", ",", ".", ";", "?", "٣", "²", "é", " ", "\t",
    "\x00", "@",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " ", "\n"])),
    max_size=14,
))
def test_generated_texts_split_as_the_lexer_does(parts):
    check("".join(piece + gap for piece, gap in parts))


NEW_LITERALS = {
    SHAPE_INT: ["0", "7", "1000000007"],
    SHAPE_FLOAT: ["0.0", "1.5e1", ".25", "2E-3"],
    SHAPE_STRING: ["''", "'it''s'", "'zz'"],
}


def relit(text, rng, literals=NEW_LITERALS):
    """``text`` with each literal replaced by another of its kind, drawn
    from ``literals`` (kind marker -> literal texts)."""
    pieces, position = [], 0
    for token in tokenize(text):
        if token.kind not in ("number", "string"):
            continue
        kind = (
            SHAPE_STRING if token.kind == "string"
            else SHAPE_INT if isinstance(token.value, int) else SHAPE_FLOAT
        )
        pieces.append(text[position:token.position])
        pieces.append(rng.choice(literals[kind]))
        position = token.end
    pieces.append(text[position:])
    return "".join(pieces)


def generated_statements(seed, count):
    schema = SchemaGenerator(seed).generate()
    rng = random.Random("literal-shape:%d" % seed)
    queries = QueryGenerator(rng, schema)
    texts = list(schema.ddl_statements()) + list(schema.load_statements(rng))
    for __ in range(count):
        texts.append(random_dml(rng, rng.choice(schema.tables)))
        texts.append(queries.tlp_query().sql())
        texts.append(queries.norec_query().sql())
    return rng, texts


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_statements_and_their_variants(seed):
    rng, texts = generated_statements(seed, 60)
    shaped = 0
    for text in texts:
        shape = check(text)
        if shape is None:
            continue
        shaped += 1
        variant = relit(text, rng)
        # One shape, one token stream apart from the literal values.
        assert literal_shape(variant)[0] == shape[0], (text, variant)
        assert skeleton(variant) == skeleton(text)
    assert shaped > len(texts) // 2


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])),
    max_size=10,
), st.randoms(use_true_random=False))
def test_texts_with_one_shape_tokenize_alike(parts, rng):
    text = "".join(piece + gap for piece, gap in parts)
    shape = check(text)
    if shape is None:
        return
    variant = relit(text, rng)
    if literal_shape(variant) is None:
        return  # a new literal merged with its neighbour: another shape
    if literal_shape(variant)[0] == shape[0]:
        assert skeleton(variant) == skeleton(text), (text, variant)
