"""Unit tests for the SQL lexer."""

import pytest

from repro.common.errors import SqlParseError
from repro.sql import tokenize
from repro.sql.lexer import parse_date_literal


def kinds(text):
    return [(token.kind, token.value) for token in tokenize(text)]


def test_keywords_case_insensitive():
    assert kinds("select")[0] == ("keyword", "SELECT")
    assert kinds("SeLeCt")[0] == ("keyword", "SELECT")


def test_identifiers_preserve_case():
    assert kinds("myTable")[0] == ("ident", "myTable")


def test_numbers():
    assert kinds("42")[0] == ("number", 42)
    assert kinds("3.5")[0] == ("number", 3.5)
    assert kinds("1e3")[0] == ("number", 1000.0)
    assert kinds("2.5e-2")[0] == ("number", 0.025)


def test_strings_with_escapes():
    assert kinds("'hello'")[0] == ("string", "hello")
    assert kinds("'it''s'")[0] == ("string", "it's")


def test_unterminated_string_rejected():
    with pytest.raises(SqlParseError):
        tokenize("'oops")


def test_operators():
    values = [v for k, v in kinds("a <= b <> c != d || e")]
    assert "<=" in values and "<>" in values and "!=" in values and "||" in values


def test_comments_skipped():
    tokens = kinds("SELECT -- a comment\n 1")
    assert ("number", 1) in tokens


def test_quoted_identifier():
    assert kinds('"Weird Name"')[0] == ("ident", "Weird Name")


def test_unexpected_character():
    with pytest.raises(SqlParseError):
        tokenize("SELECT @")


def test_eof_token():
    assert kinds("")[-1] == ("eof", None)


def test_date_literal_parsing():
    import datetime
    assert parse_date_literal("2007-04-15") == datetime.date(2007, 4, 15)
    with pytest.raises(SqlParseError):
        parse_date_literal("not-a-date")


def test_literal_tokens_span_their_text():
    text = "x = 'it''s' + 2.5e-1 - .5"
    spans = [
        (token.kind, text[token.position:token.end])
        for token in tokenize(text)
    ]
    assert spans == [
        ("ident", "x"), ("op", "="), ("string", "'it''s'"), ("op", "+"),
        ("number", "2.5e-1"), ("op", "-"), ("number", ".5"), ("eof", ""),
    ]


@pytest.mark.parametrize("text", ["1e", "1e+", "1E-x", "²", "1²"])
def test_malformed_numbers_rejected(text):
    with pytest.raises(SqlParseError):
        tokenize(text)
