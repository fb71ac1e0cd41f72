"""The experiment pin file: every printed table, compared exactly.

``benchmarks/pins.txt`` holds one section per experiment table, keyed by
the table's title: a ``## <title>`` line, the header line and one line
per row.  A cell is written with ``repr``, except that a float is first
rounded to 12 significant digits: Python 3.12's compensated ``sum()``
can move the last bits of a float, and a 1e-12 relative step is still
far below any change worth reviewing.

:func:`conftest.print_table` hands every table to :class:`Pins`.  A
table that differs from its section fails the experiment that printed
it, naming the table, the first differing row and both values.  Run
with ``--update-pins`` to rewrite the sections of the tables printed in
that run instead; the file's diff is the before/after table.
"""

import ast
import os

PIN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.txt")
UPDATE_FLAG = "--update-pins"
_TITLE = "## "


def pin_cell(value):
    """One cell as pin text."""
    if isinstance(value, float):
        return repr(float("%.12g" % value))
    return repr(value)


def pin_line(cells):
    return ", ".join(pin_cell(cell) for cell in cells)


def read_pins(path):
    """``{title: [header line, row line, ...]}`` of a pin file."""
    sections = {}
    with open(path) as handle:
        for number, line in enumerate(handle.read().splitlines(), 1):
            if line.startswith(_TITLE):
                title = line[len(_TITLE):]
                if title in sections:
                    raise ValueError("%s:%d: a second section %r"
                                     % (path, number, title))
                sections[title] = []
            elif line:
                if not sections:
                    raise ValueError("%s:%d: a line before the first section"
                                     % (path, number))
                sections[title].append(line)
    return sections


def write_pins(path, sections):
    with open(path, "w") as handle:
        handle.write("\n".join(
            "\n".join([_TITLE + title] + sections[title]) + "\n"
            for title in sorted(sections)
        ))


class Pins:
    """The pinned tables of one pytest session."""

    def __init__(self, path=PIN_FILE, update=False):
        self.path = path
        self.update = update
        self.pinned = read_pins(path) if os.path.exists(path) else {}
        self.printed = {}

    def check(self, title, headers, rows):
        """Record one printed table; unless updating, fail if it moved."""
        if title in self.printed:
            raise ValueError("two tables titled %r in one run" % title)
        lines = [pin_line(headers)] + [pin_line(row) for row in rows]
        self.printed[title] = lines
        if self.update:
            return
        pinned = self.pinned.get(title)
        if pinned is None:
            raise AssertionError(
                "%s: no section in %s; run with %s to add it"
                % (title, self.path, UPDATE_FLAG))
        if pinned != lines:
            raise AssertionError(_difference(title, headers, pinned, lines))

    def save(self):
        """Under the update flag, rewrite the sections printed this run."""
        if self.update and self.printed:
            write_pins(self.path, {**self.pinned, **self.printed})


def _difference(title, headers, pinned, printed):
    index = next((i for i, (old, new) in enumerate(zip(pinned, printed))
                  if old != new), min(len(pinned), len(printed)))
    old = pinned[index] if index < len(pinned) else "(no row)"
    new = printed[index] if index < len(printed) else "(no row)"
    message = "%s: %s differs" % (title, "row %d" % index if index
                                  else "the header")
    if index < min(len(pinned), len(printed)):
        old_cells, new_cells = (
            [pin_cell(v) for v in ast.literal_eval("(%s,)" % line)]
            for line in (old, new))
        if len(old_cells) == len(new_cells) == len(headers):
            column = next(i for i, (a, b) in enumerate(
                zip(old_cells, new_cells)) if a != b)
            message += " in column %r: pinned %s, printed %s" % (
                headers[column], old_cells[column], new_cells[column])
    return "%s\n  pinned:  %s\n  printed: %s\nRerun with %s to accept " \
        "the printed table." % (message, old, new, UPDATE_FLAG)
