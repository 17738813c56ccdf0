"""The text layout shared by every file format: UTF-8, a leading
byte-order mark ignored, a header line, then one record per line of
whitespace-separated fields, trailing blank lines ignored, 1-based vertex
ids, LF line endings on write.  Records are checked lazily in file order,
so the first bad line is the one reported.

No reader holds all lines of a text at once.  `content` finds the end of
the content by stripping pieces of at most CHUNK characters, then counts
its lines as 1 plus the `str.splitlines` separators before the end, minus
the "\\r\\n" pairs: every separator is whitespace, so none straddles the
end.  Records are split a chunk at a time, each cut just after the first
line break at least CHUNK characters in, "\\r\\n" or any one separator, so
no line or "\\r\\n" straddles a cut, whichever line endings a text uses.
"""

import re
from collections import namedtuple

from .errors import ParseError

# The separators at which str.splitlines breaks a line.
SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# A line break: "\r\n" first, so that a cut never parts the pair.  The two
# separators past Latin-1 stand alone: inside the class they would make
# re.compile build a map of all 65,536 BMP code points, a 130 KB transient.
_BREAK = re.compile("\r\n|[" + SEPARATORS[:-2] + "]|" + "|".join(SEPARATORS[-2:]))

# The least length of a chunk of lines split at once.
CHUNK = 1 << 14

# The size record lines of text, from index start to end.
Body = namedtuple("Body", "text start end size")


def content(text):
    """(end, count): the index after the last non-whitespace character of
    text, and the number of lines before it."""
    end = len(text)
    while end and text[end - 1].isspace():
        start = max(end - CHUNK, 0)
        end = start + len(text[start:end].rstrip())
    if not end:
        return 0, 0
    # Most separators are absent, and `in` finds that far faster than a count.
    count = 1 + sum(text.count(sep, 0, end) for sep in SEPARATORS if sep in text)
    if "\r" in text:
        count -= text.count("\r\n", 0, end)
    return end, count


def lines(text, start, end):
    """Yield the lines of text[start:end] that str.splitlines gives, a
    chunk at a time."""
    while start < end:
        cut = _cut(text, start, end)
        yield from text[start:cut].splitlines()
        start = cut


def _cut(text, start, end):
    """The end of the chunk that starts at start: just after the first line
    break at least CHUNK characters in, or end."""
    found = _BREAK.search(text, start + CHUNK - 1, end)
    return found.end() if found else end


def read(text, source, width, usage, negative=None, counted=None):
    """Read the header line of width integers; returns (Body, header).

    usage is the message for a bad header, negative (if given) the one for
    a negative field.  When counted names the record lines, the last header
    field must be their count.
    """
    end, count = content(text)
    if not count:
        raise ParseError(source, 1, "missing header line")
    header = next(lines(text, 0, end))
    start = len(header) + (2 if text.startswith("\r\n", len(header)) else 1)
    parts = header.split()
    if len(parts) != width:
        raise ParseError(source, 1, usage)
    try:
        values = tuple(map(int, parts))
    except ValueError:
        raise ParseError(source, 1, usage) from None
    if negative is not None and min(values) < 0:
        raise ParseError(source, 1, negative)
    if counted is not None and count - 1 != values[-1]:
        raise ParseError(source, 1, f"expected {values[-1]} {counted}, found {count - 1}")
    return Body(text, start, end, count - 1), values


def records(body, source, width, usage, ids=None, dash=None):
    """Yield (line number, fields) for each record line of body, fields as
    ints.

    usage is the message for a line that is not width integers.  When ids
    is n, the first field is a vertex id that must lie in 1..n and appear
    once.  The field at index dash may be "-", read as None.
    """
    text, start, end, _ = body
    seen = [False] * (ids or 0)
    for i, line in enumerate(lines(text, start, end), 2):
        parts = line.split()
        if len(parts) != width:
            raise ParseError(source, i, usage)
        absent = dash is not None and parts[dash] == "-"
        if absent:
            parts[dash] = "0"
        try:
            fields = list(map(int, parts))
        except ValueError:
            raise ParseError(source, i, usage) from None
        if absent:
            fields[dash] = None
        if ids is not None:
            v = fields[0]
            if not 1 <= v <= ids:
                raise out_of_range(source, i, "vertex", v, ids)
            if seen[v - 1]:
                raise ParseError(source, i, f"vertex {v} listed twice")
            seen[v - 1] = True
        yield i, fields


def out_of_range(source, line, what, value, n):
    """The error for an id outside 1..n."""
    return ParseError(source, line, f"{what} {value} out of range 1..{n}")


def render(rows):
    """File text with one line per row, its fields joined by spaces."""
    return "\n".join(" ".join(map(str, row)) for row in rows) + "\n"


def load(path, parse):
    """parse(text, source=path) on the UTF-8 contents of path, less one
    leading byte-order mark, dropped after decoding so that an error names
    the file's own byte; the bytes read are dropped before parse runs."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = len((before + "?").splitlines())
        message = f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
        raise ParseError(str(path), line, message) from None
    del data
    return parse(text, source=str(path))


def save(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
