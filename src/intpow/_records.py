"""The text layout shared by every file format: UTF-8, a header line,
then one record per line of whitespace-separated fields, trailing blank
lines ignored, 1-based vertex ids, LF line endings on write.  Records are
checked lazily in file order, so the first bad line is the one reported.
"""

from .errors import ParseError


def content_lines(text):
    """The lines of text, without trailing blank ones."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return lines


def read(text, source, width, usage, negative=None, counted=None):
    """Split text into content lines and read the header line of width
    integers; returns (lines, header).  usage is the message for a bad
    header, negative (if given) the one for a negative field.  When counted
    names the record lines, the last header field must be their count.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError(source, 1, "missing header line")
    parts = lines[0].split()
    if len(parts) != width:
        raise ParseError(source, 1, usage)
    try:
        values = tuple(map(int, parts))
    except ValueError:
        raise ParseError(source, 1, usage) from None
    if negative is not None and min(values) < 0:
        raise ParseError(source, 1, negative)
    if counted is not None and len(lines) - 1 != values[-1]:
        raise ParseError(source, 1, f"expected {values[-1]} {counted}, found {len(lines) - 1}")
    return lines, values


def records(lines, source, width, usage, ids=None, dash=None):
    """Yield (line number, fields) for each record line, fields as ints.

    usage is the message for a line that is not width integers.  When ids
    is n, the first field is a vertex id that must lie in 1..n and appear
    once.  The field at index dash may be "-", read as None.
    """
    seen = [False] * (ids or 0)
    for i, line in enumerate(lines[1:], start=2):
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
    """parse(text, source=path) on the UTF-8 contents of path."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8")
        line = len((before + "?").splitlines())
        message = f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
        raise ParseError(str(path), line, message) from None
    return parse(text, source=str(path))


def save(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
