"""The streaming reader in intpow._records against the list-of-lines
reference reader in testutil.

Texts break their lines at every separator str.splitlines knows, "\\r\\n"
included, and end in lines of whitespace only.  Chunk sizes down to 1 put
a cut just after every line break, so "\\r\\n" pairs and lines sit at every
offset from a cut.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intpow import (
    ExtensionTrace,
    ParseError,
    WeakOrder,
    format_graph,
    format_orders,
    format_representation,
    format_trace,
    format_trapezoid,
    load_graph,
    load_orders,
    load_representation,
    load_trace,
    load_trapezoid,
    parse_graph,
    parse_orders,
    parse_representation,
    parse_trace,
    parse_trapezoid,
)
from intpow import _records
from testutil import (
    content_lines,
    random_graph,
    random_representation,
    random_strict_trapezoid,
    reference_reader,
)

SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Whitespace that str.split() splits on but that ends no line.
BLANKS = [" ", "\t", "\x1f", "\xa0"]
CHUNKS = [1, 2, 3, 5, 8, 13, 1 << 14]


def trace_text(rng):
    n = rng.randint(0, 6)
    witness = tuple(rng.choice([None, *range(n)]) for _ in range(n))
    new_right = tuple(rng.randint(0, 20) for _ in range(n))
    return format_trace(ExtensionTrace(rng.randint(2, 4), rng.randint(1, 3), witness, new_right))


def orders_text(rng):
    n = rng.randint(0, 5)
    return format_orders(tuple(WeakOrder.from_sequence(rng.sample(range(n), n)) for _ in range(4)))


VALID_TEXTS = {
    parse_graph: lambda rng: format_graph(random_graph(rng, max_n=8)),
    parse_representation: lambda rng: format_representation(random_representation(rng, max_n=8)),
    parse_trace: trace_text,
    parse_trapezoid: lambda rng: format_trapezoid(random_strict_trapezoid(rng, max_n=6)),
    parse_orders: orders_text,
}

LOADERS = {
    parse_graph: load_graph,
    parse_representation: load_representation,
    parse_trace: load_trace,
    parse_trapezoid: load_trapezoid,
    parse_orders: load_orders,
}

BOM = "\ufeff".encode()


def reshaped(text, rng):
    """text with its header's last field off by one, a line repeated,
    inserted or dropped (each now and then), random separators and
    blanks, and lines of whitespace only at the end."""
    lines = text.splitlines()
    fields = lines[0].split()
    if rng.random() < 0.3 and fields[-1].lstrip("-").isdigit():
        fields[-1] = str(int(fields[-1]) + rng.choice((-1, 1)))
        lines[0] = " ".join(fields)
    if rng.random() < 0.3:
        extra = rng.choice([rng.choice(lines), "", " ", "x", "1 -", "2 2", "0 1 2"])
        lines.insert(rng.randint(1, len(lines)), extra)
    if len(lines) > 1 and rng.random() < 0.2:
        del lines[rng.randrange(len(lines))]
    text = "".join(line.replace(" ", rng.choice(BLANKS)) + rng.choice(SEPARATORS) for line in lines)
    if rng.random() < 0.3:
        text = text[:-1]
    for _ in range(rng.randint(0, 3)):
        text += "".join(rng.choice(BLANKS) for _ in range(rng.randint(0, 2))) + rng.choice(SEPARATORS)
    return text


def outcome(parse, text):
    """The parsed value, or the ParseError's (source, line, message)."""
    try:
        return parse(text, source="in.txt")
    except ParseError as error:
        return error.source, error.line, error.message


def assert_matches_reference(parse, text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_records, "CHUNK", chunk)
        got = outcome(parse, text)
    with reference_reader():
        want = outcome(parse, text)
    assert got == want, (text, chunk)


@pytest.mark.parametrize("parse", VALID_TEXTS, ids=lambda parse: parse.__name__)
@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), chunk=st.sampled_from(CHUNKS))
def test_parsers_match_the_reference_reader(parse, rng, chunk):
    assert_matches_reference(parse, reshaped(VALID_TEXTS[parse](rng), rng), chunk)


@pytest.mark.parametrize("parse", VALID_TEXTS, ids=lambda parse: parse.__name__)
def test_parsers_match_the_reference_reader_on_seeded_texts(parse):
    for seed in range(60):
        rng = random.Random(seed)
        text = reshaped(VALID_TEXTS[parse](rng), rng)
        for chunk in range(1, 10):
            assert_matches_reference(parse, text, chunk)


@pytest.mark.parametrize("header, line, message", [
    ("3 2", None, None),
    ("3 3", 1, "expected 3 edge lines, found 2"),
    ("3 1", 1, "expected 1 edge lines, found 2"),
])
@pytest.mark.parametrize("chunk", range(1, 12))
def test_crlf_graph_with_blank_tail_at_every_cut(header, line, message, chunk):
    text = f"{header}\r\n1 2\r\n2 3\r\n \r\n\t\r\n\r\n"
    assert_matches_reference(parse_graph, text, chunk)
    expected = (("in.txt", line, message) if line
                else parse_graph(text.replace("\r\n", "\n"), source="in.txt"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_records, "CHUNK", chunk)
        assert outcome(parse_graph, text) == expected


def test_every_separator_ends_a_line():
    edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5), (1, 5), (3, 5), (2, 5), (1, 4)]
    lines = ["5 10"] + [f"{u} {v}" for u, v in edges]
    text = "".join(line + separator for line, separator in zip(lines, SEPARATORS))
    assert parse_graph(text) == parse_graph("\n".join(lines))
    with pytest.raises(ParseError) as info:
        parse_graph(text.replace("5 10", "5 11", 1), source="in.txt")
    assert (info.value.line, info.value.message) == (1, "expected 11 edge lines, found 10")


@settings(max_examples=300, deadline=None)
@given(
    text=st.lists(st.sampled_from(SEPARATORS + BLANKS + ["1", "x", "-"])).map("".join),
    chunk=st.sampled_from(CHUNKS),
)
def test_content_and_lines_agree_with_splitlines(text, chunk):
    expected = content_lines(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_records, "CHUNK", chunk)
        end, count = _records.content(text)
        lines = list(_records.lines(text, 0, end))
    assert end == len(text.rstrip())
    assert count == len(expected)
    assert [line.split() for line in lines] == [line.split() for line in expected]


def loaded(load, path):
    """What load gives for path: the value, or the ParseError's line and
    message."""
    try:
        return True, load(path)
    except ParseError as error:
        return False, (error.line, error.message)


@pytest.mark.parametrize("parse", VALID_TEXTS, ids=lambda parse: parse.__name__)
def test_loaders_ignore_a_leading_byte_order_mark(parse, tmp_path):
    read = 0
    for seed in range(10):
        data = VALID_TEXTS[parse](random.Random(seed)).encode()
        plain, marked = tmp_path / f"plain{seed}", tmp_path / f"marked{seed}"
        plain.write_bytes(data)
        marked.write_bytes(BOM + data)
        expected = loaded(LOADERS[parse], plain)
        assert loaded(LOADERS[parse], marked) == expected
        read += expected[0]
    assert read > 0


@pytest.mark.parametrize("data, line, byte", [
    (b"2\n1 0 2\n2 \xe9 3\n", 3, 0xe9),
    (b"\xff2\n1 0 2\n2 1 3\n", 1, 0xff),
])
def test_invalid_byte_after_a_byte_order_mark_is_reported_as_without_it(data, line, byte, tmp_path):
    for name, contents in (("plain.rep", data), ("marked.rep", BOM + data)):
        path = tmp_path / name
        path.write_bytes(contents)
        with pytest.raises(ParseError) as info:
            load_representation(path)
        assert (info.value.line, info.value.message) == (line, f"byte 0x{byte:02x} is not valid UTF-8")
