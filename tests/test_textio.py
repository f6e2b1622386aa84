"""The shared text-input reader against a reference over arbitrary bytes."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar.textio import CHUNK_CHARS, read_json, read_lines, read_records

# byte strings biased towards line ends, separators and broken UTF-8
TOKENS = [
    b"\n", b"\r", b"\r\n", b"\t", b" ", b"a", b"bc", b"\xc3\xa9", b"\xe2\x82\xac",
    b"\xff", b"\xc3", b"\xa9", b"\xed\xa0\x80", b"\x00", b"\x0b", b"\xc2\x85",
]
FILE_BYTES = st.one_of(
    st.binary(max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=20).map(b"".join),
)


class InputError(ValueError):
    pass


def reference_lines(data: bytes) -> list[str]:
    """Decode, map CRLF and CR to LF, split on LF, drop one final empty line."""
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def decode_reference(data: bytes) -> tuple[list[str], int | None]:
    """The reference lines before the first bad byte, and that byte's line
    (None when every byte decodes)."""
    try:
        return reference_lines(data), None
    except UnicodeDecodeError as exc:
        head = reference_lines(data[: exc.start] + b"x")
        return head[:-1], len(head)


def error_at(path, lineno) -> str:
    return f"^{re.escape(str(path))}:{lineno}: "


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("textio") / "input.txt"


@settings(max_examples=150, deadline=None)
@given(FILE_BYTES)
@example(b"ok\r\n\xffbad\n")
@example(b"a\r\xc3")
@example(b"\n")
def test_read_lines_matches_reference_or_names_first_bad_line(path, data):
    path.write_bytes(data)
    lines, bad = decode_reference(data)
    if bad is None:
        assert list(read_lines(path, InputError)) == lines
    else:
        with pytest.raises(InputError, match=error_at(path, bad) + "invalid UTF-8$"):
            list(read_lines(path, InputError))


@pytest.mark.parametrize("tail", [b"\n\xff", b"\xa9\n\xff", b"\xa9\r\nz", b"x\xff", b"\xff", b""])
@pytest.mark.parametrize("head", [b"\r", b"\n", b"\xc3", b"\r\n"])
def test_read_lines_across_a_chunk_boundary_matches_reference(path, head, tail):
    # head ends at the last byte of the first chunk, so a CRLF or a
    # character may be cut in two
    data = b"ab\r\n" * 10 + b"a" * (CHUNK_CHARS - 40 - len(head)) + head + tail
    path.write_bytes(data)
    lines, bad = decode_reference(data)
    if bad is None:
        assert list(read_lines(path, InputError)) == lines
    else:
        with pytest.raises(InputError, match=error_at(path, bad) + "invalid UTF-8$"):
            list(read_lines(path, InputError))


@settings(max_examples=150, deadline=None)
@given(FILE_BYTES, st.integers(1, 3), st.sampled_from(["\t", None]))
@example(b"\t\n \n\n", 2, "\t")
@example(b"a b\n\t \n", 2, None)
@example(b"a\tb\tc\n\xff", 2, "\t")
def test_read_records_keeps_full_lines_and_skips_only_blank_ones(path, data, width, sep):
    path.write_bytes(data)
    lines, bad = decode_reference(data)
    split = [(n, line.split(sep)) for n, line in enumerate(lines, 1)]
    wrong = [n for n, fields in split if len(fields) != width and lines[n - 1].strip()]
    if wrong or bad is not None:
        # a bad byte may be met before the lines decoded ahead of it are split
        first = "|".join(error_at(path, n) for n in [*wrong[:1], bad] if n is not None)
        with pytest.raises(InputError, match=first):
            list(read_records(path, width, InputError, sep))
    else:
        assert list(read_records(path, width, InputError, sep)) == [
            (n, fields) for n, fields in split if len(fields) == width
        ]


def test_record_with_empty_fields_is_kept_and_blank_line_skipped(tmp_path):
    path = tmp_path / "sizes.tsv"
    path.write_text("a\t1\n\n  \n\t\n", encoding="utf-8")
    assert list(read_records(path, 2, InputError)) == [(1, ["a", "1"]), (4, ["", ""])]


def test_unreadable_file_is_the_callers_error(tmp_path):
    for unreadable in (tmp_path / "missing", tmp_path):
        with pytest.raises(InputError, match=f"^cannot read {re.escape(str(unreadable))}: "):
            list(read_lines(unreadable, InputError))


def test_read_json_names_file_line_and_column(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{\n  "a": 1,\n  "b": }\n', encoding="utf-8")
    with pytest.raises(InputError, match=error_at(path, "3:8") + "Expecting value$"):
        read_json(path, InputError)
    path.write_bytes(b'{"a":\n"\xff"}')
    with pytest.raises(InputError, match=error_at(path, 2) + "invalid UTF-8$"):
        read_json(path, InputError)
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: JSON nested too deeply$"):
        read_json(path, InputError)
    path.write_text("[1]", encoding="utf-8")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}: expected a JSON object$"):
        read_json(path, InputError)
    path.write_text('{"a": [1, "x"]}', encoding="utf-8")
    assert read_json(path, InputError) == {"a": [1, "x"]}
