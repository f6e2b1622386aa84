"""The chunked record reader, and ``records.tsv`` read through it, against
the per-line oracle over line ends, blank lines, bad lines, chunk sizes and
byte windows."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar import textio
from multipar.datagen import DatagenError, Direction, read_bitext_tsv
from multipar.textio import lines_before, read_record_chunks, read_records

from oracles import read_records_per_line as oracle


class InputError(ValueError):
    pass


FIELDS = st.sampled_from(["", "de", "nl", "en", "a b", "é", "a-b", " ", "€x"])
CODES = st.sampled_from(["de", "nl", "en", "de", "a-b", ""])
LINES = st.one_of(
    st.tuples(CODES, CODES, FIELDS, FIELDS).map("\t".join),
    st.lists(FIELDS, min_size=1, max_size=5).map("\t".join),
    st.sampled_from(["", " ", "\t \t", "\x0b", "\t"]),
)
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# a file of lines with mixed line ends, then a tail that may lack a line end
# or hold invalid UTF-8
FILE_BYTES = st.one_of(
    st.builds(
        lambda lines, tail: "".join(line + end for line, end in lines).encode() + tail,
        st.lists(st.tuples(LINES, ENDS), max_size=30),
        st.sampled_from([b"", b"x", b"de\tnl\ty\tz", b"\xff", b"\xc3", b"a\r\xff\n"]),
    ),
    st.binary(max_size=40),
)
CHUNKS = st.sampled_from([1, 2, 3, 5, 16, textio.CHUNK_CHARS])


def collect(items, error=InputError):
    """The items yielded, and the message of the error raised, or None."""
    out = []
    try:
        for item in items:
            out.append(item)
    except error as exc:
        return out, str(exc)
    return out, None


def windowed(path, width, sep, cuts):
    """``(lineno, fields)`` of the records of the windows between ``cuts``,
    each window read alone, with the lines before it added to its numbers."""
    for a, b in zip(cuts, cuts[1:]):
        before = lines_before(path, a) if a else 0
        for numbers, rows in read_record_chunks(path, width, InputError, a, b, sep):
            yield from ((before + n, fields) for n, fields in zip(numbers, rows))


def oracle_bitext(path):
    """The fields of ``records.tsv`` that ``read_bitext_tsv`` yields, per
    record, stopping at the first bad record or direction."""
    for lineno, fields in oracle.read_records(path, 4, DatagenError):
        try:
            Direction(fields[0], fields[1])
        except DatagenError as exc:
            raise DatagenError(f"{path}:{lineno}: {exc}") from None
        yield fields


def block_records(directory, cuts):
    for a, b in zip(cuts, cuts[1:]):
        for direction, sources, targets, positions in read_bitext_tsv(directory, a, b):
            for p in positions:
                yield [direction.src, direction.tgt, sources[p], targets[p]]


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(max_examples=300, deadline=None)
@given(FILE_BYTES, st.integers(1, 4), st.sampled_from(["\t", None]), CHUNKS, st.data())
@example(b"de\tnl\ta\tb\n\n \nde\tnl\tc\r\nx\n", 4, "\t", 2, None)
@example(b"de\tnl\ta\tb\rde\tde\tc\td\r", 4, "\t", 3, None)
@example(b"a\tb\n\xff\n", 2, "\t", 1, None)
def test_chunked_records_equal_the_per_line_oracle(directory, data, width, sep, chunk, draw):
    path = directory / "records.tsv"
    path.write_bytes(data)
    size = len(data)
    cuts = [0, size] if draw is None else sorted(
        draw.draw(st.lists(st.integers(0, size), max_size=4)) + [0, size])
    with mock.patch.object(textio, "CHUNK_CHARS", chunk):
        expected = collect(oracle.read_records(path, width, InputError, sep))
        assert collect(read_records(path, width, InputError, sep)) == expected
        assert collect(windowed(path, width, sep, cuts)) == expected
        # records.tsv: four tab-separated fields and a valid direction
        got = collect(block_records(directory, cuts), DatagenError)
        assert got == collect(oracle_bitext(path), DatagenError)
