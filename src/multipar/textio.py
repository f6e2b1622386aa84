"""The one reader of text inputs.

Every text input is UTF-8.  LF, CRLF and CR all end a line, and a final line
end closes the last line rather than opening an empty one.  Line-aligned files
(corpus columns, ``score`` hypotheses and references) keep every line, since a
blank line there is a value.  Every record file but the score TSV is read
by ``read_record_chunks``, which skips a whitespace-only line that lacks the
expected field count; ``report.load_scores`` splits the score TSV's lines
itself, so that one error names every bad line.  Errors are raised as the
caller's exception class and name ``<file>:<line>``, or the file when it
cannot be read.  JSON inputs are read the same way, and malformed JSON names
``<file>:<line>:<col>``.

A file is read in binary chunks decoded incrementally, so a byte window of it
can be read alone: its lines are those that start after an LF in it, so a
cut never splits a CRLF or a character, and the windows between increasing
offsets hold every line once.  The lines before a bad byte are read before
its error, so the first bad line of a file is the first met at any cut.
"""

from __future__ import annotations

import codecs
import json
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Sequence


# bytes read per chunk: reading and splitting a 26.5 MB prep records.tsv took
# 100-113 ms at 16K to 256K and 138 ms at 1M (medians of 7)
CHUNK_CHARS = 1 << 16


def _line_start(fh, offset: int, limit: int | None = None) -> int:
    """The first offset at or after ``offset`` of the binary file ``fh`` that
    starts a line after an LF, or the file's end: a cut there splits neither
    a CRLF nor a character.  Given ``limit``, the scan reads no byte that
    could only start a line at or after it, and returns ``limit`` when no
    line starts before it."""
    if offset <= 0:
        return 0
    fh.seek(offset - 1)
    left = -1 if limit is None else max(limit - offset, 0)  # bytes left to scan
    while block := fh.read(CHUNK_CHARS if left < 0 else min(CHUNK_CHARS, left)):
        left -= len(block)
        at = block.find(b"\n")
        if at >= 0:
            return fh.tell() - len(block) + at + 1
    return fh.tell() if limit is None else limit


def lines_before(path: str | Path, offset: int) -> int:
    """The lines of a file that end before its first line start at or after
    ``offset``: the lines before the window that starts at ``offset``."""
    ends, cr = 0, False  # cr: the bytes counted end in CR
    with open(path, "rb") as fh:
        stop = _line_start(fh, offset)
        fh.seek(0)
        while block := fh.read(min(CHUNK_CHARS, stop - fh.tell())):
            ends += _line_ends(block, cr)
            cr = block.endswith(b"\r")
    return ends


def read_line_chunks(
    path: str | Path, error: type[Exception], start: int = 0, stop: int | None = None
) -> Iterator[list[str]]:
    """Yield the lines of a UTF-8 file without their line ends, streaming, in
    lists read about ``CHUNK_CHARS`` bytes at a time.

    ``start`` and ``stop`` bound a byte window, whose lines are those that
    start after an LF (or at byte 0) in ``[start, stop)``, so the windows
    between any increasing offsets hold every line once.  The lines before a
    bad byte are yielded before the error naming its line, so the first bad
    line is the one met first, whatever the windows."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines_read = 0
    try:
        with open(path, "rb") as fh:
            start = _line_start(fh, start, stop)
            # bytes left in the window, or -1 to read to the end; none are
            # left in a window in which no line starts
            left = -1 if stop is None else (_line_start(fh, stop) - start if start < stop else 0)
            fh.seek(start)
            parts: list[str] = []  # the text after the last line end read
            cr = bad = False  # cr: a CR ended the text read, and an LF may follow
            while True:
                block = fh.read(CHUNK_CHARS if left < 0 else min(CHUNK_CHARS, left))
                left -= len(block)
                try:
                    text = decoder.decode(block, final=not block)
                except UnicodeDecodeError as exc:
                    # the bytes before the bad one are whole characters
                    text, block, bad = exc.object[:exc.start].decode("utf-8"), b"", True
                if cr:
                    text = "\r" + text
                cr = bool(block) and text.endswith("\r")
                if cr:
                    text = text[:-1]
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                parts.append(text)
                if "\n" in text:
                    lines = "".join(parts).split("\n")
                    parts = [lines.pop()]
                    lines_read += len(lines)
                    yield lines
                if not block:
                    break
            if bad:
                line = lines_read + 1 + lines_before(path, start)
                raise error(f"{path}:{line}: invalid UTF-8")
            if tail := "".join(parts):
                yield [tail]
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def read_lines(path: str | Path, error: type[Exception]) -> Iterator[str]:
    """Yield each line of a UTF-8 file without its line end, streaming."""
    return chain.from_iterable(read_line_chunks(path, error))


def _line_ends(data: bytes, cr: bool) -> int:
    """Line ends in ``data``, after bytes that end in CR when ``cr``."""
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends - (cr and data.startswith(b"\n"))


def read_record_chunks(
    path: str | Path, width: int, error: type[Exception], start: int = 0,
    stop: int | None = None, sep: str | None = "\t",
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """For each chunk that :func:`read_line_chunks` reads of a file or of its
    byte window, yield the numbers in the window and the fields of its lines
    that split on ``sep`` (None: whitespace) into ``width`` fields.  Other
    whitespace-only lines are skipped; any other line is an error naming
    ``<file>:<line>``, raised after the records before it are yielded."""
    read = 0  # lines read
    for lines in read_line_chunks(path, error, start, stop):
        rows = list(map(str.split, lines, repeat(sep)))
        numbers: Sequence[int] = range(read + 1, read + 1 + len(lines))
        read += len(lines)
        widths = list(map(len, rows))
        if widths.count(width) == len(rows):
            yield numbers, rows
            continue
        # the records before the first line that is neither one nor blank
        bad = next((i for i, line in enumerate(lines)
                    if widths[i] != width and line.strip()), len(lines))
        if keep := [i for i in range(bad) if widths[i] == width]:
            yield [numbers[i] for i in keep], [rows[i] for i in keep]
        if bad < len(lines):
            line = numbers[bad] + lines_before(path, start)
            raise error(f"{path}:{line}: expected {width} fields, got {widths[bad]}")


def read_records(
    path: str | Path, width: int, error: type[Exception], sep: str | None = "\t"
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each record of a file, as
    :func:`read_record_chunks` reads them."""
    for numbers, rows in read_record_chunks(path, width, error, sep=sep):
        yield from zip(numbers, rows)


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """Parse a UTF-8 file holding one JSON object; malformed JSON names
    ``<file>:<line>:<col>``."""
    try:
        document = json.loads("\n".join(read_lines(path, error)))
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply") from None
    if not isinstance(document, dict):
        raise error(f"{path}: expected a JSON object")
    return document
