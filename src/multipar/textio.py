"""The one reader of text inputs.

Every text input is UTF-8.  LF, CRLF and CR all end a line, and a final line
end closes the last line rather than opening an empty one.  Line-aligned files
(corpus columns, ``score`` hypotheses and references) keep every line, since a
blank line there is a value.  Record files skip a whitespace-only line that
lacks the expected field count.  Errors are raised as the caller's exception
class and name ``<file>:<line>``, or the file when it cannot be read.  JSON
inputs are read the same way, and malformed JSON names ``<file>:<line>:<col>``.
"""

from __future__ import annotations

import codecs
import json
from itertools import chain
from pathlib import Path
from typing import Iterator


# characters read per chunk: reading and splitting a prep records.tsv ran
# faster at 64K than at 256K or 1M
CHUNK_CHARS = 1 << 16


def read_line_chunks(path: str | Path, error: type[Exception]) -> Iterator[list[str]]:
    """Yield the lines of a UTF-8 file without their line ends, streaming, in
    lists read about ``CHUNK_CHARS`` characters at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            parts: list[str] = []  # the text after the last line end read
            while text := fh.read(CHUNK_CHARS):
                parts.append(text)
                if "\n" in text:
                    lines = "".join(parts).split("\n")
                    parts = [lines.pop()]
                    yield lines
            if tail := "".join(parts):
                yield [tail]
    except UnicodeDecodeError:
        raise error(f"{path}:{_first_bad_line(path)}: invalid UTF-8") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def read_lines(path: str | Path, error: type[Exception]) -> Iterator[str]:
    """Yield each line of a UTF-8 file without its line end, streaming."""
    return chain.from_iterable(read_line_chunks(path, error))


def _first_bad_line(path: str | Path) -> int:
    """Line of the first undecodable byte, found by re-reading the bytes
    ``CHUNK_CHARS`` at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, cr = 1, False  # cr: the bytes counted end in CR
    with open(path, "rb") as fh:
        while block := fh.read(CHUNK_CHARS):
            try:
                decoder.decode(block)
            except UnicodeDecodeError as exc:
                # the object starts with the unfinished character the decoder
                # held back, which holds no line end
                return line + _line_ends(exc.object[:exc.start], cr)
            line += _line_ends(block, cr)
            cr = block.endswith(b"\r")
    return line  # the file ends inside a character


def _line_ends(data: bytes, cr: bool) -> int:
    """Line ends in ``data``, after bytes that end in CR when ``cr``."""
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends - (cr and data.startswith(b"\n"))


def read_records(
    path: str | Path, width: int, error: type[Exception], sep: str | None = "\t"
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line that splits on ``sep`` (None:
    whitespace) into exactly ``width`` fields, skip any other whitespace-only
    line, and reject the rest."""
    for lineno, line in enumerate(read_lines(path, error), 1):
        fields = line.split(sep)
        if len(fields) == width:
            yield lineno, fields
        elif line.strip():
            raise error(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")


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
