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

import json
from pathlib import Path
from typing import Iterator


def read_lines(path: str | Path, error: type[Exception]) -> Iterator[str]:
    """Yield each line of a UTF-8 file without its line end, streaming."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield line.rstrip("\n")
    except UnicodeDecodeError:
        raise error(f"{path}:{_first_bad_line(path)}: invalid UTF-8") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _first_bad_line(path: str | Path) -> int:
    """Line of the first undecodable byte, found by re-reading the bytes."""
    data = Path(path).read_bytes()
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    head = data[:start]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


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
