"""Per-line record reader, kept as an oracle for ``multipar.textio``'s record
reader.

This is ``read_records`` as the library had it before records were read a
chunk at a time: every line that :func:`multipar.textio.read_lines` yields is
split on its own, so the rule for a record line reads directly.
"""

from multipar.textio import read_lines


def read_records(path, width, error, sep="\t"):
    """Yield ``(lineno, fields)`` for each line that splits on ``sep`` (None:
    whitespace) into exactly ``width`` fields, skip any other whitespace-only
    line, and reject the rest."""
    for lineno, line in enumerate(read_lines(path, error), 1):
        fields = line.split(sep)
        if len(fields) == width:
            yield lineno, fields
        elif line.strip():
            raise error(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
