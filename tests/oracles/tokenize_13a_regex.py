"""Regex-based 13a tokenizer, kept as an oracle for ``metrics.tokenize_13a``.

This is the tokenizer the library used before its padding became a
``str.translate`` table: one group-template substitution per rule, each
applied to the whole string whether or not the rule can match.  It agrees
with the reference scorer on the frozen fixture's 50 strings.
"""

import re

PAD = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
DOT_BEFORE = re.compile(r"([^0-9])([\.,])")
DOT_AFTER = re.compile(r"([\.,])([^0-9])")
DIGIT_DASH = re.compile(r"([0-9])(-)")


def tokenize_13a(text):
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = PAD.sub(r" \1 ", f" {norm} ")
    norm = DOT_BEFORE.sub(r"\1 \2 ", norm)
    norm = DOT_AFTER.sub(r" \1 \2", norm)
    norm = DIGIT_DASH.sub(r"\1 \2 ", norm)
    return norm.split()
