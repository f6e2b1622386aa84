"""The score TSV (``src_lang tgt_lang metric value count``): the bytes
``score`` writes, and every error ``report`` gives for a bad one, in the
order its checks run."""

import pytest
from hypothesis import example, given, strategies as st

from multipar.cli import main
from multipar.datagen import Direction
from multipar.report import load_scores, save_scores

HEADER = "src_lang\ttgt_lang\tmetric\tvalue\tcount\n"


@pytest.mark.parametrize(
    "metric, value",
    [("chrf", "48.451167046636023"), ("chrfpp", "48.88381221202421"),
     ("bleu", "33.180774028439423")],
)
def test_score_bytes_are_pinned(tmp_path, metric, value):
    (tmp_path / "hyp.txt").write_text("the cat sat on the mat\nhello wörld, 42!\n\n",
                                      encoding="utf-8")
    (tmp_path / "ref.txt").write_text("the cat sat on a mat\nhello there world 42\nx\n",
                                      encoding="utf-8")
    out = tmp_path / "out"
    assert main(["score", "--hypotheses", str(tmp_path / "hyp.txt"),
                 "--references", str(tmp_path / "ref.txt"), "--metric", metric,
                 "--src-lang", "de", "--tgt-lang", "en", "--out", str(out)]) == 0
    assert (out / "scores.tsv").read_bytes() == (
        f"{HEADER}de\ten\t{metric}\t{value}\t3\n".encode()
    )


CELL = "de\tnl\tchrf\t1\t0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{p}: missing or malformed header"),
        (CELL, "{p}: missing or malformed header"),
        (HEADER.replace("count", "n") + CELL, "{p}: missing or malformed header"),
        (HEADER + "de\tnl\tchrf\t1\n", "{p}:2: expected 5 fields"),
        (HEADER + "de\tnl\tchrf\t1\t0\t\n", "{p}:2: expected 5 fields"),
        (HEADER + "de\tde\tchrf\t1\t0\n", "{p}:2: direction with identical endpoints 'de'"),
        (HEADER + "\tnl\tchrf\t1\t0\n", "{p}:2: direction with an empty language code ''-'nl'"),
        (HEADER + "de\tnl\tchrf\tx\t0\n", "{p}:2: could not convert string to float: 'x'"),
        (HEADER + "de\tnl\tchrf\t1\t1.5\n",
         "{p}:2: invalid literal for int() with base 10: '1.5'"),
        (HEADER + "de\tnl\tchrf\tnan\t0\n", "{p}:2: non-finite value nan"),
        (HEADER + "de\tnl\tchrf\t1e309\t0\n", "{p}:2: non-finite value inf"),
        (HEADER + "de\tnl\tchrf\t1\t-1\n", "{p}:2: cell count must be >= 0"),
        (HEADER + "\n" + CELL + CELL, "{p}:4: duplicate cell de-nl/chrf (first at line 3)"),
        # each line's first failing check names it: the direction before the
        # value, the value before the count, a duplicate before a bad value
        (HEADER + "de\tde\tchrf\tx\t0\n", "{p}:2: direction with identical endpoints 'de'"),
        (HEADER + "de\tnl\tchrf\tx\ty\n", "{p}:2: could not convert string to float: 'x'"),
        (HEADER + "de\tnl\tchrf\tnan\t-1\n", "{p}:2: non-finite value nan"),
        (HEADER + CELL + "de\tnl\tchrf\tnan\t-1\n",
         "{p}:3: duplicate cell de-nl/chrf (first at line 2)"),
        # a line in error is no first line of a later duplicate
        (HEADER + "de\tnl\tchrf\tnan\t0\n" + CELL, "{p}:2: non-finite value nan"),
        (HEADER + CELL + CELL + "x\n \n" + "de\tnl\tbleu\tinf\t-1\n" + "nl\tde\tchrf\t1\tz\n",
         "{p}:3: duplicate cell de-nl/chrf (first at line 2); {p}:4: expected 5 fields; "
         "{p}:6: non-finite value inf; {p}:7: invalid literal for int() with base 10: 'z'"),
    ],
)
def test_report_names_every_bad_score_line(tmp_path, capsys, text, message):
    scores = tmp_path / "scores.tsv"
    scores.write_text(text, encoding="utf-8")
    out = tmp_path / "report"
    assert main(["report", "--scores", str(scores), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"multipar report: error: {message.format(p=scores)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scores, baseline, message",
    [
        # the first cell in sorted order that overflows names the error
        ("de\tnl\tchrf\t1e308\t3\nnl\tde\tchrf\t-1e308\t2\n",
         "de\tnl\tchrf\t-1e308\t1\nnl\tde\tchrf\t1e308\t5\n", "non-finite value inf"),
        ("de\tnl\tchrf\t-1e308\t1\nnl\tde\tchrf\t1e308\t5\n",
         "de\tnl\tchrf\t1e308\t3\nnl\tde\tchrf\t-1e308\t2\n", "non-finite value -inf"),
        ("de\tnl\tchrf\t1\t1\nnl\tde\tchrf\t1\t1\n", "de\tnl\tchrf\t1\t1\nde\tfr\tbleu\t1\t1\n",
         "cell key mismatch; only in first: ['nl-de/chrf']; only in second: ['de-fr/bleu']"),
    ],
)
def test_report_baseline_errors(tmp_path, capsys, scores, baseline, message):
    (tmp_path / "scores.tsv").write_text(HEADER + scores, encoding="utf-8")
    (tmp_path / "baseline.tsv").write_text(HEADER + baseline, encoding="utf-8")
    out = tmp_path / "report"
    assert main(["report", "--scores", str(tmp_path / "scores.tsv"),
                 "--baseline", str(tmp_path / "baseline.tsv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"multipar report: error: {message}\n"
    assert not out.exists()


def test_report_baseline_delta_keeps_the_smaller_count(tmp_path):
    (tmp_path / "scores.tsv").write_text(HEADER + "de\tnl\tchrf\t-0.5\t7\n", encoding="utf-8")
    (tmp_path / "baseline.tsv").write_text(HEADER + "de\tnl\tchrf\t0.25\t3\n", encoding="utf-8")
    out = tmp_path / "report"
    assert main(["report", "--scores", str(tmp_path / "scores.tsv"), "--baseline",
                 str(tmp_path / "baseline.tsv"), "--format", "tsv", "--out", str(out)]) == 0
    assert (out / "scores.tsv").read_text(encoding="utf-8") == HEADER + "de\tnl\tchrf\t-0.75\t3\n"


CODES = ("de", "en", "fr", "nl")
KEYS = st.tuples(
    st.tuples(st.sampled_from(CODES), st.sampled_from(CODES))
    .filter(lambda pair: pair[0] != pair[1]).map(lambda pair: Direction(*pair)),
    st.sampled_from(["bleu", "chrf", "comet"]),
)
CELLS = st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(min_value=0, max_value=2**63))


@given(st.dictionaries(KEYS, CELLS, max_size=8))
@example({(Direction("de", "nl"), "chrf"): (-0.0, 0),
          (Direction("nl", "de"), "chrf"): (5e-324, 2**63),
          (Direction("de", "nl"), "bleu"): (1e308, 1),
          (Direction("nl", "de"), "bleu"): (-1e308, 1)})
def test_scores_round_trip_through_the_tsv(tmp_path_factory, cells):
    path = tmp_path_factory.mktemp("scores") / "scores.tsv"
    save_scores(cells, path)
    loaded = load_scores(path)
    # repr tells -0.0 from 0.0, which == does not
    assert {k: (repr(v), n) for k, (v, n) in loaded.items()} == {
        k: (repr(v), n) for k, (v, n) in cells.items()
    }
