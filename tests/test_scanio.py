import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emscan import load_points, save_points
from slow_oracles import line_by_line_load_points


def test_roundtrip_is_exact(tmp_path, rng):
    pts = rng.uniform(-100, 100, (200, 2)) * 10.0 ** rng.integers(-8, 8, (200, 1))
    path = tmp_path / "points.txt"
    save_points(path, pts)
    back = load_points(path)
    np.testing.assert_array_equal(back, pts)  # 17 significant digits round-trip


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# header\n\n1.5 -2.25\n   \n# tail\n3 4\n")
    np.testing.assert_array_equal(load_points(path), [[1.5, -2.25], [3.0, 4.0]])


def test_header_written(tmp_path):
    path = tmp_path / "points.txt"
    save_points(path, [(1.0, 2.0)], header="demo")
    assert path.read_text().startswith("# demo\n")


def test_empty_file_gives_empty_array(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert load_points(path).shape == (0, 2)


def test_wrong_column_count_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n3 4 5\n")
    with pytest.raises(ValueError, match=":2:"):
        load_points(path)


def test_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nx y\n")
    with pytest.raises(ValueError, match=":2:"):
        load_points(path)


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nnan 0\n")
    with pytest.raises(ValueError):
        load_points(path)


def test_scientific_notation_accepted(tmp_path):
    path = tmp_path / "sci.txt"
    path.write_text("1e-3 -2.5E2\n")
    np.testing.assert_allclose(load_points(path), [[1e-3, -250.0]])


def test_non_finite_names_the_first_such_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nnan 0\ninf 1\n")
    with pytest.raises(ValueError, match=":2:") as info:
        load_points(path)
    assert str(info.value) == f"{path}:2: non-finite coordinates: 'nan 0'"


def test_syntax_error_outranks_an_earlier_non_finite_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nan 0\n1 2\nx y\n")
    with pytest.raises(ValueError, match=":3: not a number pair"):
        load_points(path)


# Text-mode reading ends lines only at \n, \r\n and \r.  str.split treats all
# of these as whitespace, and str.splitlines would also end lines at the last five.
_BLANKS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_TOKEN_PIECES = [*"0123456789+-.eE_", "inf", "nan", "#"]
_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["nan", "-inf", "1e500", "-1e-400", "1_0", "-0.0"]),
    st.lists(st.sampled_from(_TOKEN_PIECES), min_size=1, max_size=6).map("".join))
_PAIR = st.tuples(_NUMBER, st.sampled_from(_BLANKS), _NUMBER).map("".join)
_LINE = st.one_of(_PAIR, st.sampled_from(["", " \t", "# note"]))
_POINT_TEXT = st.one_of(
    st.lists(st.sampled_from([*_TOKEN_PIECES, "\n", "\r", *_BLANKS]), max_size=40)
      .map("".join),
    st.builds(lambda lines, end, last: end.join(lines) + last, st.lists(_LINE, max_size=8),
              st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\n", "\r\n", "\r"])))


def _outcome(parse, path):
    try:
        return parse(path), None
    except ValueError as exc:
        return None, str(exc)


@settings(deadline=None, max_examples=400)
@given(text=_POINT_TEXT)
@example(text="1 2\r\n3 4\r\n")
@example(text="1 2\r3 4")
@example(text="1 2\n3 4")
@example(text="1 2 # note\n")
@example(text="1 2\x1c3 4\n")
@example(text="1\n")
@example(text="1 2 3\n")
@example(text="# only\n# comments\n")
def test_bulk_parse_matches_the_line_by_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "points.txt"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected, reference_error = _outcome(line_by_line_load_points, path)
    got, error = _outcome(load_points, path)
    if reference_error is None:
        assert error is None, error
        assert got.dtype == expected.dtype and got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
    elif reference_error == f"{path}: non-finite coordinates":
        # The reference names no line; load_points names the first whose
        # values are not both finite.
        with open(path, encoding="utf-8") as fh:
            rows = [(k, raw.strip()) for k, raw in enumerate(fh, start=1)
                    if raw.split() and not raw.split()[0].startswith("#")]
        lineno, line = next((k, line) for k, line in rows
                            if not all(map(math.isfinite, map(float, line.split()))))
        assert error == f"{path}:{lineno}: non-finite coordinates: {line!r}"
    else:
        assert error == reference_error
