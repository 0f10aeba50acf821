import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sicheck import DataError, Dataset, ModelKind, Scenario, generate, load_dataset, save_dataset
from sicheck.dataset import MIN_ROWS, _load_by_cell, _load_streamed


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(x=np.ones(3), y=np.ones(3))
    with pytest.raises(DataError):
        Dataset(x=np.ones((3, 2)), y=np.ones((3, 1)))
    with pytest.raises(DataError):
        Dataset(x=np.ones((3, 2)), y=np.ones(4))
    with pytest.raises(DataError):
        Dataset(x=np.array([[np.nan, 1.0]]), y=np.array([1.0]))
    data = Dataset(x=np.ones((4, 2)), y=np.zeros(4))
    assert data.n == 4 and data.p == 2


def test_load_rejects_too_few_rows(tmp_path):
    path = write(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "3 data rows" in str(err.value)
    assert str(MIN_ROWS) in str(err.value)


def test_load_reports_bad_cell_location(tmp_path):
    rows = "\n".join(f"{i},2,3" for i in range(1, 11))
    path = write(tmp_path, "x1,x2,y\n" + rows.replace("6,2,3", "6,NA,3") + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    msg = str(err.value)
    assert "row 7" in msg and "x2" in msg and "NA" in msg


def test_load_rejects_non_finite(tmp_path):
    rows = "\n".join("1,2,3" for _ in range(10))
    path = write(tmp_path, "x1,x2,y\n" + rows.replace("1,2,3", "1,inf,3", 1) + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "non-finite" in str(err.value)


def test_load_requires_y_column(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "'y'" in str(err.value)


def test_load_rejects_duplicate_y_column(tmp_path):
    rows = "\n".join(f"{i},2,3" for i in range(1, 11))
    path = write(tmp_path, "y,x1,y\n" + rows + "\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    msg = str(err.value)
    assert "exactly one column 'y'" in msg and "['y', 'x1', 'y']" in msg


def test_load_rejects_ragged_rows(tmp_path):
    body = "\n".join("1,2,3" for _ in range(9))
    path = write(tmp_path, "x1,x2,y\n" + body + "\n1,2\n")
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert "row 11" in str(err.value)


def test_load_rejects_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DataError):
        load_dataset(path)


def test_load_parses_clean_file(tmp_path):
    body = "\n".join(f"{i},{2 * i},{3 * i}" for i in range(1, 13))
    path = write(tmp_path, "x1,x2,y\n" + body + "\n")
    data = load_dataset(path)
    assert data.n == 12 and data.p == 2
    assert data.y == pytest.approx(3.0 * np.arange(1, 13))


@pytest.mark.parametrize("first_cell", ["1", "1_000"], ids=["c-parser", "python-reader"])
def test_load_gives_y_its_own_buffer(tmp_path, first_cell):
    # a view of the parsed table would keep all p + 1 columns alive
    body = "\n".join(f"{i},{2 * i},{3 * i}" for i in range(1, 13))
    path = write(tmp_path, "x1,x2,y\n" + first_cell + body[1:] + "\n")
    data = load_dataset(path)
    assert data.y.flags.owndata and data.x.flags.owndata
    assert data.y == pytest.approx(3.0 * np.arange(1, 13))


def test_load_respects_column_order_with_y_first(tmp_path):
    body = "\n".join(f"{3 * i},{i},{2 * i}" for i in range(1, 13))
    path = write(tmp_path, "y,x1,x2\n" + body + "\n")
    data = load_dataset(path)
    assert data.y == pytest.approx(3.0 * np.arange(1, 13))
    assert data.x[:, 0] == pytest.approx(np.arange(1.0, 13.0))


def test_load_skips_a_byte_order_mark(tmp_path):
    body = "\n".join(f"{3 * i},{i},{2 * i}" for i in range(1, 13))
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + ("y,x1,x2\n" + body + "\n").encode())
    data = load_dataset(path)
    assert data.y == pytest.approx(3.0 * np.arange(1, 13))
    assert data.x[:, 0] == pytest.approx(np.arange(1.0, 13.0))


def test_load_refuses_undecodable_bytes(tmp_path):
    body = "\n".join(f"{i},{2 * i},{3 * i}" for i in range(1, 13))
    path = tmp_path / "latin1.csv"
    path.write_bytes("x1,x\xe9,y\n".encode("latin-1") + body.encode() + b"\n")
    with pytest.raises(DataError, match="UTF-8") as err:
        load_dataset(path)
    assert str(path) in str(err.value)


def test_round_trip_is_exact(tmp_path):
    scn = Scenario(model=ModelKind.CUBIC, n=25, p=3, c=0.7, seed=123)
    data = generate(scn)
    path = tmp_path / "sim.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)


def outcome(load, path):
    """What a reader makes of a file: its Dataset, or the text of its error."""
    try:
        return load(path)
    except DataError as exc:
        return str(exc)


def assert_same_outcome(path):
    got, want = outcome(load_dataset, path), outcome(_load_by_cell, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, Dataset)
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)


finite = st.floats(allow_nan=False, allow_infinity=False)
number = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.17g" % v),
    st.integers(-10**20, 10**20).map(str),
    st.builds(lambda sign, digits, mark, exp: f"{sign}{digits}{mark}{exp}",
              st.sampled_from(["", "+", "-"]), st.sampled_from(["1", "2.5", ".5", "7.", "0"]),
              st.sampled_from(["e", "E"]), st.integers(-300, 300)),
)
pad = st.sampled_from(["", " ", "\t", "  ", " \t"])
clean_cell = st.one_of(
    number,
    st.builds(lambda a, text, b: a + text + b, pad, number, pad),
    st.builds(lambda a, text, b: f'"{a}{text}{b}"', pad, number, pad),
)
odd_cell = st.sampled_from(
    ["1_000", "\u0661\u0662", "nan", "-inf", "inf", "1e500", "", " ", '""', "NA", "0x10",
     '"1"5', ' "1"', '"1""2"', '"1\n"', '"\r\n2"', "\xa01", "1\x00"]
)
odd_line = st.sampled_from(["", " ", "\t", "#", "# note", "#1,2,3"])


@given(data=st.data())
def test_load_dataset_matches_the_python_reader(tmp_path_factory, data):
    draw = data.draw
    k = draw(st.integers(2, 3))
    header = [f"x{j + 1}" for j in range(k - 1)]
    header.insert(draw(st.integers(0, k - 1)), "y")
    rows = draw(st.lists(st.lists(clean_cell, min_size=k, max_size=k), min_size=MIN_ROWS - 1,
                         max_size=MIN_ROWS + 3))
    lines = [",".join(row) for row in rows]
    edits = draw(st.lists(st.tuples(st.sampled_from(["cell", "ragged", "line"]),
                                    st.integers(0, len(lines) - 1)), max_size=2))
    for kind, at in edits:
        cells = lines[at].split(",")
        if kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(odd_cell)
            lines[at] = ",".join(cells)
        elif kind == "ragged":
            extra = draw(st.sampled_from([None, "", "1"]))
            lines[at] = ",".join(cells[:-1] if extra is None else cells + [extra])
        else:
            lines.insert(at, draw(odd_line))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([",".join(header)] + lines) + draw(st.sampled_from([eol, ""]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(bom + text.encode())
    assert_same_outcome(path)
    if not edits and len(lines) >= MIN_ROWS:
        assert _load_streamed(path) is not None  # the C parser took the clean table


BODY = "".join(f"{i},{2 * i},{3 * i}\n" for i in range(1, 13))


@pytest.mark.parametrize("text, row", [
    ("x1," + "x" * 200_000 + ",y\n" + BODY, 1),
    ("x1,x2,y\n" + BODY + '1,"' + "\n" * 140_000 + '",2\n', 14),
], ids=["header", "multi-line-cell"])
def test_load_names_the_record_of_a_cell_beyond_the_field_limit(tmp_path, text, row):
    # the row is the record, as in every other message, not the physical line
    path = write(tmp_path, text)
    with pytest.raises(DataError, match=f"row {row}: field larger than field limit"):
        load_dataset(path)


@pytest.mark.parametrize("text, message", [
    ("x1,x2,y\n" + BODY.replace("6,12,18\n", "6,12,18\n\n"), "row 8: expected 3 cells, found 0"),
    ("x1,x2,y\n" + BODY + "\n", "row 14: expected 3 cells, found 0"),
    ("x1,x2,y\n" + BODY.replace("\n", ",\n"), "row 2: expected 3 cells, found 4"),
    ("x1,x2,y\n" + BODY.replace("\n", ",0\n"), "row 2: expected 3 cells, found 4"),
    ("x1,x2,x3,y\n" + BODY, "row 2: expected 4 cells, found 3"),
    ("x1,x2,y\n" + BODY.replace("7,", "1e500,"), "row 8, column 'x1': non-finite cell '1e500'"),
    ("x1,x2,y\n#1,2,3\n" + BODY, "row 2, column 'x1': non-numeric cell '#1'"),
    ("x1,x2,y\n", "parsed 0 data rows"),
    (b"x1,x2,y\n" + BODY.replace("7,", "\xe9,").encode("latin-1"), "not UTF-8 text"),
], ids=["blank-line-mid-file", "blank-line-before-eof", "trailing-comma", "extra-column",
        "short-rows", "overflow", "comment-line", "header-only", "undecodable-body"])
def test_load_refuses_what_the_c_parser_would_take(tmp_path, text, message):
    # np.loadtxt would skip the blank lines and the '#' line (by default), warn
    # on the empty body, take a table one column wider or narrower than the
    # header and read 1e500 as inf; each file gets the Python reader's refusal
    path = tmp_path / "data.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message) as err:
            load_dataset(path)
    assert str(err.value) == outcome(_load_by_cell, path)
