import numpy as np
import pytest

from sicheck import DataError, Dataset, ModelKind, Scenario, generate, load_dataset, save_dataset
from sicheck.dataset import MIN_ROWS


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
