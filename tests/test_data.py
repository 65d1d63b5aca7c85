import numpy as np
import pytest

from dcreg import data
from dcreg.data import (MM, NOFS, STD, DataError, Dataset, SyntheticGen,
                        apply_scaling, load_csv, read_csv_matrix)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan]]), np.zeros(1))
    with pytest.raises(DataError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    ds = Dataset([[1.0, 2.0]], [3.0])
    assert (ds.n, ds.d) == (1, 2)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,1\n2,3\n")
    ds = load_csv(path)
    assert (ds.n, ds.d) == (2, 1)
    assert np.array_equal(ds.X.ravel(), [0.0, 2.0])
    assert np.array_equal(ds.y, [1.0, 3.0])


def test_load_csv_no_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1,5\n2,3,6\n")
    ds = load_csv(path)
    assert ds.d == 2
    assert np.array_equal(ds.y, [5.0, 6.0])


def test_load_csv_response_col_by_index_and_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    ds = load_csv(path, response_col=0)
    assert np.array_equal(ds.y, [1.0, 4.0])
    ds = load_csv(path, response_col="b")
    assert np.array_equal(ds.y, [2.0, 5.0])
    with pytest.raises(DataError):
        load_csv(path, response_col="zz")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")


def test_load_csv_bad_cell_names_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"\(3, 2\)"):
        load_csv(path)


def test_load_csv_rejects_nan(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_apply_scaling_mm():
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([1.0, 3.0]))
    scaled, spec = apply_scaling(ds, MM)
    assert np.array_equal(scaled.X.ravel(), [0.0, 1.0])
    # responses standardized with the n-1 convention
    assert np.allclose(scaled.y, [-1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_scaling_std():
    ds = Dataset(np.array([[0.0], [2.0]]), np.array([0.0, 1.0]))
    scaled, spec = apply_scaling(ds, STD)
    assert np.allclose(scaled.X.ravel(), [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    # unit sample variance
    assert np.std(scaled.X[:, 0], ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_apply_scaling_nofs_keeps_x():
    ds = Dataset(np.array([[5.0], [9.0]]), np.array([0.0, 10.0]))
    scaled, spec = apply_scaling(ds, NOFS)
    assert np.array_equal(scaled.X, ds.X)
    assert spec.y_std == pytest.approx(np.std(ds.y, ddof=1))
    assert np.mean(scaled.y) == pytest.approx(0.0, abs=1e-15)


def test_apply_scaling_constant_column():
    ds = Dataset(np.array([[1.0, 0.0], [1.0, 2.0]]), np.array([0.0, 1.0]))
    for mode in (MM, STD):
        scaled, spec = apply_scaling(ds, mode)
        assert np.isfinite(scaled.X).all()
        assert spec.scale[0] == 1.0


def test_scaling_round_trip():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((50, 3)) * 5 + 2, rng.standard_normal(50))
    for mode in (MM, STD, NOFS):
        scaled, spec = apply_scaling(ds, mode)
        back_x = scaled.X * spec.scale + spec.shift
        back_y = spec.invert_y(scaled.y)
        assert np.allclose(back_x, ds.X, rtol=1e-12, atol=1e-12)
        assert np.allclose(back_y, ds.y, rtol=1e-12, atol=1e-12)


def test_apply_scaling_unknown_mode():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        apply_scaling(ds, "zscore")


def test_synthetic_generators():
    for target, d in (("xsinx", 1), ("pw_linear", 1), ("normsq", 3),
                      ("random_lipschitz", 2)):
        gen = SyntheticGen(target=target, d=d, noise_sigma=0.1)
        ds, clean = gen.sample(100, seed=4)
        assert ds.n == 100 and ds.d == d
        assert clean.shape == (100,)
        # same seed reproduces; noiseless returns the clean values
        ds2, clean2 = gen.sample(100, seed=4)
        assert np.array_equal(ds.X, ds2.X)
        assert np.array_equal(ds.y, ds2.y)
        ds3, clean3 = gen.sample(100, seed=4, noiseless=True)
        assert np.array_equal(ds3.y, clean3)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        SyntheticGen(target="xsinx", d=2)
    with pytest.raises(ValueError):
        SyntheticGen(target="unknown")
    with pytest.raises(ValueError):
        SyntheticGen(target="normsq", d=2, noise_sigma=-1.0)


def test_reported_mse_identity():
    # raw-unit MSE equals standardized MSE times the response variance scale
    rng = np.random.default_rng(9)
    ds = Dataset(rng.standard_normal((40, 2)), rng.standard_normal(40) * 3 + 1)
    _, spec = apply_scaling(ds, STD)
    preds_std = rng.standard_normal(40)
    raw_mse = np.mean((spec.invert_y(preds_std) - ds.y) ** 2)
    std_mse = np.mean((preds_std - spec.transform_y(ds.y)) ** 2)
    assert raw_mse == pytest.approx(std_mse * spec.y_std ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# the bulk reader against the strict cell-by-cell reader

def _edge_matrix():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((64, 6)) * 10.0 ** rng.integers(-12, 12, (64, 6))
    specials = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.0, -0.0,
                1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                0.1 + 0.2, 1 / 3, 2.0 ** 52 + 1, 123456789.12345678]
    M.ravel()[:len(specials)] = specials
    return M


def test_bulk_reader_bits_match_float(tmp_path):
    M = _edge_matrix()
    cells = [[repr(v) for v in row] for row in M.tolist()]
    # more digits than a double holds: the rounding of the text must agree too
    cells += [[f"{v:.25e}" for v in row] for row in M[:8].tolist()]
    path = tmp_path / "m.csv"
    path.write_text("".join(",".join(row) + "\n" for row in cells))
    expected = np.array([[float(c) for c in row] for row in cells])
    with open(path, newline="") as fh:
        parsed = data._parse_bulk(fh)
    assert parsed is not None, "the bulk path must accept a plain numeric file"
    header, rows = parsed
    assert header is None
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
    _, rows = read_csv_matrix(path)
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))


def _outcomes(path):
    """What read_csv_matrix and load_csv (two response columns) make of a file."""
    out = []
    for read in (read_csv_matrix, load_csv, lambda p: load_csv(p, response_col=0)):
        try:
            got = read(path)
        except DataError as exc:
            out.append(("error", str(exc)))
            continue
        header, arrays = got if isinstance(got, tuple) else (None, (got.X, got.y))
        out.append(("ok", header, [(a.shape, a.view(np.int64).tobytes()) for a in arrays]))
    return out


# (name, file text, whether the bulk path accepts it as it stands)
_SHAPES = [
    ("header", "x,y\n0.5,1\n-2,3e-3\n", True),
    ("padded", " 1 , 2\t\n3,  4 \n", True),
    ("quoted", '"x","y"\n"1",2\n3,"4"\n', True),
    ("crlf", "x,y\r\n1,2\r\n3,4\r\n", True),
    ("blank_lines", "1,2\n\n3,4\n\n", True),
    ("whitespace_line", "1,2\n   \n3,4\n", False),
    ("leading_blank", "\n \nx,y\n1,2\n", False),
    ("blank_first_row", " , \n1,2\n3,4\n", False),
    ("comma_rows", "1,2\n,\n3,4\n, ,\n", False),
    ("underscore", "1_0,2\n3,4\n", False),
    ("nan", "a,b\n1,2\n3,nan\n", False),
    ("inf", "1,inf\n3,4\n", False),
    ("overflow", "1,2\n1e400,4\n", False),
    ("ragged", "1,2\n3\n", False),
    ("ragged_header", "a,b\n1,2\n3,4,5\n", False),
    ("non_numeric", "a,b\n1,2\n3,oops\n", False),
    ("trailing_comma", "1,2,\n3,4,\n", False),
    ("multiline_header", '"x\n1",2\n3,4\n', False),
    ("text_after_quote", '"1"5,2\n3,4\n', False),
    ("one_column", "1\n2\n", True),
    ("header_only", "x,y\n", False),
    ("empty", "", False),
]


@pytest.mark.parametrize("name,text,bulk", _SHAPES, ids=[s[0] for s in _SHAPES])
def test_load_csv_matches_strict_reader(tmp_path, monkeypatch, name, text, bulk):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    with open(path, newline="") as fh:
        assert (data._parse_bulk(fh) is not None) == bulk
    got = _outcomes(path)
    monkeypatch.setattr(data, "_parse_bulk", lambda fh: None)
    assert got == _outcomes(path)


def test_load_csv_non_finite_names_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,-inf\n")
    with pytest.raises(DataError, match=r"non-finite cell at \(3, 2\): '-inf'"):
        load_csv(path)


def test_read_csv_matrix_keeps_every_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x\n0.25\n-1.5\n")
    header, rows = read_csv_matrix(path)
    assert header == ["x"]
    assert rows.shape == (2, 1)
    assert np.array_equal(rows[:, 0], [0.25, -1.5])
    with pytest.raises(DataError, match="needs at least 2 columns"):
        load_csv(path)
