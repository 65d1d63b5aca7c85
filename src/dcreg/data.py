"""Datasets, CSV ingestion, feature scaling, and synthetic generators."""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import targets as _targets

MM = "mm"
STD = "std"
NOFS = "nofs"
SCALING_MODES = (MM, STD, NOFS)

XSINX = "xsinx"
PW_LINEAR = "pw_linear"
NORMSQ = "normsq"
RANDOM_LIPSCHITZ = "random_lipschitz"
SYNTHETIC_TARGETS = (XSINX, PW_LINEAR, NORMSQ, RANDOM_LIPSCHITZ)

UNIFORM_CUBE = "uniform_cube"
GAUSSIAN = "gaussian"


class DataError(ValueError):
    """Raised for unreadable, non-numeric, or non-finite input data."""


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix X (n, d) with a response vector y (n,).

    X is stored column-major (Fortran order), the layout ``load_csv`` gives,
    so a fit does not depend on the memory layout the caller passed.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asfortranarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] < 1:
            raise DataError(f"X must be a (n>=1, d) matrix, got shape {np.shape(self.X)}")
        if y.shape[0] != X.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if not np.isfinite(X).all() or not np.isfinite(y).all():
            raise DataError("dataset contains non-finite values")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx])


def _parse_cell(text, row, col):
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"non-numeric cell at ({row}, {col}): {text!r}") from None
    if not np.isfinite(value):
        raise DataError(f"non-finite cell at ({row}, {col}): {text!r}")
    return value


def _header_of(cells):
    """Stripped cells if any of them is non-numeric (a header row), else None."""
    try:
        [float(c) for c in cells]
    except ValueError:
        return [c.strip() for c in cells]
    return None


def _parse_strict(fh, path, need_response):
    """Cell-by-cell reader: it defines which files are accepted and every error."""
    raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not raw:
        raise DataError(f"{path} contains no data rows")

    header = _header_of(raw[0])
    if header is not None:
        raw = raw[1:]
        if not raw:
            raise DataError(f"{path} contains a header but no data rows")

    ncols = len(raw[0])
    if need_response and ncols < 2:
        raise DataError(f"{path} needs at least 2 columns (features + response), got {ncols}")
    rows = np.empty((len(raw), ncols))
    offset = 2 if header is not None else 1
    for i, row in enumerate(raw):
        if len(row) != ncols:
            raise DataError(f"row {i + offset} has {len(row)} cells, expected {ncols}")
        for j, cell in enumerate(row):
            rows[i, j] = _parse_cell(cell.strip(), i + offset, j + 1)
    return header, rows


def _parse_bulk(fh):
    """The same (header, rows) as ``_parse_strict`` in one ``np.loadtxt`` call.

    Returns None wherever the result could differ from the strict reader's
    or the file may be rejected: a blank or multi-line first row, any cell
    numpy cannot parse, a ragged row, a blank row, no data, a non-finite value.
    numpy converts each cell with the same routine as ``float``, so the
    values it does return are bit-identical.
    """
    try:
        cells = next(csv.reader([fh.readline()], strict=True))
        if not any(c.strip() for c in cells):
            return None
        header = _header_of(cells)
        if header is None:
            fh.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data": checked below
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
    except (ValueError, csv.Error):
        return None
    if rows.size == 0 or not np.isfinite(rows).all():
        return None
    return header, rows


def read_csv_matrix(path, need_response=False):
    """(header or None, (n, ncols) float matrix) of a numeric CSV.

    A non-numeric first row is treated as a header; blank rows are skipped;
    cells may be padded with whitespace or quoted.  With ``need_response``
    the file must have a second column to serve as the response.  Cell
    indices in error messages are 1-based (header row included in the count
    when present).
    """
    try:
        with open(path, "r", newline="") as fh:
            parsed = _parse_bulk(fh)
            if parsed is None or (need_response and parsed[1].shape[1] < 2):
                fh.seek(0)
                parsed = _parse_strict(fh, path, need_response)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return parsed


def load_csv(path, response_col=None) -> Dataset:
    """Load a numeric CSV as a Dataset.

    The file is read by ``read_csv_matrix``.  ``response_col`` selects the
    response column by integer index or header name; the default is the
    last column.
    """
    header, rows = read_csv_matrix(path, need_response=True)
    ncols = rows.shape[1]
    if response_col is None:
        col = ncols - 1
    else:
        try:
            col = int(response_col)
        except (TypeError, ValueError):
            if header is None or response_col not in header:
                raise DataError(f"unknown response column {response_col!r}") from None
            col = header.index(response_col)
        if col < 0:
            col += ncols
        if not 0 <= col < ncols:
            raise DataError(f"response column {response_col} out of range for {ncols} columns")
    mask = np.ones(ncols, dtype=bool)
    mask[col] = False
    return Dataset(rows[:, mask], rows[:, col])


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column affine covariate maps plus the response standardization.

    Scaled covariates are (x - shift) / scale columnwise; scaled responses
    are (y - y_mean) / y_std.  Constant columns get scale 1 so the map stays
    invertible.
    """

    mode: str
    shift: np.ndarray
    scale: np.ndarray
    y_mean: float
    y_std: float

    def transform_x(self, X):
        return (np.asarray(X, dtype=float) - self.shift) / self.scale

    def transform_y(self, y):
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def invert_y(self, y):
        return np.asarray(y, dtype=float) * self.y_std + self.y_mean


def _sample_std(v):
    # n-1 denominator throughout; a single value has no spread.
    if len(v) < 2:
        return 0.0
    return float(np.std(v, ddof=1))


def apply_scaling(dataset: Dataset, mode: str):
    """Scale covariates per ``mode`` and standardize the response.

    Returns (scaled dataset, ScalingSpec).  MM maps each column to [0, 1],
    STD to zero mean and unit sample variance, NOFS leaves covariates alone.
    The response is always centered and scaled to unit sample variance.
    """
    if mode not in SCALING_MODES:
        raise ValueError(f"unknown scaling mode {mode!r}; expected one of {SCALING_MODES}")
    X, y = dataset.X, dataset.y
    d = dataset.d
    if mode == MM:
        shift = X.min(axis=0)
        scale = X.max(axis=0) - shift
    elif mode == STD:
        shift = X.mean(axis=0)
        scale = np.array([_sample_std(X[:, j]) for j in range(d)])
    else:
        shift = np.zeros(d)
        scale = np.ones(d)
    scale = np.where(scale <= 0.0, 1.0, scale)

    y_mean = float(np.mean(y))
    y_std = _sample_std(y)
    if y_std <= 0.0:
        y_std = 1.0
    spec = ScalingSpec(mode, shift, scale, y_mean, y_std)
    return Dataset(spec.transform_x(X), spec.transform_y(y)), spec


@dataclass(frozen=True)
class SyntheticGen:
    """Synthetic regression problem: a named target plus covariate/noise laws."""

    target: str
    d: int = 1
    noise_sigma: float = 0.1
    covariate_law: str = UNIFORM_CUBE
    lipschitz: float = 4.0   # only used by the random piecewise-linear target
    target_seed: int = 0     # fixes the random target across samples

    def __post_init__(self):
        if self.target not in SYNTHETIC_TARGETS:
            raise ValueError(f"unknown synthetic target {self.target!r}")
        if self.target in (XSINX, PW_LINEAR) and self.d != 1:
            raise ValueError(f"target {self.target} is one-dimensional")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.covariate_law not in (UNIFORM_CUBE, GAUSSIAN):
            raise ValueError(f"unknown covariate law {self.covariate_law!r}")

    def target_function(self) -> _targets.TargetFunction:
        if self.target == XSINX:
            return _targets.xsinx_target()
        if self.target == PW_LINEAR:
            return _targets.pw_linear_target()
        if self.target == NORMSQ:
            return _targets.normsq_target(self.d)
        return _targets.random_delta_max_affine_target(self.d, self.lipschitz,
                                                       self.target_seed)

    def _draw_x(self, rng, n):
        if self.covariate_law == GAUSSIAN:
            return rng.standard_normal((n, self.d))
        if self.target in (XSINX, PW_LINEAR):
            return rng.uniform(0.0, 6.0, size=(n, 1))
        return rng.uniform(-1.0, 1.0, size=(n, self.d))

    def sample(self, n: int, seed: int, noiseless=False):
        """Draw (Dataset, clean target values) with a seeded generator."""
        rng = np.random.default_rng(seed)
        X = self._draw_x(rng, n)
        f = self.target_function()
        clean = f(X)
        y = clean.copy()
        if self.noise_sigma > 0 and not noiseless:
            y = y + self.noise_sigma * rng.standard_normal(n)
        return Dataset(X, y), clean
