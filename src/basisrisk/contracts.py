"""Payment schemes, premium principles, basis-risk metrics, fitting, and the CSV layer.

Implements the two admissible payout families (constant-on-trigger and
index-conditional expectile schemes), the expected-value / standard-deviation
/ variance premium principles, and golden-section fitting of capped linear
payment schemes under either a basis-risk or a pure-utility criterion.
"""

from __future__ import annotations

import enum
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .expectile import (
    BasisRiskWeight,
    DegenerateDataError,
    DomainError,
    EmpiricalSample,
    Level,
    expectile,
    expectile_exponential,
    expectile_grid,
)

logger = logging.getLogger(__name__)

__all__ = list(_EXPORTS["contracts"])


class DegenerateTriggerError(DegenerateDataError):
    """Trigger fires for all or none of the observations."""


class InsufficientConditionalDataError(DegenerateDataError):
    """A conditioning bin holds fewer observations than required."""


class PremiumPrinciple(enum.Enum):
    EXPECTED_VALUE = "expected_value"
    STD_DEV = "std_dev"
    VARIANCE = "variance"


@dataclass(frozen=True)
class ContractSpec:
    """Trigger interval, premium principle, and building value.

    The trigger is the half-open wind-speed interval [t_lo, t_hi); t_hi
    defaults to +inf. attachment/cap only matter for piecewise-linear
    schemes (defaults: attachment = t_lo, cap = building value).
    """

    t_lo: float
    t_hi: float = math.inf
    principle: PremiumPrinciple = PremiumPrinciple.EXPECTED_VALUE
    rho: float = 0.2
    building_value: float = 100.0
    attachment: float | None = None
    cap: float | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.rho > 0:
            raise ValueError("loading rho must be positive")
        if not self.building_value > 0:
            raise ValueError("building value must be positive")
        if not self.t_lo < self.t_hi:
            raise ValueError("trigger interval must be non-empty")
        att = self.t_lo if self.attachment is None else self.attachment
        cap = self.building_value if self.cap is None else self.cap
        if not cap > 0:
            raise ValueError("cap must be a positive payout level")
        object.__setattr__(self, "attachment", att)
        object.__setattr__(self, "cap", cap)

    def in_trigger(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.float64)
        return (indices >= self.t_lo) & (indices < self.t_hi)


class LossIndexSample:
    """Aligned loss/index observations (S_i, theta_i)."""

    __slots__ = ("losses", "indices")

    def __init__(self, losses, indices):
        losses = np.asarray(losses, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.float64)
        if losses.shape != indices.shape or losses.ndim != 1 or losses.size == 0:
            raise ValueError("losses and indices must be equal-length non-empty 1d arrays")
        if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(indices))):
            raise DomainError("observations must be finite")  # e.g. a synthetic sample overflowed
        if np.any(losses < 0):
            raise ValueError("losses must be non-negative")
        self.losses = losses
        self.indices = indices
        losses.setflags(write=False)
        indices.setflags(write=False)

    def __len__(self):
        return self.losses.size

    def to_csv(self, path):
        """Emit `loss,index` CSV (RFC-4180, LF endings)."""
        with open(path, "w", newline="") as fh:
            fh.write(_csv_text(("loss", "index"), self.losses, self.indices))

    @classmethod
    def from_csv(cls, path):
        data = _numeric_csv(path)
        if data.shape[1] != 2:
            raise ValueError(f"expected the 2 columns loss,index, got {data.shape[1]}")
        return cls(data[:, 0], data[:, 1])


def _fmt(x) -> str:
    if isinstance(x, str):  # first: track ids are the longest column rendered cell by cell
        return x
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(int(x)) if isinstance(x, (int, np.integer)) else str(x)


def _cells(column):
    """The text of one CSV column: a float array by repr, an integer array by
    str, any other sequence cell by cell (``_fmt``)."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return map(repr, column.tolist())
    if kind in ("i", "u"):
        return map(str, column.tolist())
    return map(_fmt, column)


def _csv_text(header, *columns) -> str:
    """CSV text of equal-length columns under a header, each column rendered once."""
    rows = map(",".join, zip(*map(_cells, columns)))
    return "\n".join([",".join(header), *rows]) + "\n"


# Characters of CSV text per block of whole lines: a reader holds one
# block's lines at a time, never the whole file's.
_CSV_BLOCK_CHARS = 1 << 18


def _line_blocks(fh, size):
    """Blocks of whole lines of ``fh``, about ``size`` characters each, as (lines,
    their file line numbers); ``fh`` has read its one header line, line 1."""
    lineno = 2
    while lines := fh.readlines(size):
        yield lines, range(lineno, lineno + len(lines))
        lineno += len(lines)


def _parse_lines(lines, numbers, **options):
    """``np.loadtxt(lines, **options)``, ``numbers`` holding each line's file line.

    A block that fails is parsed again a line at a time and the rows are
    joined, so the first line that fails alone is raised as "line N:
    <loadtxt's reason> in field K", K counting its fields from 1."""
    try:
        return np.loadtxt(lines, **options)
    except ValueError as exc:
        if len(lines) > 1:
            return np.concatenate([_parse_lines([line], [n], **options)
                                   for n, line in zip(numbers, lines)])
        reason, _, field = str(exc).rpartition(" at row 0, column ")
        where = f"{reason} in field {field.rstrip('.')}" if reason else str(exc)
        raise ValueError(f"line {numbers[0]}: {where}") from None


def _numeric_csv(path) -> np.ndarray:
    """The numbers of a comma-separated file below its one header line, a row per line.

    A cell that does not parse, or a row whose field count differs from the
    first row's, is a ValueError that names its file line. A body with no
    rows is one too, not numpy's warning. The file is read again, a block
    of lines at a time (``_parse_blocks``), only once the parse has failed.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError:
            return _parse_blocks(path)
        except UserWarning:
            raise ValueError("no data rows below the header line") from None


def _parse_blocks(path) -> np.ndarray:
    """``_numeric_csv``'s rows of path, parsed a block of lines at a time.

    Each block of lines is parsed whole; only a block that fails, or whose
    rows are not as wide as the file's first row, is parsed line by line,
    which raises at the first line that fails alone or is not as wide. The
    parsed blocks are joined in file order.
    """
    first = None  # (file line, width) of the first row
    parts = []
    with open(path) as fh:  # decoded and split into lines as np.loadtxt does
        fh.readline()
        for lines, numbers in _line_blocks(fh, _CSV_BLOCK_CHARS):
            rows = [(n, line) for n, line in zip(numbers, lines)
                    if line.partition("#")[0] not in ("", "\n")]  # lines np.loadtxt skips
            if not rows:
                continue
            try:
                block = np.loadtxt([line for _, line in rows], delimiter=",", ndmin=2)
                first = first or (rows[0][0], block.shape[1])
                if block.shape[1] == first[1]:
                    parts.append(block)
                    continue
            except ValueError:
                pass
            for n, line in rows:
                row = _parse_lines([line], [n], delimiter=",", ndmin=2)
                first = first or (n, row.shape[1])
                if row.shape[1] != first[1]:
                    raise ValueError(f"line {n} has {row.shape[1]} fields; line {first[0]} "
                                     f"has {first[1]}")
                parts.append(row)
    return np.concatenate(parts)


@dataclass(frozen=True)
class PayoutVector:
    """Payments aligned index-wise with a LossIndexSample; zero off trigger."""

    payments: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.payments, dtype=np.float64)
        _check_payments(p)
        p.setflags(write=False)
        object.__setattr__(self, "payments", p)


def _check_payments(p: np.ndarray) -> None:
    """Reject payments that are not finite and non-negative (NaN included)."""
    # min and max propagate NaN, so a NaN fails both comparisons
    if p.size and not (p.min() >= 0.0 and p.max() < np.inf):
        raise ValueError("payments must be finite and non-negative")


def _trigger_mask(sample: LossIndexSample, spec: ContractSpec) -> np.ndarray:
    """The rows in the trigger.

    Raises DegenerateTriggerError when the trigger fires on all rows or on
    none (the empirical trigger probability must lie strictly inside (0,1)).
    """
    mask = spec.in_trigger(sample.indices)
    if mask.all() or not mask.any():
        raise DegenerateTriggerError("degenerate trigger")
    return mask


def split_by_trigger(sample: LossIndexSample, spec: ContractSpec):
    """Partition observations into triggered / untriggered parts.

    Raises DegenerateTriggerError when either part is empty.
    """
    mask = _trigger_mask(sample, spec)
    triggered = LossIndexSample(sample.losses[mask], sample.indices[mask])
    untriggered = LossIndexSample(sample.losses[~mask], sample.indices[~mask])
    return triggered, untriggered


def pure_parametric_payout(sample: LossIndexSample, spec: ContractSpec,
                           gamma: Level | float) -> PayoutVector:
    """Constant payout e_gamma(S | trigger) on triggered rows, 0 elsewhere."""
    mask = _trigger_mask(sample, spec)
    level = expectile(EmpiricalSample(sample.losses[mask]), gamma)
    return PayoutVector(np.where(mask, level, 0.0))


class ExponentialConditioner:
    """Analytic conditioner for exponentially distributed conditional losses.

    mean_fn maps index values to the conditional mean; conditional expectiles
    come from the Lambert-W closed form.
    """

    def __init__(self, mean_fn):
        self.mean_fn = mean_fn

    def conditional_expectile(self, thetas, gamma):
        thetas = np.asarray(thetas, dtype=np.float64)
        means = np.asarray(self.mean_fn(thetas), dtype=np.float64)
        g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
        unit = expectile_exponential(1.0, g)
        return means * unit


class AnalyticConditioner:
    """Conditioner wrapping a vectorized callable (thetas, gamma) -> expectiles."""

    def __init__(self, fn):
        self.fn = fn

    def conditional_expectile(self, thetas, gamma):
        g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
        return np.asarray(self.fn(np.asarray(thetas, dtype=np.float64), g), dtype=np.float64)


class EmpiricalBinConditioner:
    """Equal-frequency binning estimator of e_gamma(S | theta) on the trigger.

    Bins the triggered index values into n_bins equal-frequency bins (each
    with at least min_bin_count observations) and uses the within-bin
    empirical expectile as a piecewise-constant conditional model. Every
    solve runs through ``_expectile_columns``, one ``expectile_grid`` per bin
    that the thetas fall in; ``conditional_expectile`` is its one-level
    case. The grid solve runs the scalar solve's arithmetic, so the two
    agree bit for bit.
    """

    def __init__(self, triggered: LossIndexSample, n_bins: int = 20,
                 min_bin_count: int = 200):
        n = len(triggered)
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        edges_pos = np.linspace(0, n, n_bins + 1).astype(int)
        counts = np.diff(edges_pos)
        if counts.min() < min_bin_count:
            raise InsufficientConditionalDataError(
                f"insufficient conditional data: smallest bin has {counts.min()} "
                f"< {min_bin_count} observations")
        order = np.argsort(triggered.indices, kind="stable")
        idx_sorted = triggered.indices[order]
        loss_sorted = triggered.losses[order]
        self.bin_samples = []
        self.bin_centers = np.empty(n_bins)
        inner_edges = []
        for b in range(n_bins):
            lo, hi = edges_pos[b], edges_pos[b + 1]
            self.bin_samples.append(EmpiricalSample(loss_sorted[lo:hi]))
            self.bin_centers[b] = idx_sorted[lo:hi].mean()
            if b > 0:
                inner_edges.append(0.5 * (idx_sorted[lo - 1] + idx_sorted[lo]))
        self.inner_edges = np.asarray(inner_edges)
        self.n_bins = n_bins

    def assign(self, thetas) -> np.ndarray:
        return np.searchsorted(self.inner_edges, np.asarray(thetas, dtype=np.float64),
                               side="right")

    def conditional_expectile(self, thetas, gamma):
        g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
        return next(_expectile_columns(self, thetas, np.array([g])))


def _expectile_columns(conditioner, thetas, gammas, out=None):
    """Conditional expectiles at thetas, one array per level in gammas.

    The binned conditioner assigns the thetas to bins once, solves each bin
    they fall in over the whole grid (the package's one per-bin loop), and
    gathers each level from its row of that table, into ``out`` when given.
    Any other conditioner is asked level by level, and the arrays it returns
    may stay its own: a caller must not write into them.
    """
    if isinstance(conditioner, EmpiricalBinConditioner):
        bins = conditioner.assign(thetas)
        # one row per level, so a gather reads adjacent values; unused bins stay unset
        table = np.empty((np.size(gammas), conditioner.n_bins))
        # bincount, not np.unique, which imports numpy.ma (about 1 MB) on first use
        used = np.bincount(bins.ravel(), minlength=conditioner.n_bins) > 0
        for b in np.flatnonzero(used).tolist():
            table[:, b] = expectile_grid(conditioner.bin_samples[b], gammas)
        for row in table:
            # every bin number is a column of the table: "clip" only skips the
            # buffered copy that take's bounds check makes of ``out``
            yield np.take(row, bins, out=out, mode="clip")
    else:
        for g in gammas:
            yield conditioner.conditional_expectile(thetas, Level(float(g)))


def _masked_payout(mask: np.ndarray, values) -> PayoutVector:
    """max(values, 0) on the rows in mask, 0 elsewhere."""
    payments = np.zeros(mask.size)
    payments[mask] = np.maximum(values, 0.0)
    return PayoutVector(payments)


def index_payout(sample: LossIndexSample, spec: ContractSpec,
                 gamma: Level | float, conditioner) -> PayoutVector:
    """Payout e_gamma(S | theta_i) on triggered rows, 0 elsewhere."""
    mask = _trigger_mask(sample, spec)
    return _masked_payout(
        mask, conditioner.conditional_expectile(sample.indices[mask], gamma))


def premium(payout: PayoutVector, spec: ContractSpec) -> float:
    """Premium of a payout distribution under the spec's principle.

    Standard deviation / variance use population (1/N) statistics: premiums
    are functionals of the modeled distribution, not inferential estimates.
    """
    return _premium_of(payout.payments, spec, payout.payments.size)


def _padded_moments(x: np.ndarray, n: int, out=None, variance: bool = True):
    """(mean, population variance) of n values: x, then n - x.size zeros.

    The zeros add (n - x.size) mean^2 to the squared deviations of x, which
    go in ``out`` when given; ``variance=False`` skips them and gives None.
    At x.size == n the bits are np.mean's and np.var's. Overflow is silent:
    the caller's finiteness check reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.sum(x)) / n
        if not variance:
            return mean, None
        d = np.subtract(x, mean, out=out)
        return mean, (float(np.sum(np.multiply(d, d, out=d))) + (n - x.size) * mean * mean) / n


def _premium_of(y: np.ndarray, spec: ContractSpec, n: int, out=None) -> float:
    """``premium`` of n checked payments: y, then n - y.size zeros (``_padded_moments``)."""
    if spec.principle is PremiumPrinciple.EXPECTED_VALUE:
        return (1.0 + spec.rho) * _padded_moments(y, n, variance=False)[0]
    m, v = _padded_moments(y, n, out)
    return m + spec.rho * (math.sqrt(v) if spec.principle is PremiumPrinciple.STD_DEV else v)


def basis_risk(losses, payout: PayoutVector) -> np.ndarray:
    """Elementwise B = Y - S (positive = overcompensation)."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != payout.payments.shape:
        raise ValueError("losses and payments must align")
    return payout.payments - losses


def asymmetric_objective(losses, payout: PayoutVector,
                         alpha: BasisRiskWeight | float) -> float:
    """Mean of alpha^2 (S-Y)+^2 + (1-alpha)^2 (S-Y)-^2."""
    a = alpha.alpha if isinstance(alpha, BasisRiskWeight) else BasisRiskWeight(alpha).alpha
    diff = np.asarray(losses, dtype=np.float64) - payout.payments
    pos = np.clip(diff, 0.0, None)
    neg = np.clip(-diff, 0.0, None)
    return float(np.mean((a * pos) ** 2 + ((1.0 - a) * neg) ** 2))


@dataclass(frozen=True)
class BasisRiskOptimal:
    """Fit criterion: asymmetric square loss at level gamma_star."""

    gamma_star: float


@dataclass(frozen=True)
class PureUtility:
    """Fit criterion: expected utility of terminal wealth, E-principle premium."""

    utility: object  # UtilityContext


@dataclass(frozen=True)
class PiecewiseLinearFit:
    slope: float
    objective: float
    at_lower_boundary: bool


def _golden_section(f, a: float, b: float, tol: float) -> float:
    """Minimiser of a unimodal f on [a, b]: midpoint of the final bracket.

    Shared by the slope fit here and the Gumbel copula MLE in dependence.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Counter-based generator; spawn_key selects an independent substream."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


def _pwl_scheme(thetas, slope, attachment, cap):
    return np.minimum(np.maximum(0.0, slope * (thetas - attachment)), cap)


def fit_piecewise_linear(sample: LossIndexSample, spec: ContractSpec,
                         mode) -> PiecewiseLinearFit:
    """Fit the slope of a capped linear payment scheme.

    One golden-section search on (0, lambda_max], with lambda_max the slope
    at which the scheme saturates at the largest observed index. Below
    lambda_max no payout reaches the cap, so every payout, and the premium,
    is linear in the slope; the asymmetric square loss and -u of a concave
    utility are convex in the payout, so either criterion is convex in the
    slope and the search finds its one minimum. A slope at most
    lambda_max / 32 is flagged, with a warning, as at the lower boundary.
    """
    thetas = sample.indices
    losses = sample.losses
    att, cap = spec.attachment, spec.cap
    theta_max = float(thetas.max())
    if theta_max <= att:
        raise ValueError("no observations beyond the attachment point")
    lam_max = cap / (theta_max - att)

    if isinstance(mode, BasisRiskOptimal):
        g = mode.gamma_star
        if not (0.0 < g < 1.0):
            raise ValueError("gamma_star must lie in (0,1)")

        def objective(lam):
            diff = losses - _pwl_scheme(thetas, lam, att, cap)
            pos = np.clip(diff, 0.0, None)
            neg = np.clip(-diff, 0.0, None)
            return float(np.mean(g * pos ** 2 + (1.0 - g) * neg ** 2))
    elif isinstance(mode, PureUtility):
        util = mode.utility

        def objective(lam):
            y = _pwl_scheme(thetas, lam, att, cap)
            pi = (1.0 + spec.rho) * y.mean()
            return -float(np.mean(util.u(util.w0 - losses + y - pi)))
    else:
        raise TypeError(f"unknown fit mode {mode!r}")

    slope = _golden_section(objective, 1e-12 * lam_max, lam_max, 1e-10 * lam_max)
    at_lower = slope <= lam_max / 32
    if at_lower:
        logger.warning("fitted slope at lower boundary (near-zero payouts)")
    return PiecewiseLinearFit(slope=slope, objective=objective(slope), at_lower_boundary=at_lower)
