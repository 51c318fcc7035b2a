"""Gaussian process beliefs over a fixed, finite set of locations.

The belief is a constant-mean GP conditioned on noisy point measurements,
where every measurement carries its own noise variance so that sensors of
different quality can feed the same posterior. Beliefs are immutable
snapshots: ``add_measurement`` returns a new object and leaves the receiver
untouched, which is what a tree search needs when it branches thousands of
hypothetical futures off a single belief.

Posterior mean and variance over the fixed ``query_set`` are maintained
incrementally. When a new measurement lands on a query point (the common
case: all environment locations are query points), extending the Cholesky
factor of the measurement system reuses the cached whitened cross-covariance,
so an update costs O(m q) instead of the O(m^3 + m^2 q) of a refactorization.

There is one update path, ``add_measurements_at``: each of its k sites
gives a rank-1 update, whose row of the whitened cross-covariance is
appended after the m rows of the belief. The rank-1 arithmetic runs in the
compiled kernel when it is built (``infopath.kernel``) and in numpy
(``_rank1_update``, the reference) otherwise, with the same bits. A
collapsed pivot falls back to a batch build of the whole conditioning set
(``_batch_rebuild``).

Every belief holds read-only views of the first m entries of an
append-only store (``_Store``): the conditioning set and the rows of the
whitened cross-covariance. Entries a belief holds never change. An episode
or a rollout is a chain that never branches, so each update of the
newest belief of a store writes its k entries in place; an update of any
other belief copies its m entries into a new store first (``_room``). Each
belief holds its own query mean, query variance and trace. A store has no
lock: beliefs that share one must be updated from one thread at a time.

Beliefs share what depends only on the kernel and the query set: the prior
covariance of the query set and its index by location are built once per
process for each (kernel, query set) and are read-only.

The module needs only numpy to load and to update. Kernel matrices take their
squared distances from numpy; scipy's triangular solve is imported on the
first batch factorization (a constructor given measurements, an off-grid
update, a pivot-collapse rebuild) or ``posterior()``, so planning and episodes
never load scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import kernel

# Relative jitter added to the measurement-system diagonal; escalated x10 on
# factorization failure up to JITTER_MAX_REL, then the solve errors out.
JITTER_REL = 1e-8
JITTER_MAX_REL = 1e-4
# An incremental pivot at or below this multiple of the signal variance has
# collapsed; the update falls back to a batch rebuild that re-escalates jitter.
PIVOT_MIN_REL = 1e-14
# Distinct (kernel, query set) pairs whose prior covariance the process keeps.
QUERY_CACHE_SIZE = 8

_LOG_2PI = math.log(2.0 * math.pi)


class SingularCovarianceError(RuntimeError):
    """A covariance system stayed non positive definite after jitter escalation."""


@dataclass(frozen=True)
class SquaredExponential:
    """Stationary squared-exponential kernel.

    k(x, x') = signal_variance * exp(-||x - x'||^2 / (2 lengthscale^2)),
    so k(x, x) == signal_variance and the kernel is symmetric by construction.
    Lengthscale is in the same units as the coordinates (grid cells here).
    """

    signal_variance: float = 1.0
    lengthscale: float = 1.5

    kind = "squared-exponential"

    def __post_init__(self):
        if self.signal_variance <= 0:
            raise ValueError("signal_variance must be positive")
        if self.lengthscale <= 0:
            raise ValueError("lengthscale must be positive")

    def matrix(self, a, b) -> np.ndarray:
        """Cross-covariance matrix between two coordinate sets, shapes (n,2),(m,2)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 2 or b.shape[1] != 2:
            raise ValueError("coordinate sets must have shape (n, 2)")
        # (ax - bx)^2 + (ay - by)^2 per element: the bits of
        # scipy's cdist(a, b, "sqeuclidean") for 2-D points.
        d2 = np.subtract.outer(a[:, 0], b[:, 0])
        d2 *= d2
        dy = np.subtract.outer(a[:, 1], b[:, 1])
        dy *= dy
        d2 += dy
        return self.signal_variance * np.exp(-0.5 * d2 / self.lengthscale**2)


@dataclass(frozen=True)
class PosteriorSummary:
    """Joint posterior over a target set: mean vector and full covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    dimension: int

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (self.dimension, self.dimension):
            raise ValueError("covariance shape does not match dimension")
        if not np.all(np.abs(cov - cov.T) <= 1e-10):
            raise ValueError("covariance must be symmetric within 1e-10")
        if np.min(np.diagonal(cov)) < -1e-9:
            raise ValueError("covariance diagonal must be >= -1e-9")


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``chol^{-1} rhs`` for a lower-triangular ``chol``; scipy loads on the
    first call."""
    from scipy.linalg import solve_triangular

    return solve_triangular(chol, rhs, lower=True, check_finite=False)


def _cholesky_escalating(mat: np.ndarray, scale: float, start_rel: float | None):
    """Cholesky factor with escalating diagonal jitter.

    Tries jitter start_rel*scale (or none, if start_rel is None), escalating
    x10 up to JITTER_MAX_REL*scale before giving up. Returns (L, jitter_used).
    """
    jitters = []
    if start_rel is None:
        jitters.append(0.0)
        rel = JITTER_REL
    else:
        rel = start_rel
    while rel <= JITTER_MAX_REL * (1 + 1e-12):
        jitters.append(rel * scale)
        rel *= 10.0
    for jit in jitters:
        try:
            a = mat if jit == 0.0 else mat + jit * np.eye(mat.shape[0])
            return np.linalg.cholesky(a), jit
        except np.linalg.LinAlgError:
            continue
    raise SingularCovarianceError(
        f"matrix not positive definite after jitter escalation to {JITTER_MAX_REL * scale:g}"
    )


def _cholesky_logdet(cov: np.ndarray) -> float:
    """log|cov| via Cholesky, with jitter escalation only on failure."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.max(np.abs(np.diagonal(cov)))), 1e-300) if cov.size else 1.0
    chol, _ = _cholesky_escalating(cov, scale, start_rel=None)
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def conditional_entropy(summary: PosteriorSummary) -> float:
    """Differential entropy of the joint Gaussian posterior.

    0.5*log|cov| + (D/2)*(1 + log(2*pi)); raises SingularCovarianceError if
    the covariance is not positive definite after jitter escalation.
    """
    logdet = _cholesky_logdet(summary.covariance)
    return 0.5 * logdet + 0.5 * summary.dimension * (1.0 + _LOG_2PI)


def rms_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Root-mean-square of ``estimate - truth``, bit for bit
    ``np.sqrt(np.mean((estimate - truth) ** 2))``: the same pairwise sum and
    division, without ``np.mean``'s Python-level dispatch."""
    d = estimate - truth
    return math.sqrt(float(np.add.reduce(d * d)) / d.size)


def _read_only(a: np.ndarray) -> np.ndarray:
    v = a.view()
    v.setflags(write=False)
    return v


@functools.lru_cache(maxsize=QUERY_CACHE_SIZE)
def _query_model(kernel, coords: bytes):
    """The read-only prior covariance of a query set, given as the bytes of
    its (q, 2) coordinates, and its index by location; one per (kernel, query
    set), shared by every belief over it."""
    q = np.frombuffer(coords).reshape(-1, 2)
    kqq = kernel.matrix(q, q)
    kqq.setflags(write=False)
    return kqq, MappingProxyType({(float(cx), float(cy)): i for i, (cx, cy) in enumerate(q)})


class _Store:
    """Room for ``cap`` measurements of a chain of beliefs: their locations
    ``x`` (cap, 2), values ``y``, noise variances ``nu`` and rows ``w``
    (cap, q) of the whitened cross-covariance, all C-contiguous, the first
    of them copied from the given arrays. The first ``used`` entries are
    written and never change; each belief holds views of a prefix of them."""

    __slots__ = ("x", "y", "nu", "w", "used")

    def __init__(self, cap: int, x, y, nu, w):
        m = self.used = len(y)
        self.x, self.y, self.nu = np.empty((cap, 2)), np.empty(cap), np.empty(cap)
        self.w = np.empty((cap, w.shape[1]))
        self.x[:m], self.y[:m], self.nu[:m], self.w[:m] = x, y, nu, w


def _rank1_update(w, mean_q, var_q, kqq, jitter, floor, m, sites):
    """The Python kernel of ``GaussianProcessBelief.add_measurements_at``: each
    (query index, value, noise variance) site becomes row m + i of ``w``, which
    has room for it, and updates the query mean and variance in place. Returns
    the new trace, or None when a pivot collapsed (at or below ``floor``)."""
    for mc, (j, val, nu) in enumerate(sites, m):
        d2 = var_q[j] + nu + jitter
        if d2 <= floor:
            return None
        d = math.sqrt(d2)
        row = (kqq[j] - w[:mc].T @ w[:mc, j]) / d
        a_new = (val - mean_q[j]) / d
        w[mc] = row
        mean_q += a_new * row
        var_q -= row * row
    return float(np.add.reduce(var_q))


def mutual_information_exact(cov_prev: np.ndarray, cov_new: np.ndarray) -> float:
    """Entropy drop between two posteriors: 0.5*log|cov_prev| - 0.5*log|cov_new|."""
    cov_prev = np.asarray(cov_prev, dtype=float)
    cov_new = np.asarray(cov_new, dtype=float)
    if cov_prev.shape != cov_new.shape:
        raise ValueError("covariance dimensions must match")
    return 0.5 * (_cholesky_logdet(cov_prev) - _cholesky_logdet(cov_new))


def mutual_information_trace(cov_prev: np.ndarray, cov_new: np.ndarray) -> float:
    """Total-variance drop between two posteriors: Tr(cov_prev) - Tr(cov_new).

    Cheap surrogate for the log-determinant form; exact for the purpose of
    ranking variance-reducing actions.
    """
    cov_prev = np.asarray(cov_prev, dtype=float)
    cov_new = np.asarray(cov_new, dtype=float)
    if cov_prev.shape != cov_new.shape:
        raise ValueError("covariance dimensions must match")
    return float(np.trace(cov_prev) - np.trace(cov_new))


class GaussianProcessBelief:
    """Exact GP posterior over a fixed query set, with snapshot updates.

    Parameters
    ----------
    prior_mean : float
        Constant prior mean.
    kernel : SquaredExponential
        Covariance kernel.
    query_set : array-like, shape (q, 2)
        The fixed, non-empty set of locations the belief predicts at. It never
        changes over the belief's lifetime; trace_of_variance and the cached
        query mean/variance refer to it.
    measured_locations, measurements, noise_variances : array-like, optional
        Parallel lists initializing the conditioning set; every noise variance
        must be positive. Duplicate locations are allowed (the per-measurement
        noise keeps the system nonsingular).

    ``query_mean`` and ``query_variance`` are read-only views of the cached
    posterior mean and variance at every query point.

    ``_m`` is the conditioning size. ``_x``, ``_y``, ``_nu`` (the
    conditioning set) and ``_w`` (the m rows of the whitened
    cross-covariance) are views of the first m entries of ``_store``.
    """

    __slots__ = (
        "prior_mean", "kernel", "query_set", "_store",
        "_x", "_y", "_nu", "_w", "_jitter", "_m",
        "_kqq", "_qindex", "_mean_q", "_var_q", "_trace",
        "_chol", "_alpha", "query_mean", "query_variance",
    )

    def __init__(self, prior_mean, kernel, query_set,
                 measured_locations=None, measurements=None, noise_variances=None):
        self.prior_mean = float(prior_mean)
        self.kernel = kernel
        q = np.array(query_set, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2 or q.shape[0] == 0:
            raise ValueError("query_set must be a non-empty (q, 2) list of coordinates")
        q.setflags(write=False)
        self.query_set = q

        x = np.zeros((0, 2)) if measured_locations is None else \
            np.array(measured_locations, dtype=float).reshape(-1, 2)
        y = np.zeros(0) if measurements is None else np.array(measurements, dtype=float).ravel()
        nu = np.zeros(0) if noise_variances is None else np.array(noise_variances, dtype=float).ravel()
        if not (len(x) == len(y) == len(nu)):
            raise ValueError("measured_locations, measurements and noise_variances must align")
        if np.any(nu <= 0):
            raise ValueError("noise variances must be positive")

        # batch-build the factor and the query-set caches
        self._kqq, self._qindex = _query_model(kernel, q.tobytes())
        s2 = kernel.signal_variance
        if len(y) == 0:
            self._jitter = JITTER_REL * s2
            self._chol = np.zeros((0, 0))
            self._alpha = np.zeros(0)
            w = np.zeros((0, len(q)))
        else:
            a = kernel.matrix(x, x)
            a[np.diag_indices_from(a)] += nu
            self._chol, self._jitter = _cholesky_escalating(a, s2, JITTER_REL)
            self._alpha = _solve_lower(self._chol, y - self.prior_mean)
            w = _solve_lower(self._chol, kernel.matrix(x, q))
        self._mean_q = self.prior_mean + w.T @ self._alpha
        self._var_q = s2 - np.einsum("ij,ij->j", w, w)
        self._trace = float(self._var_q.sum())
        self.query_mean = _read_only(self._mean_q)
        self.query_variance = _read_only(self._var_q)
        # the solve may give w in Fortran order; the store, which the
        # compiled kernel reads as raw memory, is C-contiguous
        self._hold(_Store(len(y), x, y, nu, w))

    # ------------------------------------------------------------------
    # construction internals

    def _hold(self, store: _Store):
        """Hold views of the first ``store.used`` entries of ``store``."""
        m = self._m = store.used
        self._store = store
        self._x, self._y, self._nu, self._w = store.x[:m], store.y[:m], store.nu[:m], store.w[:m]

    def _ensure_factor(self):
        """Lazily restore the Cholesky factor dropped by fast incremental updates.

        Idempotent cache fill; _alpha lands before _chol so readers gating on
        _chol never observe a half-built pair.
        """
        if self._chol is None:
            a = self.kernel.matrix(self._x, self._x)
            a[np.diag_indices_from(a)] += self._nu + self._jitter
            try:
                chol = np.linalg.cholesky(a)
            except np.linalg.LinAlgError as exc:  # incremental chain already pivoted
                raise SingularCovarianceError("measurement system lost positive definiteness") from exc
            self._alpha = _solve_lower(chol, self._y - self.prior_mean)
            self._chol = chol

    # ------------------------------------------------------------------
    # read-only views of the conditioning set

    @property
    def measured_locations(self) -> np.ndarray:
        return _read_only(self._x)

    @property
    def measurements(self) -> np.ndarray:
        return _read_only(self._y)

    @property
    def noise_variances(self) -> np.ndarray:
        return _read_only(self._nu)

    def query_index(self, location) -> int | None:
        """Index of ``location`` in the query set, or None if off the set."""
        return self._qindex.get((float(location[0]), float(location[1])))

    def trace_of_variance(self) -> float:
        """Total posterior variance over the query set (trace of the posterior cov)."""
        return self._trace

    def _model(self):
        """The prior covariance, jitter and pivot floor of the factor, which
        an update of this belief extends."""
        return self._kqq, self._jitter, PIVOT_MIN_REL * self.kernel.signal_variance

    # ------------------------------------------------------------------
    # updates

    def add_measurement(self, location, value, noise_variance) -> "GaussianProcessBelief":
        """Return a new belief with one measurement appended; self is unchanged."""
        return self.add_measurements([(location, value, noise_variance)])

    def add_measurements(self, triples) -> "GaussianProcessBelief":
        """Return a new belief with several (location, value, noise_variance) appended.

        Locations on the query set go through ``add_measurements_at``; any
        off-query location falls back to a batch rebuild of the factor.
        """
        triples = [(np.asarray(loc, dtype=float).reshape(2), float(val), float(nu))
                   for loc, val, nu in triples]
        sites = [(self.query_index(loc), val, nu) for loc, val, nu in triples]
        if all(j is not None for j, _, _ in sites):
            return self.add_measurements_at(sites)
        locations, values, noise = zip(*triples)
        return GaussianProcessBelief(self.prior_mean, self.kernel, self.query_set,
                                     [*self._x, *locations], [*self._y, *values],
                                     [*self._nu, *noise])

    def add_measurements_at(self, sites) -> "GaussianProcessBelief":
        """Return a new belief with measurements at query points appended, as
        (query index, value, noise variance); self is unchanged, and is the
        result when ``sites`` is empty.

        Site i becomes entry m + i of the store, and the query mean and
        variance take its rank-1 update. When a pivot collapses, the result
        is ``_batch_rebuild``'s.
        """
        if not sites:
            return self
        for _, _, nu in sites:
            if nu <= 0:
                raise ValueError("noise variances must be positive")
        store = self._room(len(sites))
        mean, var = self._mean_q.copy(), self._var_q.copy()
        compiled = kernel.lib()
        update = _rank1_update if compiled is None else compiled.rank1_update
        trace = update(store.w, mean, var, *self._model(), self._m, sites)
        if trace is None:
            return _batch_rebuild(self, sites)
        return self._extended(store, sites, mean, var, trace)

    def _room(self, k: int) -> _Store:
        """A store whose first m entries are this belief's, with room for k
        more: its own store when it holds the store's last entry and the
        store has room, else a new one with its m entries copied in and
        room for a quarter more than m + k entries, and eight."""
        store, m = self._store, self._m
        if store.used == m and len(store.y) >= m + k:
            return store
        return _Store((m + k) * 5 // 4 + 8, self._x, self._y, self._nu, self._w)

    def _extended(self, store: _Store, sites, mean: np.ndarray, var: np.ndarray,
                  trace: float) -> "GaussianProcessBelief":
        """This belief with the (query index, value, noise variance)
        ``sites`` appended as entries m.. of ``store``, a store of
        ``_room``'s whose rows there the caller wrote; it takes the query
        ``mean`` and ``var`` buffers and the ``trace``."""
        m = self._m
        for i, (j, val, nu) in enumerate(sites, m):
            store.x[i], store.y[i], store.nu[i] = self.query_set[j], val, nu
        store.used = m + len(sites)
        new = object.__new__(GaussianProcessBelief)
        new.prior_mean = self.prior_mean
        new.kernel = self.kernel
        new.query_set = self.query_set
        new._kqq = self._kqq
        new._qindex = self._qindex
        new._jitter = self._jitter
        new._hold(store)
        new._mean_q = mean
        new._var_q = var
        new.query_mean = _read_only(mean)
        new.query_variance = _read_only(var)
        new._trace = trace
        new._chol = None  # rebuilt on demand by posterior()
        new._alpha = None
        return new

    # ------------------------------------------------------------------
    # posterior queries

    def posterior(self, targets=None) -> PosteriorSummary:
        """Joint posterior (mean and full covariance) at ``targets``.

        Defaults to the query set. With no measurements this is the prior:
        constant mean and the kernel matrix of the targets.
        """
        t = self.query_set if targets is None else np.atleast_2d(np.asarray(targets, dtype=float))
        if t.shape[0] == 0:
            raise ValueError("targets must be non-empty")
        ktt = self._kqq.copy() if targets is None else self.kernel.matrix(t, t)
        if self._m == 0:
            mean = np.full(t.shape[0], self.prior_mean)
            cov = ktt
        else:
            self._ensure_factor()
            v = self._w if targets is None else \
                _solve_lower(self._chol, self.kernel.matrix(self._x, t))
            mean = self.prior_mean + v.T @ self._alpha
            cov = ktt - v.T @ v
        cov = 0.5 * (cov + cov.T)
        return PosteriorSummary(mean=mean, covariance=cov, dimension=t.shape[0])


def _batch_rebuild(belief: GaussianProcessBelief, sites) -> GaussianProcessBelief:
    """``belief`` with the (query index, value, noise variance) ``sites``
    appended, built in batch from the whole conditioning set: the fallback
    of an update whose pivot collapsed, which escalates the jitter anew."""
    nodes, values, noise = zip(*sites)
    return GaussianProcessBelief(belief.prior_mean, belief.kernel, belief.query_set,
                                 [*belief._x, *belief.query_set[list(nodes)]],
                                 [*belief._y, *values], [*belief._nu, *noise])
