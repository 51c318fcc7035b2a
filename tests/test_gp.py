import copy
import math
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infopath import gp as gp_module
from infopath import kernel
from infopath.gp import (
    JITTER_REL,
    GaussianProcessBelief,
    PosteriorSummary,
    SingularCovarianceError,
    SquaredExponential,
    _cholesky_escalating,
    conditional_entropy,
    mutual_information_exact,
    mutual_information_trace,
    rms_error,
)


# ----------------------------------------------------------------------
# independent oracles (no reuse of the implementation's linear algebra)

def se_cov(a, b, s2=1.0, ell=1.5):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i, j] = s2 * math.exp(-float(np.sum((a[i] - b[j]) ** 2)) / (2.0 * ell * ell))
    return out


def posterior_oracle(prior, s2, ell, x, y, nu, targets, jitter):
    """One-shot conditioning via a dense solve of the GP update equations."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(y) == 0:
        return np.full(len(targets), prior), se_cov(targets, targets, s2, ell)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    a = se_cov(x, x, s2, ell) + np.diag(np.asarray(nu, dtype=float)) + jitter * np.eye(len(x))
    kst = se_cov(targets, x, s2, ell)
    mean = prior + kst @ np.linalg.solve(a, np.asarray(y, dtype=float) - prior)
    cov = se_cov(targets, targets, s2, ell) - kst @ np.linalg.solve(a, kst.T)
    return mean, cov


def logdet_eig_oracle(cov):
    return float(np.sum(np.log(np.linalg.eigvalsh(cov))))


def random_spd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T + (0.1 + rng.random()) * np.eye(n)


def grid_coords(n):
    return [(float(x), float(y)) for y in range(n) for x in range(n)]


def random_belief(rng, n_query=25, n_meas=8, s2=1.0, ell=1.5, prior=0.5):
    coords = grid_coords(int(math.isqrt(n_query)))
    gp = GaussianProcessBelief(prior, SquaredExponential(s2, ell), coords)
    for _ in range(n_meas):
        loc = coords[rng.integers(len(coords))]
        gp = gp.add_measurement(loc, rng.normal(prior, 1.0), float(10 ** rng.uniform(-3, 0)))
    return gp, coords


# ----------------------------------------------------------------------
# kernel

def test_kernel_value_at_identical_points():
    spec = SquaredExponential(signal_variance=1.0, lengthscale=2.0)
    assert spec.matrix([(3.0, 4.0)], [(3.0, 4.0)])[0, 0] == pytest.approx(1.0)


def test_kernel_symmetry_on_random_pairs():
    rng = np.random.default_rng(0)
    spec = SquaredExponential(signal_variance=2.3, lengthscale=0.7)
    for _ in range(20):
        a, b = rng.normal(size=2), rng.normal(size=2)
        ab, ba = spec.matrix([a], [b])[0, 0], spec.matrix([b], [a])[0, 0]
        assert ab == pytest.approx(ba, abs=0.0)


def test_kernel_unit_distance_closed_form():
    # derived by direct scalar evaluation of the kernel formula
    spec = SquaredExponential(signal_variance=1.0, lengthscale=1.0)
    assert spec.matrix([(0.0, 0.0)], [(1.0, 0.0)])[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_kernel_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SquaredExponential(signal_variance=0.0)
    with pytest.raises(ValueError):
        SquaredExponential(lengthscale=-1.0)


# grid cells, off-grid points across magnitudes, and exact zeros of both signs
coordinate = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-6, 6)),
    st.sampled_from([0.0, -0.0]),
)
point_sets = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(a=point_sets, b=point_sets, shared=st.integers(0, 40),
       as_list=st.booleans(), flat_b=st.booleans(),
       s2=st.floats(1e-3, 1e3), ell=st.floats(1e-2, 1e2))
def test_kernel_matrix_has_the_bits_of_the_cdist_formula(a, b, shared, as_list, flat_b,
                                                          s2, ell):
    from scipy.spatial.distance import cdist

    b = a[:shared] + b  # duplicates between the two sets
    a_in = a if as_list else np.array(a)
    b_in = list(b[0]) if flat_b else b if as_list else np.array(b)  # 1-D: one point
    kernel = SquaredExponential(s2, ell)
    ref_a = np.atleast_2d(np.asarray(a_in, dtype=float))
    ref_b = np.atleast_2d(np.asarray(b_in, dtype=float))
    old = s2 * np.exp(-0.5 * cdist(ref_a, ref_b, "sqeuclidean") / ell**2)
    new = kernel.matrix(a_in, b_in)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def test_kernel_matrix_rejects_points_not_in_the_plane():
    kernel = SquaredExponential()
    for a, b in ((np.zeros((4, 3)), np.zeros((2, 3))), (np.zeros((4, 2)), np.zeros((2, 3))),
                 (np.zeros((4, 3)), np.zeros((2, 2))), ([1.0, 2.0, 3.0], [(0.0, 0.0)]),
                 (np.zeros((2, 2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError):
            kernel.matrix(a, b)


# ----------------------------------------------------------------------
# posterior

def test_empty_belief_posterior_is_prior():
    coords = grid_coords(3)
    gp = GaussianProcessBelief(0.5, SquaredExponential(1.0, 1.5), coords)
    summary = gp.posterior()
    assert np.allclose(summary.mean, 0.5)
    assert np.allclose(summary.covariance, se_cov(coords, coords), atol=1e-12)


def test_single_measurement_scalar_values():
    # mean 1/1.1 and variance 1 - 1/1.1, from scalar evaluation of the update
    coords = [(0.0, 0.0), (5.0, 5.0)]
    gp = GaussianProcessBelief(0.0, SquaredExponential(1.0, 1.0), coords)
    gp = gp.add_measurement((0.0, 0.0), 1.0, 0.1)
    assert gp.query_mean[0] == pytest.approx(1.0 / 1.1, abs=1e-7)
    assert gp.query_variance[0] == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-7)


def test_incremental_matches_one_shot_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        gp, coords = random_belief(rng, n_meas=int(rng.integers(1, 12)))
        mean, cov = posterior_oracle(gp.prior_mean, gp.kernel.signal_variance,
                                     gp.kernel.lengthscale, gp.measured_locations,
                                     gp.measurements, gp.noise_variances, coords,
                                     gp._jitter)
        assert np.max(np.abs(gp.query_mean - mean)) <= 1e-8
        assert np.max(np.abs(gp.query_variance - np.diagonal(cov))) <= 1e-8
        summary = gp.posterior()
        assert np.max(np.abs(summary.covariance - cov)) <= 1e-8


def test_posterior_at_off_query_targets():
    rng = np.random.default_rng(3)
    gp, _ = random_belief(rng, n_meas=5)
    targets = [(0.25, 0.75), (1.5, 1.5)]
    summary = gp.posterior(targets)
    mean, cov = posterior_oracle(gp.prior_mean, 1.0, 1.5, gp.measured_locations,
                                 gp.measurements, gp.noise_variances, targets, gp._jitter)
    assert np.max(np.abs(summary.mean - mean)) <= 1e-8
    assert np.max(np.abs(summary.covariance - cov)) <= 1e-8


def test_posterior_rejects_empty_targets():
    gp = GaussianProcessBelief(0.0, SquaredExponential(), grid_coords(2))
    with pytest.raises(ValueError):
        gp.posterior(np.zeros((0, 2)))


# ----------------------------------------------------------------------
# add_measurement semantics

def test_add_measurement_appends_and_snapshots():
    gp0 = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(3))
    gp1 = gp0.add_measurement((1.0, 1.0), 0.9, 0.05)
    assert len(gp0.measurements) == 0
    assert len(gp1.measurements) == 1
    assert gp0.trace_of_variance() == pytest.approx(9.0)
    assert gp1.trace_of_variance() < gp0.trace_of_variance()


def test_duplicate_locations_are_kept():
    gp = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(3))
    gp = gp.add_measurement((1.0, 1.0), 0.9, 0.05)
    gp = gp.add_measurement((1.0, 1.0), 0.8, 0.20)
    assert len(gp.measurements) == 2
    assert np.allclose(gp.measured_locations[0], gp.measured_locations[1])
    assert gp.noise_variances[0] != gp.noise_variances[1]


def test_rejects_nonpositive_noise():
    gp = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(2))
    with pytest.raises(ValueError):
        gp.add_measurement((0.0, 0.0), 1.0, 0.0)


def test_batch_and_incremental_construction_agree():
    rng = np.random.default_rng(11)
    coords = grid_coords(5)
    for _ in range(10):
        n_meas = int(rng.integers(1, 21))
        locs = [coords[rng.integers(len(coords))] for _ in range(n_meas)]
        vals = rng.normal(0.5, 1.0, n_meas)
        nus = 10 ** rng.uniform(-3, 0, n_meas)
        inc = GaussianProcessBelief(0.5, SquaredExponential(), coords)
        for loc, v, nu in zip(locs, vals, nus):
            inc = inc.add_measurement(loc, v, nu)
        batch = GaussianProcessBelief(0.5, SquaredExponential(), coords, locs, vals, nus)
        assert np.max(np.abs(inc.query_mean - batch.query_mean)) <= 1e-8
        assert np.max(np.abs(inc.query_variance - batch.query_variance)) <= 1e-8
        si, sb = inc.posterior(), batch.posterior()
        assert np.max(np.abs(si.covariance - sb.covariance)) <= 1e-8


EPS = np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s2=st.floats(0.1, 10.0), ell=st.floats(0.3, 5.0),
       calls=st.integers(1, 300), cells=st.integers(1, 16),
       noise_exp=st.floats(-8.0, 0.0), off_grid=st.sampled_from([0.0, 0.01, 0.05]))
def test_chain_drift_from_a_batch_rebuild_is_bounded(seed, s2, ell, calls, cells,
                                                     noise_exp, off_grid):
    # A chain of add_measurements calls (rank-1 updates, with batch rebuilds
    # at off-grid points) against one batch rebuild of all n measurements.
    # The bounds take the forward-error forms n eps cond(A) for the mean and
    # n eps cond(L) for the variance, cond(A) <~ 1 + s2/nu_min; over 6000
    # chains of this shape the worst drift was under a tenth of either.
    rng = np.random.default_rng(seed)
    coords = grid_coords(4)
    kernel = SquaredExponential(s2, ell)
    nu_min = 10.0 ** noise_exp
    chain = GaussianProcessBelief(0.5, kernel, coords)
    triples = []
    for _ in range(calls):
        batch = []
        for _ in range(int(rng.integers(1, 3))):
            loc = tuple(rng.uniform(-1.0, 4.0, 2)) if rng.random() < off_grid \
                else coords[int(rng.integers(cells))]  # few cells: many repeats
            nu = nu_min if rng.random() < 0.5 else float(10 ** rng.uniform(noise_exp, 0.0))
            batch.append((loc, float(rng.normal(0.5, 1.0)), nu))
        chain = chain.add_measurements(batch)
        triples += batch
    x, y, nu = zip(*triples)
    rebuilt = GaussianProcessBelief(0.5, kernel, coords, x, y, nu)
    assert chain._jitter == rebuilt._jitter
    n = len(triples)
    mean_bound = 16 * n * EPS * (1 + s2 / nu_min) * max(abs(v - 0.5) for v in y)
    var_bound = 4 * (n + 1) * EPS * s2 * math.sqrt(1 + s2 / nu_min)
    assert np.max(np.abs(chain.query_mean - rebuilt.query_mean)) <= mean_bound
    assert np.max(np.abs(chain.query_variance - rebuilt.query_variance)) <= var_bound


def test_variance_monotone_under_measurements():
    rng = np.random.default_rng(19)
    for _ in range(20):
        gp, coords = random_belief(rng, n_meas=int(rng.integers(0, 10)))
        before = gp.query_variance.copy()
        loc = coords[rng.integers(len(coords))]
        after = gp.add_measurement(loc, rng.normal(), 0.05).query_variance
        assert np.all(after <= before + 1e-9)


def test_noise_limit_recovers_prior():
    gp = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(4))
    gp = gp.add_measurement((2.0, 2.0), 37.0, 1e12)
    assert np.max(np.abs(gp.query_mean - 0.5)) <= 1e-4
    assert np.max(np.abs(gp.query_variance - 1.0)) <= 1e-4


def test_interpolation_limit_pins_measurement():
    gp = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(4))
    gp = gp.add_measurement((2.0, 2.0), 0.85, 1e-10)
    j = gp.query_index((2.0, 2.0))
    assert abs(gp.query_mean[j] - 0.85) <= 1e-4
    assert gp.query_variance[j] <= 1e-4


# ----------------------------------------------------------------------
# entropy and mutual information

def test_entropy_unit_scalar():
    summary = PosteriorSummary(mean=np.zeros(1), covariance=np.eye(1), dimension=1)
    assert conditional_entropy(summary) == pytest.approx(0.5 * (1.0 + math.log(2 * math.pi)), abs=1e-12)


def test_entropy_scaled_identity_difference():
    d, c = 6, 3.5
    h1 = conditional_entropy(PosteriorSummary(np.zeros(d), np.eye(d), d))
    h2 = conditional_entropy(PosteriorSummary(np.zeros(d), c * np.eye(d), d))
    assert h2 - h1 == pytest.approx(0.5 * d * math.log(c), abs=1e-10)


def test_entropy_matches_eigenvalue_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 31))
        cov = random_spd(rng, n)
        summary = PosteriorSummary(np.zeros(n), cov, n)
        expected = 0.5 * logdet_eig_oracle(cov) + 0.5 * n * (1 + math.log(2 * math.pi))
        assert conditional_entropy(summary) == pytest.approx(expected, abs=1e-8)


def test_entropy_rejects_indefinite_covariance():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(SingularCovarianceError):
        conditional_entropy(PosteriorSummary(np.zeros(2), cov, 2))


def _with_smallest_eigenvalue(smallest, s2, n=6, seed=0):
    """A symmetric n x n matrix with eigenvalues smallest and s2*[0.5, 2]."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    eigs = np.concatenate([[smallest], s2 * np.linspace(0.5, 2.0, n - 1)])
    return (q * eigs) @ q.T


@pytest.mark.parametrize("s2", [1.0, 4.0, 0.25])
def test_jitter_escalates_until_factorization_succeeds(s2):
    mat = _with_smallest_eigenvalue(-5e-7 * s2, s2)
    # jitters 1e-8*s2 and 1e-7*s2 leave the matrix indefinite; 1e-6*s2 does not
    chol, jitter = _cholesky_escalating(mat, s2, JITTER_REL)
    assert jitter == pytest.approx(1e-6 * s2, rel=1e-12)
    np.testing.assert_allclose(chol @ chol.T, mat + jitter * np.eye(len(mat)),
                               rtol=0, atol=1e-12 * s2)
    with pytest.raises(SingularCovarianceError):
        _cholesky_escalating(_with_smallest_eigenvalue(-1e-3 * s2, s2), s2, JITTER_REL)


def test_mi_exact_identical_and_scaled():
    assert mutual_information_exact(np.eye(4), np.eye(4)) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information_exact(2 * np.eye(3), np.eye(3)) == pytest.approx(1.5 * math.log(2), abs=1e-10)


def test_mi_trace_identical_and_scaled():
    assert mutual_information_trace(np.eye(4), np.eye(4)) == 0.0
    assert mutual_information_trace(2 * np.eye(3), np.eye(3)) == pytest.approx(3.0)


def test_mi_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        mutual_information_trace(np.eye(3), np.eye(4))


def test_information_nonnegative_after_measurement():
    rng = np.random.default_rng(31)
    for _ in range(10):
        gp, coords = random_belief(rng, n_meas=int(rng.integers(0, 8)))
        prev = gp.posterior().covariance
        gp2 = gp.add_measurement(coords[rng.integers(len(coords))], rng.normal(), 0.2)
        new = gp2.posterior().covariance
        # verify via the eigenvalue oracle as well as the implementation
        assert mutual_information_exact(prev, new) >= -1e-9
        assert 0.5 * (logdet_eig_oracle(prev) - logdet_eig_oracle(new)) >= -1e-9
        assert mutual_information_trace(prev, new) >= -1e-9


def test_mi_trace_equals_trace_of_variance_difference():
    rng = np.random.default_rng(37)
    gp, coords = random_belief(rng, n_meas=4)
    gp2 = gp.add_measurement(coords[3], 0.7, 0.1)
    lhs = mutual_information_trace(gp.posterior().covariance, gp2.posterior().covariance)
    rhs = gp.trace_of_variance() - gp2.trace_of_variance()
    assert lhs == pytest.approx(rhs, abs=1e-10)


# ----------------------------------------------------------------------
# trace of variance

def test_trace_of_variance_prior():
    gp = GaussianProcessBelief(0.0, SquaredExponential(signal_variance=1.0), grid_coords(4))
    assert gp.trace_of_variance() == pytest.approx(16.0)


def test_trace_matches_full_covariance_oracle():
    rng = np.random.default_rng(41)
    gp, _ = random_belief(rng, n_meas=9)
    assert gp.trace_of_variance() == pytest.approx(float(np.trace(gp.posterior().covariance)), abs=1e-10)


def test_trace_strictly_decreases_on_query_measurement():
    rng = np.random.default_rng(43)
    gp, coords = random_belief(rng, n_meas=3)
    gp2 = gp.add_measurement(coords[7], 0.4, 0.3)
    assert gp2.trace_of_variance() < gp.trace_of_variance()


# ----------------------------------------------------------------------
# the store an update appends to, and the batch rebuild of a collapsed pivot

def assert_same_caches(a, b):
    assert np.array_equal(a.query_mean, b.query_mean)
    assert np.array_equal(a.query_variance, b.query_variance)
    assert a.trace_of_variance() == b.trace_of_variance()


def belief_bits(gp):
    """A belief's m rows, conditioning set, jitter and query caches, as
    exact bits."""
    return (gp._m, gp._jitter.hex(), gp._w.tobytes(), gp._x.tobytes(), gp._y.tobytes(),
            gp._nu.tobytes(), gp.query_mean.tobytes(), gp.query_variance.tobytes(),
            gp.trace_of_variance().hex())


def assert_same_belief(a, b):
    """Bit for bit the same belief."""
    assert belief_bits(a) == belief_bits(b)


def kernels(monkeypatch):
    """Each step kernel in turn, the compiled one where the compiler is."""
    for which in ("compiled", "python"):
        with monkeypatch.context() as m:
            if which == "python":
                m.setattr(kernel, "_state", (None, "forced by a test"))
            elif shutil.which(kernel.COMPILER) is None:
                continue
            else:
                assert kernel.lib() is not None, kernel.KERNEL
            yield which


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s2=st.floats(0.2, 5.0),
       batches=st.lists(st.integers(1, 4), min_size=1, max_size=20))
def test_index_snapshots_equal_coordinate_snapshots(seed, s2, batches):
    # the planner names query points by index; the coordinate wrapper must
    # give the same snapshot, bit for bit, conditioning set included
    rng = np.random.default_rng(seed)
    coords = grid_coords(4)
    by_coord = by_index = GaussianProcessBelief(0.5, SquaredExponential(s2, 1.5), coords)
    for k in batches:
        sites = [(int(rng.integers(len(coords))), float(rng.normal(0.5, 1.0)),
                  float(10 ** rng.uniform(-8, 0))) for _ in range(k)]
        by_coord = by_coord.add_measurements([(coords[j], val, nu) for j, val, nu in sites])
        by_index = by_index.add_measurements_at(sites)
        assert_same_caches(by_index, by_coord)
        for a, b in ((by_index.measured_locations, by_coord.measured_locations),
                     (by_index.measurements, by_coord.measurements),
                     (by_index.noise_variances, by_coord.noise_variances)):
            assert a.tobytes() == b.tobytes()
    assert by_index.add_measurements_at(()) is by_index
    with pytest.raises(ValueError):
        by_index.add_measurements_at([(0, 1.0, 0.0)])


def test_a_collapsed_pivot_rebuilds_like_a_batch_build(monkeypatch):
    coords = grid_coords(3)
    se = SquaredExponential()
    gp = GaussianProcessBelief(0.5, se, coords).add_measurement(coords[4], 0.7, 0.01)
    batch = GaussianProcessBelief(0.5, se, coords, [coords[4], coords[1], coords[4]],
                                  [0.7, 0.3, 0.9], [0.01, 0.05, 0.02])
    rebuild, rebuilds, ran = gp_module._batch_rebuild, [], []
    monkeypatch.setattr(gp_module, "_batch_rebuild",
                        lambda belief, sites: rebuilds.append(sites) or rebuild(belief, sites))
    for which in kernels(monkeypatch):
        rebuilds.clear()
        chain = gp.add_measurements_at([(1, 0.3, 0.05)])
        # a cached variance below -(noise + jitter) collapses the next pivot there
        chain._var_q[4] = -1.0
        used = chain._store.used
        rebuilt = chain.add_measurements_at([(4, 0.9, 0.02)])
        assert rebuilds == [[(4, 0.9, 0.02)]]
        assert chain._store.used == used  # the collapsed update appended nothing
        assert_same_belief(rebuilt, batch)
        # the chain goes on incrementally from the rebuilt factor
        after = rebuilt.add_measurements_at([(0, 0.1, 0.03)])
        assert len(rebuilds) == 1
        assert_same_belief(after, batch.add_measurement(coords[0], 0.1, 0.03))
        assert len(gp.measurements) == 1
        ran.append(which)
    assert "python" in ran


def test_query_caches_are_read_only():
    gp = GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(2))
    tip = gp.add_measurements_at([(0, 1.0, 0.1)])
    for belief in (gp, tip, tip.add_measurements_at([(1, 1.0, 0.1)])):
        for view in (belief.query_variance, belief.query_mean, belief.measured_locations,
                     belief.measurements, belief.noise_variances):
            with pytest.raises(ValueError):
                view[0] = 0.0
    with pytest.raises(ValueError):
        tip.add_measurements_at([(0, 1.0, 0.0)])
    assert gp.trace_of_variance() == 4.0


def fresh_copy(gp):
    """``gp`` holding its m entries in a store of its own, with no room."""
    twin = copy.copy(gp)
    twin._hold(gp_module._Store(gp._m, gp._x, gp._y, gp._nu, gp._w))
    return twin


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1),
       steps=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 3), st.booleans()),
                      min_size=1, max_size=30))
def test_beliefs_sharing_a_store_never_change(seed, steps, monkeypatch):
    # updates branch off any earlier belief: the newest of its store, one
    # already extended, or with no sites at all, and some collapse a pivot;
    # every belief keeps its bits, equals the same update of a fresh copy of
    # its parent, and shares its parent's store exactly when it could append
    rebuild = gp_module._batch_rebuild
    rebuilds = []
    monkeypatch.setattr(gp_module, "_batch_rebuild",
                        lambda belief, sites: rebuilds.append(1) or rebuild(belief, sites))
    for which in kernels(monkeypatch):
        rng = np.random.default_rng(seed)
        beliefs = [GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(4))]
        made = [belief_bits(beliefs[0])]
        for pick, k, collapse in steps:
            parent = beliefs[pick % len(beliefs)]
            sites = [(int(rng.integers(16)), float(rng.normal(0.5, 1.0)),
                      float(10 ** rng.uniform(-8, 0))) for _ in range(k)]
            store, used = parent._store, parent._store.used
            appends = used == parent._m and len(store.y) >= parent._m + k
            with monkeypatch.context() as m:
                if collapse:  # as the kernel tests' COLLAPSE_REL does
                    m.setattr(gp_module, "PIVOT_MIN_REL", 0.5)
                twin = fresh_copy(parent).add_measurements_at(sites)
                rebuilds.clear()
                child = parent.add_measurements_at(sites)
            assert_same_belief(child, twin)
            if not sites:
                assert child is parent
            elif rebuilds:  # a collapsed pivot appends nothing to the store
                assert store.used == used and child._store is not store
            else:
                assert np.shares_memory(child._store.w, store.w) == appends
                assert (child._store is store) == appends
            beliefs.append(child)
            made.append(belief_bits(child))
        assert [belief_bits(belief) for belief in beliefs] == made


def test_an_episode_chain_holds_one_growing_store():
    # a chain that never branches appends in place, growing its store by a
    # quarter and eight entries when it is full: a 100-step chain makes a few
    # stores, and the last holds no more room than that rule gives
    rng = np.random.default_rng(3)
    chain = [GaussianProcessBelief(0.5, SquaredExponential(), grid_coords(10))]
    for _ in range(100):
        chain.append(chain[-1].add_measurements_at(
            [(int(rng.integers(100)), float(rng.normal(0.5, 1.0)), 0.01)]))
    last = chain[-1]
    assert last._m == 100 and last._store.used == 100
    assert len(last._store.y) <= last._m * 5 // 4 + 8
    assert len({id(belief._store) for belief in chain}) <= 8
    assert all(np.shares_memory(a._store.w, b._store.w) or a._m == len(a._store.y)
               for a, b in zip(chain[1:], chain[2:]))


def test_rms_error_has_the_bits_of_the_numpy_mean_form():
    rng = np.random.default_rng(11)
    for size in (1, 10, 100, 257):  # 10 ISRS rocks, a 10x10 rover map, odd sizes
        truth = rng.uniform(0.0, 1.0, size)
        for estimate in rng.normal(0.5, rng.uniform(1e-6, 2.0, (5000, 1)), (5000, size)):
            old = float(np.sqrt(np.mean((estimate - truth) ** 2)))
            assert rms_error(estimate, truth) == old
