"""Tests for state-cloud clustering and thresholds (qspan.percolation)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qspan.hilbert import StateVector, random_state
from qspan.percolation import (
    DistanceMatrix,
    ExperimentFailureError,
    InsufficientPointsError,
    build_clusters,
    critical_threshold,
    critical_threshold_experiment,
    critical_threshold_sample,
    pairwise_distances,
    random_cloud,
)

HALF_PI = np.pi / 2


def symmetric(entries):
    """DistanceMatrix from the upper-triangular entries {(i, j): d}."""
    n = 1 + max(max(i, j) for i, j in entries)
    d = np.zeros((n, n))
    for (i, j), w in entries.items():
        d[i, j] = d[j, i] = w
    return DistanceMatrix(d)


def random_matrix(n, rng):
    d = rng.uniform(0.0, HALF_PI, size=(n, n))
    d = np.triu(d, 1)
    return DistanceMatrix(d + d.T)


# A few fixed weights make ties (and zero-distance pairs) common.
_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.8, 1.0, HALF_PI]),
    st.floats(0.0, HALF_PI),
)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(2, 8))
    iu, ju = np.triu_indices(n, 1)
    d = np.zeros((n, n))
    d[iu, ju] = draw(st.lists(_WEIGHTS, min_size=iu.size, max_size=iu.size))
    return DistanceMatrix(d + d.T)


def reference_cloud(dim, n_points, rng):
    """(n_points, dim) Haar states drawn one at a time from ``rng``."""
    rows = []
    for _ in range(n_points):
        x = rng.standard_normal(2 * dim)
        z = x[0::2] + 1j * x[1::2]
        rows.append(z / np.linalg.norm(x))
    return np.stack(rows)


def closure_partition(d, threshold):
    """Brute-force transitive closure of the adjacency d <= threshold."""
    n = d.shape[0]
    adj = (d <= threshold) | np.eye(n, dtype=bool)
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach @ reach)
    labels = [-1] * n
    label = 0
    for i in range(n):
        if labels[i] < 0:
            for j in range(n):
                if reach[i, j]:
                    labels[j] = label
            label += 1
    return labels


class TestPairwiseDistances:
    def test_diagonal_zero_and_symmetric(self):
        rng = np.random.default_rng(1)
        dist = pairwise_distances(random_cloud(8, 6, rng))
        assert np.all(np.diagonal(dist.values) == 0.0)
        assert np.array_equal(dist.values, dist.values.T)
        assert np.all((dist.values >= 0.0) & (dist.values <= HALF_PI))

    def test_duplicate_state_at_zero_distance(self):
        # arccos of a unit overlap bottoms out near sqrt(2 * eps), which
        # is far below any threshold a sweep would care about.
        psi = random_state(4, np.random.default_rng(2))
        dist = pairwise_distances([psi, psi])
        assert dist.values[0, 1] == pytest.approx(0.0, abs=1e-7)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientPointsError):
            pairwise_distances([random_state(4, np.random.default_rng(3))])

    def test_mean_squared_overlap_matches_dimension(self):
        # cos^2 of the pair distances estimates 1/D.
        dim = 128
        rng = np.random.default_rng(4)
        dist = pairwise_distances(random_cloud(dim, 50, rng))
        iu = np.triu_indices(50, 1)
        overlap_sq = np.cos(dist.values[iu]) ** 2
        se = overlap_sq.std(ddof=1) / np.sqrt(overlap_sq.size)
        assert abs(overlap_sq.mean() - 1.0 / dim) <= 3 * se


class TestBuildClusters:
    def test_zero_threshold_gives_singletons(self):
        dist = random_matrix(6, np.random.default_rng(5))
        clusters = build_clusters(dist, 0.0)
        assert clusters.n_clusters == 6
        assert all(span == 0.0 for span in clusters.max_span.values())

    @pytest.mark.parametrize("threshold", [-0.1, float("nan"), "0.1", None])
    def test_refuses_bad_thresholds(self, threshold):
        dist = random_matrix(3, np.random.default_rng(5))
        with pytest.raises(ValueError, match="threshold"):
            build_clusters(dist, threshold)

    def test_full_threshold_gives_one_cluster(self):
        dist = random_matrix(6, np.random.default_rng(6))
        clusters = build_clusters(dist, HALF_PI)
        assert clusters.n_clusters == 1
        (span,) = clusters.max_span.values()
        assert span == pytest.approx(dist.values.max())

    def test_chain_links_through_middle_point(self):
        dist = symmetric({(0, 1): 0.1, (1, 2): 0.1, (0, 2): 0.19})
        clusters = build_clusters(dist, 0.15)
        assert clusters.n_clusters == 1
        (members,) = clusters.members.values()
        assert members == (0, 1, 2)
        (span,) = clusters.max_span.values()
        assert span == pytest.approx(0.19)

    def test_partition_matches_transitive_closure(self):
        # Exhaustive oracle over 100 random instances.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 13))
            dist = random_matrix(n, rng)
            threshold = float(rng.uniform(0.0, HALF_PI))
            clusters = build_clusters(dist, threshold)
            expect = closure_partition(dist.values, threshold)
            mine = [int(clusters.parent[i]) for i in range(n)]
            pairs_expect = {(i, j) for i in range(n) for j in range(n)
                            if expect[i] == expect[j]}
            pairs_mine = {(i, j) for i in range(n) for j in range(n)
                          if mine[i] == mine[j]}
            assert pairs_mine == pairs_expect

    def test_spans_match_brute_force(self):
        rng = np.random.default_rng(123)
        dist = random_matrix(50, rng)
        for threshold in (0.2, 0.5, 0.9, 1.3):
            clusters = build_clusters(dist, threshold)
            for root, members in clusters.members.items():
                idx = np.asarray(members)
                expected = (
                    0.0 if idx.size == 1
                    else dist.values[np.ix_(idx, idx)].max()
                )
                assert clusters.max_span[root] == pytest.approx(expected, abs=1e-15)


class TestCriticalThreshold:
    def test_two_points_spanning(self):
        assert critical_threshold(symmetric({(0, 1): 1.5})) == pytest.approx(1.5)

    def test_two_points_not_spanning(self):
        assert critical_threshold(symmetric({(0, 1): 0.5})) is None

    def test_condition_checked_on_every_edge(self):
        # The {0,1,2} cluster forms at weight 0.55 with span 1.02, where
        # pi/2 - 1.02 = 0.5508 > 0.55 still fails; the later intra-cluster
        # edge at 1.02 satisfies it without any merge.
        dist = symmetric({(0, 1): 0.5, (0, 2): 0.55, (1, 2): 1.02})
        assert critical_threshold(dist) == pytest.approx(1.02)

    def test_result_is_an_edge_weight_or_none(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            dist = random_matrix(int(rng.integers(2, 9)), rng)
            value = critical_threshold(dist)
            if value is not None:
                iu, ju = np.triu_indices(dist.n_points, 1)
                assert np.any(dist.values[iu, ju] == value)

    @settings(max_examples=300, deadline=None)
    @given(distance_matrices())
    def test_matches_closure_at_each_edge_weight(self, dist):
        # The smallest edge weight w whose closure at w spans maximally.
        iu, ju = np.triu_indices(dist.n_points, 1)
        expected = next(
            (
                w
                for w in sorted(set(dist.values[iu, ju].tolist()))
                if build_clusters(dist, w).spans_maximally(w)
            ),
            None,
        )
        assert critical_threshold(dist) == expected

    def test_adding_a_point_never_raises_threshold(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            big = random_matrix(n, rng)
            small = DistanceMatrix(big.values[: n - 1, : n - 1])
            t_small = critical_threshold(small)
            t_big = critical_threshold(big)
            if t_small is not None:
                assert t_big is not None
                assert t_big <= t_small + 1e-15


class TestSamplerOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.one_of(st.integers(1, 64), st.integers(1, 4096)),
        n_points=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_cloud_and_states_match_reference_bits(self, dim, n_points, seed):
        expected = reference_cloud(dim, n_points, np.random.default_rng(seed)).view(np.uint64)
        cloud = random_cloud(dim, n_points, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        states = [random_state(dim, rng) for _ in range(n_points)]
        for drawn in (cloud, states):
            got = np.stack([s.amplitudes for s in drawn]).view(np.uint64)
            assert np.array_equal(got, expected)

    # (1, 3, 5) has no threshold; (1, 10, 59) has 21 edges below its threshold.
    @settings(max_examples=80, deadline=None)
    @given(
        qubits=st.integers(1, 6),
        n_points=st.integers(2, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(qubits=1, n_points=3, seed=5)
    @example(qubits=1, n_points=10, seed=59)
    def test_sample_matches_wrappers_on_reference_cloud(self, qubits, n_points, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        cloud = [StateVector(z) for z in reference_cloud(2**qubits, n_points, rng)]
        expected = critical_threshold(pairwise_distances(cloud))
        assert critical_threshold_sample(qubits, n_points, seed) == expected

    def test_sample_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="qubits"):
            critical_threshold_sample(0, 5, 0)
        with pytest.raises(InsufficientPointsError):
            critical_threshold_sample(3, 0, 0)


@pytest.mark.parametrize(
    "sampler, args, field",
    [
        (critical_threshold_sample, (1.5, 5, 0), "qubits"),
        (critical_threshold_sample, (True, 5, 0), "qubits"),
        (critical_threshold_sample, (1, 5.5, 0), "n_points"),
        (random_cloud, (2.0, 3, np.random.default_rng(0)), "dim"),
        (random_cloud, (2, "3", np.random.default_rng(0)), "n_points"),
        (critical_threshold_experiment, (1, 5, 2.5, 0), "samples"),
        (critical_threshold_experiment, (1, 5, True, 0), "samples"),
        (random_cloud, (2, -1, np.random.default_rng(0)), "n_points"),
    ],
)
def test_sampling_entry_points_refuse_non_integer_counts(sampler, args, field):
    with pytest.raises(ValueError, match=field):
        sampler(*args)


def test_sampling_entry_points_accept_numpy_integers():
    assert critical_threshold_sample(np.int64(2), np.int32(10), 99) == \
        critical_threshold_sample(2, 10, 99)
    a = critical_threshold_experiment(np.int8(2), np.int64(10), np.uint16(4), 7)
    b = critical_threshold_experiment(2, 10, 4, 7)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    x = random_cloud(np.int64(4), np.int32(3), np.random.default_rng(3))
    y = random_cloud(4, 3, np.random.default_rng(3))
    assert all(np.array_equal(u.amplitudes, v.amplitudes) for u, v in zip(x, y))


class TestExperiment:
    def test_sample_deterministic(self):
        a = critical_threshold_sample(2, 10, 99)
        b = critical_threshold_sample(2, 10, 99)
        assert a == b

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            critical_threshold_sample(1, 1, 0)

    def test_mean_between_extremes(self):
        res = critical_threshold_experiment(2, 12, 20, 5)
        kept = res.values[~res.none_mask]
        assert kept.min() <= res.mean <= kept.max()
        assert res.n_samples == 20
        assert 0.0 <= res.none_rate <= 1.0

    def test_all_none_raises_with_rate(self):
        # Two points of one qubit rarely span; seed 20 makes all three
        # samples come back empty.
        with pytest.raises(ExperimentFailureError) as err:
            critical_threshold_experiment(1, 2, 3, 20)
        assert err.value.none_rate == 1.0

    def test_matches_scaling_fit_at_large_cloud(self):
        # 128-dimensional cloud of 200 points: the mean threshold should
        # sit within 10% of (pi/2) * A * 200**-B with the saturating-
        # amplitude A(128) = 1.0005 - 0.33 * 128**-0.47 and decay
        # exponent B(128) = 0.182 * 128**-0.522.
        res = critical_threshold_experiment(
            7, 200, 30, np.random.SeedSequence([2024, 7, 200])
        )
        amplitude = 1.0005 - 0.33 * 128**-0.47
        exponent = 0.182 * 128**-0.522
        target = HALF_PI * amplitude * 200**-exponent
        assert res.none_rate == 0.0
        assert abs(res.mean / target - 1) <= 0.10

    def test_large_dimension_needs_nearly_maximal_stride(self):
        res = critical_threshold_experiment(14, 50, 8, 2024)
        assert res.mean >= 0.95 * HALF_PI
