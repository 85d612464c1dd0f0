import numpy as np
import pytest

from keybound.infotheory import JointDistribution, mutual_information, shannon_entropy


def test_entropy_known_values():
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0)
    assert shannon_entropy(np.array([1.0, 0.0])) == pytest.approx(0.0)
    assert shannon_entropy(np.array([0.9, 0.1])) == pytest.approx(0.4689955935892812)


def test_entropy_uniform_maximal():
    rng = np.random.default_rng(0)
    for n in (2, 3, 8):
        p = rng.dirichlet(np.ones(n))
        assert shannon_entropy(p) <= np.log2(n) + 1e-12


def test_entropy_rejects_negative():
    with pytest.raises(ValueError):
        shannon_entropy(np.array([1.1, -0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_joint_distribution_rejects_non_finite(bad):
    # every comparison with nan is False, so the range and sum checks
    # alone let it through and the mutual information read 0.0
    with pytest.raises(ValueError, match="probabilities has a non-finite entry"):
        JointDistribution(np.array([[bad, 0.5], [0.25, 0.25]]))


def test_entropy_tolerates_tiny_negative():
    assert shannon_entropy(np.array([1.0, -1e-14])) == pytest.approx(0.0, abs=1e-10)


def test_joint_distribution_marginals():
    table = np.array([[0.4, 0.1], [0.2, 0.3]])
    j = JointDistribution(table)
    assert np.allclose(j.marginal_a(), [0.5, 0.5])
    assert np.allclose(j.marginal_b(), [0.6, 0.4])


def test_joint_distribution_validates_sum():
    with pytest.raises(ValueError):
        JointDistribution(np.array([[0.5, 0.1], [0.1, 0.1]]))


def test_mutual_information_product_is_zero():
    p = np.outer([0.3, 0.7], [0.6, 0.4])
    assert mutual_information(JointDistribution(p)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_perfect_correlation():
    p = np.diag([0.5, 0.5])
    assert mutual_information(JointDistribution(p)) == pytest.approx(1.0)


def test_mutual_information_binary_symmetric():
    for e in (0.05, 0.11, 0.25):
        p = np.array([[0.5 * (1 - e), 0.5 * e], [0.5 * e, 0.5 * (1 - e)]])
        want = 1.0 - shannon_entropy(np.array([e, 1 - e]))
        assert mutual_information(JointDistribution(p)) == pytest.approx(want, abs=1e-12)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = rng.dirichlet(np.ones(12)).reshape(3, 4)
        assert mutual_information(JointDistribution(p)) >= 0.0
