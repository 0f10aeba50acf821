import numpy as np
import pytest

from sicheck import ConfigError, DataError, WeightSpec

X = np.array([[1.0, -2.0], [0.5, 0.5], [-3.0, 0.0]])


def test_sum_abs():
    assert WeightSpec.sum_abs().evaluate(X) == pytest.approx([3.0, 1.0, 3.0])


def test_sum_squares():
    assert WeightSpec.sum_squares().evaluate(X) == pytest.approx([5.0, 0.5, 9.0])


def test_linear_combo():
    spec = WeightSpec.linear_combo(
        [(2.0, WeightSpec.sum_abs()), (-1.0, WeightSpec.sum_squares())]
    )
    assert spec.evaluate(X) == pytest.approx([1.0, 1.5, -3.0])


def test_labels():
    assert WeightSpec.sum_abs().label == "sumabs"
    assert WeightSpec.sum_squares().label == "sumsq"
    combo = WeightSpec.linear_combo([(1.0, WeightSpec.sum_abs())])
    assert combo.label == "combo(sumabs)"


def test_empty_specs_rejected():
    with pytest.raises(ConfigError):
        WeightSpec.linear_combo([])


def test_evaluate_needs_matrix():
    with pytest.raises(DataError):
        WeightSpec.sum_abs().evaluate(np.ones(5))
    with pytest.raises(DataError, match="non-finite"):
        WeightSpec.sum_abs().evaluate(np.array([[np.inf, 0.0]]))


def test_evaluate_takes_a_stack_and_refuses_a_weight_that_keeps_the_last_axis():
    stack = np.stack([X, -2.0 * X])
    combo = WeightSpec.linear_combo([(2.0, WeightSpec.sum_abs()), (-1.0, WeightSpec.sum_squares())])
    for spec in (WeightSpec.sum_abs(), WeightSpec.sum_squares(), combo):
        assert np.array_equal(spec.evaluate(stack), [spec.evaluate(X), spec.evaluate(-2.0 * X)])
    rows = WeightSpec("rows", lambda x: np.zeros(x.shape[0]))  # one value per matrix of a stack
    with pytest.raises(DataError, match="weight rows gave values of shape \\(2,\\) for covariates "
                                        "of shape \\(2, 3, 2\\)"):
        rows.evaluate(stack)
