import numpy as np
import pytest
from hypothesis import given, strategies as st

from sicheck import ConfigError, DataError, loo_matrix, quartic_kernel

from helpers import simpson


def test_quartic_at_mode():
    assert quartic_kernel(0.0) == 0.9375


def test_quartic_support_boundary_and_outside():
    assert quartic_kernel(1.0) == 0.0
    assert quartic_kernel(-1.5) == 0.0


def test_quartic_interior_value():
    # (15/16) * (1 - 0.25)^2
    assert quartic_kernel(0.5) == pytest.approx(0.52734375, abs=1e-15)


def test_quartic_rejects_non_finite():
    with pytest.raises(DataError):
        quartic_kernel(float("nan"))
    with pytest.raises(DataError):
        quartic_kernel(float("inf"))


def test_quartic_vectorized():
    out = quartic_kernel(np.array([0.0, 0.5, 2.0]))
    assert out == pytest.approx([0.9375, 0.52734375, 0.0])


def kernel_weight(u, c, h):
    """Scaled kernel weight K((u - c) / h) / h: entry (0, 1) of the
    leave-one-out matrix for the two ranks (c, u), where n - 1 = 1."""
    return loo_matrix([c, u], h)[0, 1]


def test_kernel_weight_zero_offset():
    assert kernel_weight(0.3, 0.3, 1.0) == pytest.approx(0.9375)


def test_kernel_weight_outside_support():
    assert kernel_weight(2.0, 0.0, 1.0) == 0.0


def test_kernel_weight_scaled():
    # 2 * K(0.5)
    assert kernel_weight(0.25, 0.0, 0.5) == pytest.approx(1.0546875, abs=1e-15)


def test_kernel_weight_rejects_bad_bandwidth():
    with pytest.raises(ConfigError):
        kernel_weight(0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        kernel_weight(0.0, 0.0, -0.5)


@given(
    u=st.floats(-5, 5),
    c=st.floats(-5, 5),
    h=st.floats(0.01, 3.0),
)
def test_kernel_weight_symmetry(u, c, h):
    assert kernel_weight(u, c, h) == pytest.approx(
        kernel_weight(2.0 * c - u, c, h), rel=1e-12, abs=1e-12
    )


def test_quartic_normalization():
    total = simpson(lambda x: quartic_kernel(x), -1.0, 1.0, 4000)
    assert abs(total - 1.0) < 1e-10


def test_quartic_nonincreasing_on_positive_axis():
    grid = np.linspace(0.0, 1.0, 501)
    vals = quartic_kernel(grid)
    assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("h", [0.1, 0.5, 1.0])
def test_kernel_weight_integrates_to_one(h):
    # one leave-one-out matrix row holds the weights of c against the whole
    # quadrature grid; 400 intervals keep that matrix small
    c = 0.2
    total = simpson(lambda x: loo_matrix(np.append(c, x), h)[0, 1:] * x.size, c - h, c + h, 400)
    assert abs(total - 1.0) < 1e-8
