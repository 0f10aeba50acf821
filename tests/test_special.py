import math

import numpy as np
import pytest

from sicheck.exceptions import ConfigError
from sicheck.special import (
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    normal_cdf,
    normal_two_sided_p,
    reg_gamma_p,
    reg_gamma_q,
)

from helpers import chisq_cdf_quadrature, normal_cdf_quadrature, simpson


# erf and erfc come from the stdlib; these check the normal functions'
# scaling through erf(x) = 2 Phi(x sqrt 2) - 1 and erfc(x) = 2 (1 - Phi(x sqrt 2)).
SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 1.0, 1.7, 2.5, 4.0, 5.0])
def test_erf_against_quadrature(x):
    oracle = simpson(lambda t: 2.0 / math.sqrt(math.pi) * np.exp(-t * t), 0.0, x, 40000)
    assert abs(2.0 * normal_cdf(x * SQRT2) - 1.0 - oracle) < 1e-12
    assert abs(2.0 * normal_cdf(-x * SQRT2) - 1.0 + oracle) < 1e-12


def test_erf_matches_stdlib():
    for x in np.linspace(-6, 6, 121):
        assert abs(2.0 * normal_cdf(float(x) * SQRT2) - 1.0 - math.erf(float(x))) < 5e-16


def test_erfc_matches_stdlib():
    for x in np.linspace(0.01, 20, 200):
        rel = abs(normal_two_sided_p(float(x) * SQRT2) - math.erfc(float(x))) / math.erfc(float(x))
        assert rel < 1e-13


@pytest.mark.parametrize("x", [-4.0, -2.0, -1.0, -0.3, 0.0, 0.7, 1.5, 3.0, 5.0])
def test_normal_cdf_against_quadrature(x):
    assert abs(normal_cdf(x) - normal_cdf_quadrature(x)) < 1e-10


# The normal quantile z_(1 - a/2) is the root of the chi-square(1) quantile
# at 1 - a: the score test's critical value is the d = 1 maximin one.


def test_normal_quantile_two_sided_critical_value():
    # the alpha = 0.05 two-sided critical value
    lam = math.sqrt(chisq_quantile(0.95, 1))
    assert lam == pytest.approx(1.9600, abs=5e-5)
    assert lam == pytest.approx(1.959963985, abs=1e-8)


def test_normal_quantile_round_trip():
    for p in np.linspace(0.0005, 0.9995, 201):
        assert abs(normal_two_sided_p(math.sqrt(chisq_quantile(float(p), 1))) - (1.0 - p)) < 1e-12


def test_normal_quantile_domain():
    with pytest.raises(ConfigError):
        chisq_quantile(0.0, 1)
    with pytest.raises(ConfigError):
        chisq_quantile(1.0, 1)


def test_two_sided_p_values():
    assert normal_two_sided_p(0.0) == 1.0
    assert normal_two_sided_p(1.959963985) == pytest.approx(0.05, abs=1e-9)
    assert normal_two_sided_p(-1.959963985) == pytest.approx(0.05, abs=1e-9)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("x", [0.2, 1.0, 2.5, 6.0, 12.0])
def test_chisq_cdf_against_quadrature(df, x):
    assert abs(chisq_cdf(x, df) - chisq_cdf_quadrature(x, df)) < 1e-10


def test_chisq_cdf_closed_form_two_df():
    for x in (0.5, 1.0, 3.0, 8.0):
        assert chisq_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-13)


def test_chisq_quantiles():
    assert chisq_quantile(0.95, 1) == pytest.approx(3.841459, abs=1e-5)
    assert chisq_quantile(0.95, 2) == pytest.approx(5.991465, abs=1e-5)


@pytest.mark.parametrize("df", [1, 2, 4, 7])
def test_chisq_quantile_round_trip(df):
    for p in np.linspace(0.01, 0.99, 50):
        assert abs(chisq_cdf(chisq_quantile(float(p), df), df) - p) < 1e-10


def test_chisq_sf_complements_cdf():
    for df in (1, 3, 6):
        for x in (0.3, 2.0, 9.0):
            assert chisq_sf(x, df) + chisq_cdf(x, df) == pytest.approx(1.0, abs=1e-12)


def test_chisq_edge_values():
    assert chisq_cdf(0.0, 3) == 0.0
    assert chisq_sf(0.0, 3) == 1.0
    with pytest.raises(ConfigError):
        chisq_cdf(1.0, 0)
    with pytest.raises(ConfigError):
        chisq_quantile(1.2, 2)


def test_reg_gamma_complement():
    for a in (0.5, 1.0, 2.5, 10.0):
        for x in (0.1, 1.0, 4.0, 20.0):
            assert reg_gamma_p(a, x) + reg_gamma_q(a, x) == pytest.approx(1.0, abs=1e-13)


def test_reg_gamma_domain():
    with pytest.raises(ConfigError):
        reg_gamma_p(0.0, 1.0)
    with pytest.raises(ConfigError):
        reg_gamma_q(1.0, -1.0)
