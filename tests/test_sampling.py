"""Entry laws, quantile normalizers and reproducible streams."""

import numpy as np
import pytest

from htspectra.sampling import (
    RngStreamSpec,
    StableTailLaw,
    normalizer_a_N,
    sample_entries,
)


def test_law_validation():
    with pytest.raises(ValueError):
        StableTailLaw(2.0)


def test_normalizer_pareto_exact():
    law = StableTailLaw(1.25)
    n = 321
    assert abs(normalizer_a_N(law, n) - n ** (1.0 / 1.25)) < 1e-12


def test_normalizer_monotone_in_n():
    law = StableTailLaw(0.8)
    values = [normalizer_a_N(law, n) for n in (10, 100, 1000)]
    assert values[0] < values[1] < values[2]


def test_pareto_sample_tail_frequency():
    law = StableTailLaw(1.5)
    rng = RngStreamSpec(123).generator()
    x = sample_entries(law, rng, 200000)
    for u in (1.0, 2.0, 5.0):
        emp = np.mean(np.abs(x) >= u)
        # P(|x| >= u) = min(1, u^-alpha)
        assert abs(emp - min(1.0, u ** -law.alpha)) < 5e-3


def test_pareto_exponential_form():
    """|x| = exp(E/alpha) with E standard exponential (the Pareto law,
    since E = -log U), and the sign an independent bit drawn after the
    magnitudes, so it does not depend on alpha."""
    from scipy import stats
    n = 200000
    law = StableTailLaw(1.5)
    x = sample_entries(law, RngStreamSpec(17).generator(), n)
    e = RngStreamSpec(17).generator().standard_exponential(n)
    np.testing.assert_allclose(np.abs(x), np.exp(e / law.alpha),
                               rtol=1e-15, atol=0.0)
    # |x| against the exact Pareto CDF 1 - u^-alpha on u >= 1
    _, p = stats.kstest(np.abs(x), lambda u: 1.0 - u ** -law.alpha)
    assert p > 1e-3
    other = sample_entries(StableTailLaw(0.7),
                           RngStreamSpec(17).generator(), n)
    assert np.array_equal(x < 0, other < 0)


def test_sign_symmetry():
    law = StableTailLaw(1.5)
    rng = RngStreamSpec(5).generator()
    x = sample_entries(law, rng, 100000)
    assert abs(np.mean(x > 0) - 0.5) < 5e-3


def test_streams_reproducible_and_independent():
    law = StableTailLaw(1.1)
    a = sample_entries(law, RngStreamSpec(42, 3).generator(), 100)
    b = sample_entries(law, RngStreamSpec(42, 3).generator(), 100)
    c = sample_entries(law, RngStreamSpec(42, 4).generator(), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

