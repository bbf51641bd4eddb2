"""Entry laws, quantile normalizers and reproducible streams."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from htspectra.sampling import (
    RngStreamSpec,
    StableTailLaw,
    normalizer_a_N,
    sample_entries,
    sample_entry,
)


def stable_tail_oracle(alpha: float, u: float) -> float:
    """P(X > u) for the standard symmetric alpha-stable law, directly from
    the inversion formula P(X > u) = 1/2 - (1/pi) int e^{-t^alpha} sin(tu)/t dt."""
    val, _ = quad(lambda t: 0.0 if t == 0.0 else math.exp(-t**alpha) / t,
                  0.0, np.inf, weight="sin", wvar=u, limit=400)
    return 0.5 - val / math.pi


def test_law_validation():
    with pytest.raises(ValueError):
        StableTailLaw(2.0)
    with pytest.raises(ValueError):
        StableTailLaw(1.0, family="gaussian")
    with pytest.raises(ValueError):
        StableTailLaw(1.0, scale=-1.0)


def test_pareto_tail_closed_form():
    law = StableTailLaw(1.5, scale=2.0)
    assert law.tail(1.0) == 1.0
    assert abs(law.tail(4.0) - 0.5**1.5) < 1e-15


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.4])
def test_stable_tail_matches_inversion_oracle(alpha):
    law = StableTailLaw(alpha, family="symmetric-alpha-stable")
    for u in (0.5, 1.0, 3.0, 10.0):
        two_sided = law.tail(u)
        assert abs(two_sided - 2.0 * stable_tail_oracle(alpha, u)) < 1e-7


def test_normalizer_pareto_exact():
    law = StableTailLaw(1.25, scale=0.7)
    n = 321
    assert abs(normalizer_a_N(law, n) - 0.7 * n ** (1.0 / 1.25)) < 1e-12


def test_normalizer_stable_is_quantile():
    law = StableTailLaw(1.5, family="symmetric-alpha-stable")
    for n in (10, 1000):
        a_n = normalizer_a_N(law, n)
        assert abs(law.tail(a_n) - 1.0 / n) < 1e-9


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
        assert abs(emp - law.tail(u)) < 5e-3


def test_stable_sample_distribution():
    from scipy import stats
    law = StableTailLaw(1.3, family="symmetric-alpha-stable")
    rng = RngStreamSpec(7).generator()
    x = sample_entries(law, rng, 20000)
    # KS against scipy's independent stable CDF implementation
    d, _ = stats.kstest(x, lambda v: stats.levy_stable.cdf(v, 1.3, 0.0))
    assert d < 0.02


def test_cauchy_special_case():
    # alpha=1 symmetric stable is the standard Cauchy law
    law = StableTailLaw(1.0, family="symmetric-alpha-stable")
    rng = RngStreamSpec(11).generator()
    x = sample_entries(law, rng, 100000)
    med_abs = np.median(np.abs(x))
    assert abs(med_abs - 1.0) < 0.02   # |Cauchy| has median tan(pi/4) = 1


def test_pareto_exponential_form():
    """|x| = scale * exp(E/alpha) with E standard exponential (the Pareto
    law, since E = -log U), and the sign an independent bit drawn after
    the magnitudes, so it does not depend on alpha."""
    from scipy import stats
    n = 200000
    law = StableTailLaw(1.5, scale=2.0)
    x = sample_entries(law, RngStreamSpec(17).generator(), n)
    e = RngStreamSpec(17).generator().standard_exponential(n)
    np.testing.assert_allclose(np.abs(x), law.scale * np.exp(e / law.alpha),
                               rtol=1e-15, atol=0.0)
    # |x| against the exact Pareto CDF 1 - (scale/u)^alpha on u >= scale
    _, p = stats.kstest(np.abs(x),
                        lambda u: 1.0 - (law.scale / u) ** law.alpha)
    assert p > 1e-3
    other = sample_entries(StableTailLaw(0.7, scale=2.0),
                           RngStreamSpec(17).generator(), n)
    assert np.array_equal(x < 0, other < 0)


def test_sign_symmetry():
    for family in ("symmetric-pareto", "symmetric-alpha-stable"):
        law = StableTailLaw(1.5, family=family)
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


def test_sample_entry_scalar():
    law = StableTailLaw(1.5)
    v = sample_entry(law, RngStreamSpec(1).generator())
    assert isinstance(v, float)
