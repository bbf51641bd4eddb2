"""Profiles, matrix assembly and the cell kernels of the limit system."""

import json

import numpy as np
import pytest

from htspectra import matrices
from htspectra.matrices import (
    DiagonalLaw,
    EnsembleSpec,
    SigmaProfile,
    alpha_kernel,
    assemble_band_matrix,
    build_band_matrix,
    build_covariance_matrix,
    covariance_profile,
)
from htspectra.sampling import (
    RngStreamSpec,
    StableTailLaw,
    normalizer_a_N,
    sample_entries,
)


BAND = SigmaProfile("band", breakpoints=(0.0, 0.25, 0.75, 1.0),
                    values=(1.0, 0.0, 1.0))
PIECE = SigmaProfile("piecewise", breaks=(0.0, 0.5, 1.0),
                     matrix=((1.0, 2.0), (2.0, 3.0)))


def test_profile_validation():
    with pytest.raises(ValueError):
        SigmaProfile("other")
    with pytest.raises(ValueError):
        SigmaProfile("piecewise", breaks=(0.0, 1.0),
                     matrix=((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        SigmaProfile("piecewise", breaks=(0.0, 0.5, 1.0),
                     matrix=((1.0, 2.0), (3.0, 1.0)))
    with pytest.raises(ValueError):   # phi not even
        SigmaProfile("band", breakpoints=(0.0, 0.25, 1.0), values=(1.0, 0.0))


def test_evaluate_variants():
    const = SigmaProfile("constant", c=2.5)
    assert const.evaluate(np.array(0.3), np.array(0.8)) == 2.5
    assert PIECE.evaluate(np.array(0.2), np.array(0.7)) == 2.0
    # band profile depends on x - y mod 1 only
    assert BAND.evaluate(np.array(0.1), np.array(0.2)) == \
        BAND.evaluate(np.array(0.6), np.array(0.7))
    assert BAND.evaluate(np.array(0.1), np.array(0.6)) == 0.0


def test_lattice_shape_and_symmetry():
    lat = PIECE.lattice(64)
    assert lat.shape == (64, 64)
    assert np.array_equal(lat, lat.T)


def test_json_round_trip():
    for prof in (SigmaProfile("constant", c=1.5), PIECE, BAND,
                 SigmaProfile.from_json({"type": "grid", "resolution": 2,
                                         "values": [[1.0, 2.0], [2.0, 1.0]]})):
        again = SigmaProfile.from_json(json.dumps(prof.to_json()))
        assert again == prof


@pytest.mark.parametrize("p, n", [(100, 100), (25, 1200), (7, 300)])
def test_grid_profile_is_the_piecewise_profile_on_its_cells(p, n):
    # a p x p grid of values is the piecewise profile on breaks k/p: the
    # same cells, and the same value at every lattice point, those on a
    # break included (at p = n = 100 flooring x p misplaced 591 of them)
    values = np.random.default_rng(p).random((p, p))
    values = values + values.T
    grid = SigmaProfile.from_json({"type": "grid", "resolution": p,
                                   "values": values.tolist()})
    piece = SigmaProfile("piecewise",
                         breaks=tuple(k / p for k in range(p + 1)),
                         matrix=tuple(map(tuple, values.tolist())))
    for got, want in zip(alpha_kernel(grid, 1.5), alpha_kernel(piece, 1.5)):
        assert np.array_equal(got, want)
    assert np.array_equal(grid.lattice(n), piece.lattice(n))
    law = DiagonalLaw(atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert DiagonalLaw.from_json(json.dumps(law.to_json())) == law


def test_diagonal_law_validation():
    with pytest.raises(ValueError):
        DiagonalLaw(atoms=())
    with pytest.raises(ValueError):
        DiagonalLaw(atoms=((0.0, 0.7),))
    with pytest.raises(ValueError):
        DiagonalLaw(atoms=((0.0, -0.5), (1.0, 1.5)))


def test_assemble_symmetry_and_scaling():
    x = np.arange(16.0).reshape(4, 4)
    a = assemble_band_matrix(x[np.triu_indices(4)],
                             SigmaProfile("constant", c=2.0), a_N=4.0)
    assert np.array_equal(a, a.T)
    # upper triangle of x drives both halves: A_ij = 2 * x_min(i,j),max / 4
    assert a[2, 1] == 2.0 * x[1, 2] / 4.0


def test_assemble_truncation_and_diagonal():
    x = np.array([[0.0, 10.0], [0.0, 1.0]])
    a = assemble_band_matrix(x[np.triu_indices(2)],
                             SigmaProfile("constant", c=1.0), a_N=1.0,
                             truncate_at=5.0, diagonal=np.array([7.0, 8.0]))
    assert a[0, 1] == 0.0 and a[1, 0] == 0.0     # truncated away
    assert a[0, 0] == 7.0 and a[1, 1] == 8.0 + 1.0


def test_assemble_rejects_unpacked_input():
    with pytest.raises(ValueError):
        assemble_band_matrix(np.ones((3, 3)), SigmaProfile("constant"), 1.0)
    with pytest.raises(ValueError):      # 5 is no triangular number
        assemble_band_matrix(np.ones(5), SigmaProfile("constant"), 1.0)


def test_build_band_matrix_draws_upper_triangle_only(monkeypatch):
    sizes = []
    real = matrices.sample_entries

    def counted(law, rng, size):
        out = real(law, rng, size)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(matrices, "sample_entries", counted)
    for n in (1, 7, 32):
        build_band_matrix(EnsembleSpec(N=n, law=StableTailLaw(1.5),
                                       profile=PIECE, seed=RngStreamSpec(3)))
    assert sizes == [1, 28, 528]          # N(N+1)/2 each


@pytest.mark.parametrize("profile", [SigmaProfile("constant", c=1.5),
                                     PIECE, BAND])
def test_build_band_matrix_places_packed_draws(profile):
    """A[i,j] = sigma((i+1)/N, (j+1)/N) * v_k / a_N for the k-th draw in
    np.triu_indices(N) order, mirrored exactly into the lower triangle."""
    n = 9
    law = StableTailLaw(1.5)
    a = build_band_matrix(EnsembleSpec(N=n, law=law, profile=profile,
                                       seed=RngStreamSpec(9, 2)))
    v = sample_entries(law, RngStreamSpec(9, 2).generator(),
                       n * (n + 1) // 2)
    upper = np.triu_indices(n)
    assert np.array_equal(a, a.T)
    assert np.array_equal(
        a[upper], profile.lattice(n)[upper] * (v / normalizer_a_N(law, n)))


def test_build_band_matrix_reproducible():
    spec = EnsembleSpec(N=32, law=StableTailLaw(1.5),
                        profile=SigmaProfile("constant", c=1.0),
                        seed=RngStreamSpec(9))
    assert np.array_equal(build_band_matrix(spec), build_band_matrix(spec))


def test_diagonal_perturbation_adds_one_atom_per_diagonal_entry():
    # the diagonal draws come after the entries from the same stream: the
    # perturbed matrix is the plain one plus an atom on each diagonal entry
    n = 50
    law = StableTailLaw(1.5)
    prof = SigmaProfile("constant", c=1.0)
    diag = DiagonalLaw(((-1.0, 0.5), (1.0, 0.5)))
    plain = build_band_matrix(EnsembleSpec(N=n, law=law, profile=prof,
                                           seed=RngStreamSpec(3)))
    perturbed = build_band_matrix(EnsembleSpec(N=n, law=law, profile=prof,
                                               diagonal=diag,
                                               seed=RngStreamSpec(3)))
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(perturbed[off], plain[off])
    shift = np.diag(perturbed) - np.diag(plain)
    atom = np.where(shift > 0.0, 1.0, -1.0)
    assert np.all(np.abs(shift - atom) <= 1e-15)
    assert np.array_equal(np.diag(perturbed), np.diag(plain) + atom)
    assert set(atom) == {-1.0, 1.0}


def test_truncation_validation():
    law = StableTailLaw(1.5)
    prof = SigmaProfile("constant", c=1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(N=8, law=law, profile=prof, truncation=-1.0)
    EnsembleSpec(N=8, law=law, profile=prof, truncation=2.0)


def test_covariance_matrix_rank_and_psd():
    law = StableTailLaw(1.2)
    w = build_covariance_matrix(law, 20, 8, RngStreamSpec(4))
    assert w.shape == (20, 20)
    ev = np.linalg.eigvalsh(w)
    assert np.all(ev > -1e-10)
    assert np.sum(np.abs(ev) < 1e-10 * np.max(ev)) == 12   # N - M zeros


def test_covariance_matrix_from_entries():
    x = RngStreamSpec(2).generator().standard_normal((5, 3))
    law = StableTailLaw(1.5)
    a = normalizer_a_N(law, 8)
    w = build_covariance_matrix(law, 5, 3, RngStreamSpec(0), entries=x)
    assert np.array_equal(w, (x / a) @ (x / a).T)


def riemann_alpha_norm(profile, alpha, n=4000):
    """Independent Riemann-sum route to sup_x int |sigma(x,v)|^alpha dv."""
    t = (np.arange(n) + 0.5) / n
    lat = np.abs(profile.evaluate(t[:, None], t[None, :])) ** alpha
    return float(np.max(lat.mean(axis=1)))


@pytest.mark.parametrize("profile", [SigmaProfile("constant", c=1.3),
                                     PIECE, BAND])
def test_alpha_norm_matches_riemann_oracle(profile):
    # the largest row mass of the kernel is sup_x int |sigma(x, v)|^alpha dv
    w, k = alpha_kernel(profile, 1.5)
    assert abs(float(np.max(k @ w)) - riemann_alpha_norm(profile, 1.5)) < 1e-3


def test_band_kernel_rows_sum_exactly():
    """A band profile is one cell of weight 1 whose kernel value is
    int |phi|^alpha, the row integral of |sigma|^alpha at every x."""
    for alpha in (0.8, 1.5):
        w, k = alpha_kernel(BAND, alpha)
        # |phi| in {0,1} so int |phi|^alpha = 0.5 exactly
        assert np.array_equal(w, [1.0]) and np.array_equal(k, [[0.5]])


def test_alpha_kernel_piecewise_passthrough():
    w, k = alpha_kernel(PIECE, 1.5)
    assert np.allclose(w, [0.5, 0.5])
    assert np.allclose(k, np.abs(np.array(PIECE.matrix)) ** 1.5)


def test_equivalent_constant_value():
    # the band kernel is that of the constant (int |phi|^alpha)^(1/alpha)
    w, k = alpha_kernel(BAND, 1.5)
    cw, ck = alpha_kernel(SigmaProfile("constant", c=0.5 ** (1.0 / 1.5)), 1.5)
    assert np.array_equal(w, cw)
    assert abs(k[0, 0] - ck[0, 0]) < 1e-15
    # a piecewise profile keeps its cells
    assert alpha_kernel(PIECE, 1.5)[1].shape == (2, 2)


def test_covariance_profile_shape():
    prof = covariance_profile(0.5)
    assert np.allclose(prof.breaks, [0.0, 2.0 / 3.0, 1.0])
    assert np.allclose(prof.matrix, [[0.0, 1.0], [1.0, 0.0]])
    # tail integral (alpha/2) * 2 gamma / (1+gamma)^2 via the cells
    w, k = alpha_kernel(prof, 1.0)
    integral = float(w @ k @ w)
    assert abs(integral - 2.0 * 0.5 / 1.5**2) < 1e-14
