"""Coupling matrices, transformed basis, dark state, and closed eigensystems."""

import math

import numpy as np
import pytest

import eitlab as el
from conftest import random_config


def residual(h: np.ndarray, lam: float, v: np.ndarray) -> float:
    return np.linalg.norm(h @ v - lam * v) / np.linalg.norm(h)


class TestBuildH4:
    def test_all_controls_zero(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0, 0, 0, 0], probe=0.0)
        assert np.all(el.build_h4(cfg) == 0)

    def test_single_control_places_single_coupling(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[1.0, 0, 0, 0], probe=0.0)
        m = el.build_h4(cfg)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 0] = expected[0, 1] = -1.0  # (c,b) and (b,c)
        assert np.array_equal(m, expected)

    def test_hermitian_zero_diagonal_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = el.build_h4(random_config(rng))
            assert np.allclose(m, m.conj().T, atol=1e-14)
            assert np.all(m.diagonal() == 0)


class TestBuildH5:
    def test_zero_probe_isolates_ground(self, fig4a):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.0)
        m = el.build_h5(cfg)
        assert np.all(m[0, :] == 0) and np.all(m[:, 0] == 0)

    def test_lower_block_is_h4(self, fig4a):
        assert np.array_equal(el.build_h5(fig4a)[1:, 1:], el.build_h4(fig4a))

    def test_hermitian_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = el.build_h5(random_config(rng, probe=0.3))
            assert np.allclose(m, m.conj().T, atol=1e-14)


class TestTransformedBasis:
    def test_upper_pair_aligned_with_single_control(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.5, 0.5, 1.0, 0.0], probe=0.01)
        basis = el.transformed_basis(cfg)
        assert np.allclose(basis.d_e, [0.0, -1.0])
        assert np.allclose(basis.b_e, [1.0, 0.0])

    def test_equal_upper_pair(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.5, 0.5, 0.7, 0.7], probe=0.01)
        basis = el.transformed_basis(cfg)
        assert np.allclose(basis.d_e, np.array([1.0, -1.0]) / math.sqrt(2))

    def test_orthonormality_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            basis = el.transformed_basis(random_config(rng))
            assert abs(np.vdot(basis.d_e, basis.b_e)) < 1e-14
            assert np.linalg.norm(basis.d_e) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(basis.b_e) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.vdot(basis.d_b, basis.b_b)) < 1e-14
            assert np.linalg.norm(basis.d_b) == pytest.approx(1.0, abs=1e-14)

    def test_zero_upper_pair_refused(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[1, 1, 0, 0], probe=0.01)
        with pytest.raises(el.ZeroBrightCoupling):
            el.transformed_basis(cfg)

    def test_zero_lower_pair_refused(self):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0, 0, 1, 1], probe=0.01)
        with pytest.raises(el.ZeroBrightCoupling):
            el.transformed_basis(cfg)


class TestReconstruct:
    def test_reference_set_exact(self, fig4a):
        rebuilt = el.reconstruct_h4(el.derive_couplings(fig4a), el.transformed_basis(fig4a))
        direct = el.build_h4(fig4a)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(rebuilt - direct)) < 1e-12 * scale

    def test_regime_b_beta_term_vanishes(self, fig4b):
        couplings = el.derive_couplings(fig4b)
        assert couplings.beta == 0.0
        rebuilt = el.reconstruct_h4(couplings, el.transformed_basis(fig4b))
        direct = el.build_h4(fig4b)
        assert np.max(np.abs(rebuilt - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_regime_c_alpha_term_vanishes(self, fig4c):
        couplings = el.derive_couplings(fig4c)
        rebuilt = el.reconstruct_h4(couplings, el.transformed_basis(fig4c))
        direct = el.build_h4(fig4c)
        assert np.max(np.abs(rebuilt - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_random_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cfg = random_config(rng)
            rebuilt = el.reconstruct_h4(el.derive_couplings(cfg), el.transformed_basis(cfg))
            direct = el.build_h4(cfg)
            assert np.max(np.abs(rebuilt - direct)) < 1e-12 * np.max(np.abs(direct))


def assert_oracle_conventions(system: el.EigenSystem4) -> None:
    """Ascending eigenvalues, unit columns, largest component real and > 0."""
    assert np.all(np.diff(system.eigenvalues) >= 0)
    for col in system.eigenvectors.T:
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-14)
        pivot = col[np.argmax(np.abs(col))]
        assert pivot.real > 0
        assert abs(pivot.imag) <= 1e-15 * abs(pivot)


class TestNumericEigensystem:
    def test_conventions_on_fig4c(self, fig4c):
        assert_oracle_conventions(el.numeric_eigensystem(el.build_h4(fig4c)))

    @pytest.mark.parametrize("situation", ["A", "B", "C"])
    def test_conventions_random(self, situation):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = el.build_h4(random_config(rng, situation=situation))
            system = el.numeric_eigensystem(h)
            assert_oracle_conventions(system)
            for j, lam in enumerate(system.eigenvalues):
                assert residual(h, lam, system.eigenvectors[:, j]) < 1e-13


class TestEigensystemA:
    def test_matches_numeric_oracle(self, fig4a):
        closed = el.eigensystem_a(fig4a)
        numeric = el.numeric_eigensystem(el.build_h4(fig4a))
        scale = np.max(np.abs(closed.eigenvalues))
        assert np.allclose(closed.eigenvalues, numeric.eigenvalues, atol=1e-10 * scale)

    def test_eigenpair_residuals(self, fig4a):
        h = el.build_h4(fig4a)
        system = el.eigensystem_a(fig4a)
        for j, lam in enumerate(system.eigenvalues):
            assert residual(h, lam, system.eigenvectors[:, j]) < 1e-10

    def test_wrong_situation(self, fig4b):
        with pytest.raises(el.WrongSituation):
            el.eigensystem_a(fig4b)

    def test_random_regime_a(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            cfg = random_config(rng)
            if el.derive_couplings(cfg).situation is not el.Situation.A:
                continue
            closed = el.eigensystem_a(cfg)
            h = el.build_h4(cfg)
            numeric = np.linalg.eigvalsh(h)
            assert np.allclose(closed.eigenvalues, numeric,
                               atol=1e-10 * max(np.max(np.abs(numeric)), 1e-30))
            for j, lam in enumerate(closed.eigenvalues):
                assert residual(h, lam, closed.eigenvectors[:, j]) < 1e-10

    def test_invariants_s_y(self):
        # both eigenvalue branches stay real for any draw
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = el.derive_couplings(random_config(rng))
            s = abs(c.alpha) ** 2 + abs(c.beta) ** 2 + c.omega_total**2
            y = math.sqrt(s**2 - 4 * abs(c.beta) ** 2 * c.omega_total**2)
            assert s - y >= -1e-12 * s
            assert s + y >= 0


class TestEigensystemB:
    def test_eigenvalue_multiset(self, fig4b):
        system = el.eigensystem_b(fig4b)
        c = el.derive_couplings(fig4b)
        r = math.sqrt(abs(c.alpha) ** 2 + c.omega_total**2)
        assert np.allclose(system.eigenvalues, [-r, 0.0, 0.0, r], atol=1e-12)

    def test_dark_ground_superposition_is_zero_mode(self, fig4b):
        system = el.eigensystem_b(fig4b)
        basis = el.transformed_basis(fig4b)
        embedded = np.zeros(4, dtype=complex)
        embedded[1:3] = basis.d_e
        zero_vectors = system.eigenvectors[:, np.abs(system.eigenvalues) < 1e-12]
        # d_e must lie inside the zero eigenspace
        projection = zero_vectors @ (zero_vectors.conj().T @ embedded)
        assert np.linalg.norm(projection - embedded) < 1e-12

    def test_wrong_situation(self, fig4a):
        with pytest.raises(el.WrongSituation):
            el.eigensystem_b(fig4a)

    def test_random_regime_b(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = random_config(rng, situation="B")
            closed = el.eigensystem_b(cfg)
            h = el.build_h4(cfg)
            numeric = np.linalg.eigvalsh(h)
            assert np.allclose(closed.eigenvalues, numeric,
                               atol=1e-10 * max(np.max(np.abs(numeric)), 1e-30))
            for j, lam in enumerate(closed.eigenvalues):
                assert residual(h, lam, closed.eigenvectors[:, j]) < 1e-10


class TestDarkState:
    def test_zero_probe_dark_state_is_ground(self, fig4a):
        cfg = el.FieldConfig.in_gamma_units(1.0, controls=[0.9, 0.7, 0.4, 0.8], probe=0.0)
        vec = el.dark_state(cfg)
        assert np.allclose(vec[1:], 0.0)
        assert vec[0] != 0

    def test_reference_residual(self, fig4a):
        vec = el.dark_state(fig4a)
        h5 = el.build_h5(fig4a)
        assert np.linalg.norm(h5 @ vec) < 1e-12 * np.linalg.norm(h5) * np.linalg.norm(vec)

    def test_no_overlap_with_bright_directions(self, fig4a):
        vec = el.dark_state(fig4a)
        basis = el.transformed_basis(fig4a)
        assert vec[1] == 0  # |b>
        assert vec[4] == 0  # |e>
        b_e5 = np.zeros(5, dtype=complex)
        b_e5[2:4] = basis.b_e
        assert abs(np.vdot(b_e5, vec)) < 1e-14 * np.linalg.norm(vec)

    def test_regime_b_has_no_dark_state(self, fig4b):
        with pytest.raises(el.NoDarkState):
            el.dark_state(fig4b)

    def test_residual_invariant_under_global_control_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            cfg = random_config(rng, probe=0.2)
            if el.derive_couplings(cfg).situation not in (el.Situation.A, el.Situation.C):
                continue

            def normalized_residual(c):
                v = el.dark_state(c)
                h5 = el.build_h5(c)
                return np.linalg.norm(h5 @ v) / (np.linalg.norm(h5) * np.linalg.norm(v))

            theta = rng.uniform(0, 2 * np.pi)
            rotated = el.FieldConfig.in_gamma_units(1.0, controls=[
                (f.amplitude, f.phase + theta) for f in cfg.controls],
                probe=(cfg.omega_p.amplitude, cfg.omega_p.phase),
                delta_p=cfg.delta_p, delta_2=cfg.delta_2, delta_3=cfg.delta_3,
                gamma_b=cfg.gamma_b, gamma_e=cfg.gamma_e)
            assert abs(normalized_residual(cfg) - normalized_residual(rotated)) < 1e-13

    def test_random_regimes_a_and_c(self):
        rng = np.random.default_rng(8)
        for situation in ("C", None):
            for _ in range(50):
                cfg = random_config(rng, situation=situation, probe=0.1)
                if el.derive_couplings(cfg).situation not in (el.Situation.A, el.Situation.C):
                    continue
                vec = el.dark_state(cfg)
                h5 = el.build_h5(cfg)
                assert np.linalg.norm(h5 @ vec) < 1e-12 * np.linalg.norm(h5) * np.linalg.norm(vec)
