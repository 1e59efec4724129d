import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from oracles import steering_oracle

WAVELENGTH = 0.1


def half_wave(n_y, n_z):
    return ArrayGeometry.half_wavelength(n_y, n_z, WAVELENGTH)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        geom = half_wave(4, 3)
        a = steering_vector(geom, Direction(azimuth=0.0, elevation=np.pi / 2))
        np.testing.assert_allclose(a, np.ones(12), atol=1e-15)

    def test_endfire_two_element_ula(self):
        geom = half_wave(2, 1)
        a = steering_vector(geom, Direction(azimuth=np.pi / 2, elevation=np.pi / 2))
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_matches_scalar_oracle(self):
        geom = half_wave(2, 2)
        direction = Direction(azimuth=np.pi / 4, elevation=np.pi / 3)
        a = steering_vector(geom, direction)
        ref = steering_oracle(2, 2, geom.spacing_d, WAVELENGTH, np.pi / 4, np.pi / 3)
        np.testing.assert_allclose(a, ref, atol=1e-14)

    def test_matches_scalar_oracle_random_directions(self):
        rng = np.random.default_rng(7)
        geom = ArrayGeometry(n_y=3, n_z=5, spacing_d=0.031, wavelength=0.1)
        for _ in range(20):
            az = rng.uniform(-np.pi, np.pi)
            el = rng.uniform(0.0, np.pi)
            a = steering_vector(geom, Direction(azimuth=az, elevation=el))
            ref = steering_oracle(3, 5, 0.031, 0.1, az, el)
            np.testing.assert_allclose(a, ref, atol=1e-13)

    def test_unit_modulus_and_norm(self):
        rng = np.random.default_rng(11)
        geom = half_wave(4, 4)
        for _ in range(10):
            d = Direction(azimuth=rng.uniform(-np.pi, np.pi), elevation=rng.uniform(0, np.pi))
            a = steering_vector(geom, d)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)
            assert np.isclose(np.linalg.norm(a) ** 2, geom.n_elements, rtol=1e-14)
            assert a[0] == 1.0 + 0.0j

    def test_ula_conjugate_symmetry(self):
        geom = half_wave(6, 1)
        el = 1.1
        a_pos = steering_vector(geom, Direction(azimuth=0.7, elevation=el))
        a_neg = steering_vector(geom, Direction(azimuth=-0.7, elevation=el))
        np.testing.assert_allclose(a_neg, a_pos.conj(), atol=1e-14)


class TestSteeringStack:
    @pytest.mark.parametrize("n_y, n_z, n_dirs", [(10, 10, 10), (4, 4, 4), (3, 5, 7), (1, 6, 1)])
    def test_equals_per_direction_calls_bit_for_bit(self, n_y, n_z, n_dirs):
        rng = np.random.default_rng(n_y * 100 + n_dirs)
        geom = ArrayGeometry(n_y=n_y, n_z=n_z, spacing_d=0.043, wavelength=0.1)
        for _ in range(20):
            dirs = [
                Direction(azimuth=rng.uniform(-np.pi, np.pi), elevation=rng.uniform(0.0, np.pi))
                for _ in range(n_dirs)
            ]
            stack = steering_vector(geom, dirs)
            assert stack.shape == (n_dirs, n_y * n_z)
            assert np.array_equal(stack, np.stack([steering_vector(geom, d) for d in dirs]))

    def test_is_read_only_and_kept(self):
        geom = half_wave(4, 3)
        dirs = [Direction(azimuth=0.3, elevation=1.2), Direction(azimuth=-1.1, elevation=1.9)]
        stack = steering_vector(geom, dirs)
        assert not stack.flags.writeable
        assert steering_vector(geom, tuple(dirs)) is stack

    def test_no_directions_give_an_empty_stack(self):
        assert steering_vector(half_wave(2, 3), []).shape == (0, 6)


class TestTypes:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_y=0, n_z=1, spacing_d=0.05, wavelength=0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(n_y=1, n_z=1, spacing_d=-0.05, wavelength=0.1)
        with pytest.raises(ValueError):
            ArrayGeometry(n_y=1, n_z=1, spacing_d=0.05, wavelength=0.0)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            Direction(azimuth=4.0, elevation=0.5)
        with pytest.raises(ValueError):
            Direction(azimuth=0.0, elevation=-0.1)
        with pytest.raises(ValueError):
            Direction(azimuth=0.0, elevation=3.5)

    def test_derived_quantities(self):
        geom = half_wave(4, 2)
        assert geom.n_elements == 8
        assert np.isclose(geom.spacing_d, WAVELENGTH / 2.0)
        assert np.isclose(geom.wavenumber, 2.0 * np.pi / WAVELENGTH)
