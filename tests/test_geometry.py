import numpy as np
import pytest

from aquapos.errors import DegenerateLine, GimbalLockNear, ParallelToPlane
from aquapos.geometry import (
    PluckerLine,
    RigidTransform,
    _line_zplane_hit,
    compose,
    euler_zyx_to_rotation,
    intersect_with_zplane,
    invert,
    transform_point,
)

IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def _translation(t):
    return RigidTransform(np.eye(3), t)


def _rx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def _random_transform(rng):
    R = euler_zyx_to_rotation(
        rng.uniform(-np.pi, np.pi),
        rng.uniform(-1.4, 1.4),
        rng.uniform(-np.pi, np.pi),
    )
    return RigidTransform(R, rng.uniform(-5, 5, size=3))


class TestTransformPoint:
    def test_identity(self):
        H = IDENTITY
        assert np.allclose(transform_point(H, [1, 2, 3]), [1, 2, 3], atol=0)

    def test_pure_translation(self):
        H = _translation([0, 0, 0.1])
        np.testing.assert_allclose(
            transform_point(H, [0, 0, -1]), [0, 0, -0.9], atol=1e-15
        )

    def test_yaw_quarter_turn(self):
        H = RigidTransform(euler_zyx_to_rotation(np.pi / 2, 0, 0), np.zeros(3))
        np.testing.assert_allclose(transform_point(H, [1, 0, 0]), [0, 1, 0], atol=1e-12)


class TestCompose:
    def test_identity_left(self):
        rng = np.random.default_rng(1)
        H = _random_transform(rng)
        C = compose(IDENTITY, H)
        np.testing.assert_allclose(C.rotation, H.rotation, atol=0)
        np.testing.assert_allclose(C.translation, H.translation, atol=0)

    def test_two_translations(self):
        a = _translation([1, 0, 0])
        b = _translation([0, 2, 0])
        c = compose(a, b)
        np.testing.assert_allclose(c.translation, [1, 2, 0], atol=0)
        np.testing.assert_allclose(c.rotation, np.eye(3), atol=0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        H = _random_transform(rng)
        I = compose(H, invert(H))
        np.testing.assert_allclose(I.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(I.translation, np.zeros(3), atol=1e-12)

    def test_chain_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A, B = _random_transform(rng), _random_transform(rng)
            p = rng.uniform(-3, 3, size=3)
            lhs = transform_point(compose(A, B), p)
            rhs = transform_point(A, transform_point(B, p))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            A, B, C = (_random_transform(rng) for _ in range(3))
            left = compose(compose(A, B), C)
            right = compose(A, compose(B, C))
            np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-12)
            np.testing.assert_allclose(left.translation, right.translation, atol=1e-12)


class TestInvert:
    def test_identity(self):
        H = invert(IDENTITY)
        np.testing.assert_array_equal(H.rotation, np.eye(3))
        np.testing.assert_array_equal(H.translation, np.zeros(3))

    def test_pure_translation(self):
        H = invert(_translation([1, 2, 3]))
        np.testing.assert_allclose(H.translation, [-1, -2, -3], atol=0)

    def test_double_inversion(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            H = _random_transform(rng)
            HH = invert(invert(H))
            np.testing.assert_allclose(HH.rotation, H.rotation, atol=1e-12)
            np.testing.assert_allclose(HH.translation, H.translation, atol=1e-12)

    def test_round_trip_points(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            H = _random_transform(rng)
            p = rng.uniform(-5, 5, size=3)
            q = transform_point(invert(H), transform_point(H, p))
            assert np.max(np.abs(q - p)) <= 1e-10


class TestEulerZyx:
    def test_zero_angles(self):
        np.testing.assert_allclose(euler_zyx_to_rotation(0, 0, 0), np.eye(3), atol=0)

    def test_pure_yaw(self):
        R = euler_zyx_to_rotation(np.pi / 2, 0, 0)
        np.testing.assert_allclose(
            R, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12
        )

    def test_per_axis_product_oracle(self):
        # independent construction: multiply the three single-axis matrices
        R = euler_zyx_to_rotation(0.3, 0.1, -0.2)
        expected = _rz(0.3) @ _ry(0.1) @ _rx(-0.2)
        np.testing.assert_allclose(R, expected, atol=1e-15)

    def test_per_axis_product_oracle_seeded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y, p, r = rng.uniform(-np.pi, np.pi), rng.uniform(-1.5, 1.5), rng.uniform(
                -np.pi, np.pi
            )
            np.testing.assert_allclose(
                euler_zyx_to_rotation(y, p, r), _rz(y) @ _ry(p) @ _rx(r), atol=1e-13
            )

    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            R = euler_zyx_to_rotation(
                rng.uniform(-np.pi, np.pi),
                rng.uniform(-1.5, 1.5),
                rng.uniform(-np.pi, np.pi),
            )
            assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9
            assert abs(np.linalg.det(R) - 1.0) <= 1e-9

    def test_gimbal_guard(self):
        with pytest.raises(GimbalLockNear):
            euler_zyx_to_rotation(0.0, np.pi / 2, 0.0)
        with pytest.raises(GimbalLockNear):
            euler_zyx_to_rotation(0.0, -np.pi / 2 + 1e-9, 0.0)


class TestLineFromPoints:
    """The cd kernel's line through two points, anchored at the second point
    b with direction a - b, met with a z plane at b + k (a - b)."""

    def test_vertical_line(self):
        x, y, k = _line_zplane_hit((0.0, 0.0, 0.1), (0.0, 0.0, -0.9), -0.4)
        assert (x, y) == (0.0, 0.0)
        assert k == pytest.approx(0.5, abs=1e-15)

    def test_slanted_direction(self):
        # direction (-0.1, 0, 1.0): one unit of z moves x by -0.1
        x, y, k = _line_zplane_hit((0.0, 0.0, 0.1), (0.1, 0.0, -0.9), 0.1)
        assert k == pytest.approx(1.0, abs=1e-15)
        assert (x, y) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_coincident_points(self):
        with pytest.raises(DegenerateLine):
            _line_zplane_hit((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 0.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateLine):
            PluckerLine(point=np.zeros(3), direction=np.zeros(3))


class TestIntersectWithZPlane:
    def test_vertical_line(self):
        line = PluckerLine(np.array([0, 0, -0.9]), np.array([0, 0, 1.0]))
        np.testing.assert_allclose(
            intersect_with_zplane(line, -1.5), [0, 0, -1.5], atol=0
        )

    def test_hand_worked_slanted_case(self):
        # k = (-1.5 - (-0.9)) / 1.0 = -0.6; x = 0.1 + (-0.6)(-0.1) = 0.16
        line = PluckerLine(np.array([0.1, 0, -0.9]), np.array([-0.1, 0, 1.0]))
        p = intersect_with_zplane(line, -1.5)
        np.testing.assert_allclose(p, [0.16, 0, -1.5], atol=1e-12)

    def test_horizontal_line(self):
        line = PluckerLine(np.array([0, 0, -0.9]), np.array([1.0, 0, 0]))
        with pytest.raises(ParallelToPlane):
            intersect_with_zplane(line, -1.5)

    def test_z_exact_and_on_line(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            a = rng.uniform(-2, 2, size=3)
            b = a + rng.uniform(-1, 1, size=3)
            if abs(a[2] - b[2]) < 1e-3:
                continue
            line = PluckerLine(b, a - b)
            z = rng.uniform(-2, 0)
            p = intersect_with_zplane(line, z)
            x, y, _ = _line_zplane_hit(tuple(a.tolist()), tuple(b.tolist()), z)
            assert (x, y) == (p[0], p[1])
            assert p[2] == z
            k = (z - line.point[2]) / line.direction[2]
            residual = line.point + k * line.direction - p
            assert np.max(np.abs(residual)) < 1e-10


class TestRigidTransformValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_nonfinite_translation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3), [0.0, np.nan, 0.0])


def _numpy_euler(yaw, pitch, roll):
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) entry by entry on numpy's trig."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


class TestEulerMatchesNumpy:
    def test_bit_for_bit_on_random_angles(self):
        # the simulator builds every body rotation here, so dataset bytes
        # depend on these entries matching the numpy formula exactly
        rng = np.random.default_rng(28)
        angles = np.column_stack([
            rng.uniform(-np.pi, np.pi, 5000),
            rng.uniform(-1.5, 1.5, 5000),
            rng.uniform(-np.pi, np.pi, 5000),
        ])
        angles[:100] *= 1e-9  # near zero, where sin x rounds to x
        for yaw, pitch, roll in angles.tolist():
            got = euler_zyx_to_rotation(yaw, pitch, roll)
            want = _numpy_euler(yaw, pitch, roll)
            assert [v.hex() for v in got.ravel().tolist()] == \
                [v.hex() for v in want.ravel().tolist()]
