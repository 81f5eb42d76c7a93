"""Pose algebra against an independent 4x4 homogeneous-matrix oracle.

The oracle never touches quaternions: rotations are built entry-wise as
Rz(yaw) @ Ry(pitch) @ Rx(roll) numpy products, composition is plain matrix
multiplication and inversion is np.linalg.inv.
"""

import math

import numpy as np
import pytest

from reference import (
    euler_rot_derivatives,
    from_vector_array,
    pose_arrays,
    pose_matrix,
    quat_multiply_stacked,
    quat_to_euler,
    quat_to_rot_stacked,
    wrap_angles,
)

from markerswarm.geom import (
    _GIMBAL_TOL,
    _QUAT_NORM_TOL,
    Pose6D,
    QUAT_CONJUGATE,
    _multiply,
    hat_batch,
    quat_angle,
    quat_chordal_mean,
    quat_multiply_batch,
    quat_normalize,
    quat_slerp,
    quat_to_rot,
    quat_to_rot_batch,
    rot_to_quat,
    rotation_angle_between,
    so3_exp_batch,
    so3_log_batch,
    so3_right_jacobian_inv_batch,
    transport_covariance,
    wrap_angle,
)
from markerswarm.swarm.protocol import check_covariance, upper_triangle

ORACLE_TOL = 1e-10


def oracle_rot(alpha, beta, gamma):
    rx = np.array(
        [[1, 0, 0], [0, math.cos(alpha), -math.sin(alpha)], [0, math.sin(alpha), math.cos(alpha)]]
    )
    ry = np.array(
        [[math.cos(beta), 0, math.sin(beta)], [0, 1, 0], [-math.sin(beta), 0, math.cos(beta)]]
    )
    rz = np.array(
        [[math.cos(gamma), -math.sin(gamma), 0], [math.sin(gamma), math.cos(gamma), 0], [0, 0, 1]]
    )
    return rz @ ry @ rx


def euler_quat(alpha, beta, gamma):
    """The unit quaternion of an Euler triple, as ``Pose6D.from_euler`` builds it, as an array."""
    return np.array(Pose6D.from_euler(np.zeros(3), [alpha, beta, gamma]).q)


def oracle_matrix(t, euler):
    m = np.eye(4)
    m[:3, :3] = oracle_rot(*euler)
    m[:3, 3] = np.asarray(t, dtype=float)
    return m


def random_pose(rng):
    t = rng.uniform(-10.0, 10.0, size=3)
    euler = np.array(
        [
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.5, 1.5),  # stay off the pitch singularity for round-trips
            rng.uniform(-math.pi, math.pi),
        ]
    )
    return t, euler


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-50, 50, size=1000)
    ws = wrap_angles(xs)
    assert np.all(ws > -math.pi) and np.all(ws <= math.pi)
    # wrapping only shifts by multiples of 2 pi
    assert np.allclose(np.sin(ws), np.sin(xs), atol=1e-12)
    assert np.allclose(np.cos(ws), np.cos(xs), atol=1e-12)


def test_compose_matches_matrix_oracle_on_1000_cases():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        ta, ea = random_pose(rng)
        tb, eb = random_pose(rng)
        pa = Pose6D.from_euler(ta, ea)
        pb = Pose6D.from_euler(tb, eb)
        got = pose_matrix(pa.compose(pb))
        want = oracle_matrix(ta, ea) @ oracle_matrix(tb, eb)
        assert np.max(np.abs(got - want)) < ORACLE_TOL


def test_inverse_matches_matrix_oracle_on_1000_cases():
    rng = np.random.default_rng(202)
    for _ in range(1000):
        t, e = random_pose(rng)
        p = Pose6D.from_euler(t, e)
        got = pose_matrix(p.inverse())
        want = np.linalg.inv(oracle_matrix(t, e))
        assert np.max(np.abs(got - want)) < ORACLE_TOL


def test_apply_matches_matrix_oracle():
    rng = np.random.default_rng(303)
    for _ in range(200):
        t, e = random_pose(rng)
        p = Pose6D.from_euler(t, e)
        point = rng.uniform(-5, 5, size=3)
        want = (oracle_matrix(t, e) @ np.append(point, 1.0))[:3]
        assert np.max(np.abs(p.apply(point) - want)) < ORACLE_TOL


def test_compose_translation_then_rotation():
    # walk 1 m along x, then turn: the turn must not move the origin
    a = Pose6D.from_euler([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    b = Pose6D.from_euler([0.0, 0.0, 0.0], [0.0, 0.0, math.pi / 2])
    c = a.compose(b)
    assert np.allclose(c.apply([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0], atol=1e-12)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(404)
    for _ in range(300):
        t, e = random_pose(rng)
        p = Pose6D.from_euler(t, e)
        ident = p.compose(p.inverse())
        assert np.max(np.abs(ident.t)) < 1e-10
        assert quat_angle(ident.q) < 1e-10


def test_euler_round_trip():
    rng = np.random.default_rng(505)
    for _ in range(1000):
        e = np.array(
            [
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.55, 1.55),
                rng.uniform(-math.pi, math.pi),
            ]
        )
        back = quat_to_euler(euler_quat(*e))
        assert np.max(np.abs(wrap_angles(back - e))) < 1e-9


def test_euler_matches_rotation_oracle():
    rng = np.random.default_rng(606)
    for _ in range(500):
        e = rng.uniform(-math.pi, math.pi, size=3)
        assert np.max(np.abs(quat_to_rot(euler_quat(*e)) - oracle_rot(*e))) < 1e-12


def test_gimbal_lock_returns_canonical_roll():
    for sign in (+1.0, -1.0):
        for gamma in (-2.0, 0.0, 0.4, 3.0):
            q = euler_quat(0.3, sign * math.pi / 2, gamma)
            e = quat_to_euler(q)
            assert e[0] == 0.0
            assert e[1] == pytest.approx(sign * math.pi / 2)
            # the returned triple must reproduce the same rotation
            assert np.max(np.abs(oracle_rot(*e) - quat_to_rot(q))) < 1e-9


def test_pose_apply_rotation_matches_matrix():
    rng = np.random.default_rng(707)
    for _ in range(300):
        e = rng.uniform(-math.pi, math.pi, size=3)
        v = rng.uniform(-4, 4, size=3)
        pose = Pose6D.from_euler(np.zeros(3), e)
        assert np.max(np.abs(pose.apply(v) - oracle_rot(*e) @ v)) < 1e-11


def test_pose_apply_rotation_bit_identical_to_cross_product_form():
    def cross_form(q, v):
        w, x, y, z = q
        u = np.array([x, y, z])
        return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)

    rng = np.random.default_rng(708)
    for _ in range(10_000):
        pose = Pose6D(np.zeros(3), rng.standard_normal(4))
        v = rng.standard_normal(3) * 10.0 ** rng.uniform(-3.0, 3.0)
        # adding the zero translation changes no rotated component's value
        assert np.array_equal(pose.apply(v), cross_form(pose.q, v))


# The numpy forms the scalar kernels replaced, kept as references:
# the kernels must match them bit for bit, rejections included.


def numpy_quat_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q)
    if not np.isfinite(norm) or norm < _QUAT_NORM_TOL:
        raise ValueError(f"cannot normalize quaternion with norm {norm!r}")
    q = q / norm
    if q[0] < 0.0:
        q = -q
    return q


def numpy_quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def numpy_quat_to_rot(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


BIT_CASES = 200_000


def awkward_quats(seed, n=BIT_CASES):
    """``n`` 4-vectors: general ones of either sign of ``w``, signed zeros,
    norms within a few ulps of the normalization tolerance, components as
    large as 1e150 or as small as 1e-150, and zero, NaN and infinite ones."""
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    kind = rng.integers(0, 5, n)
    zeroed = (kind == 1)[:, None] & (rng.random((n, 4)) < 0.5)
    quats[zeroed] = np.copysign(0.0, rng.standard_normal(int(zeroed.sum())))
    near_tol = kind == 2
    directions = quats[near_tol] / np.linalg.norm(quats[near_tol], axis=1, keepdims=True)
    ulps = rng.integers(-4, 5, (int(near_tol.sum()), 1))
    quats[near_tol] = directions * (_QUAT_NORM_TOL * (1.0 + ulps * np.finfo(float).eps))
    extreme = kind == 3
    quats[extreme] = rng.choice([-1.0, 1.0], (int(extreme.sum()), 4)) * 10.0 ** rng.choice(
        [-150.0, 150.0], (int(extreme.sum()), 1)
    ) * rng.uniform(0.5, 1.0, (int(extreme.sum()), 4))
    mixed = kind == 4
    quats[mixed] = rng.choice([-1.0, 1.0], (int(mixed.sum()), 4)) * 10.0 ** rng.uniform(
        -150.0, 150.0, (int(mixed.sum()), 4)
    )
    quats[:6] = [
        [0.0, 0.0, 0.0, 0.0],
        [-0.0, -0.0, -0.0, -0.0],
        [np.nan, 0.0, 0.0, 1.0],
        [1.0, np.inf, 0.0, 0.0],
        [-np.inf, 0.0, 0.0, 0.0],
        [1e-150, 1e-150, 1e-150, 1e-150],
    ]
    return quats


def same_bits(a, b):
    """Equal values and signed zeros; NaN equals NaN whatever its payload."""
    return (
        a.dtype == b.dtype
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "rejected"


@np.errstate(all="ignore")  # the references warn on NaN and Inf inputs
def test_quat_normalize_bit_identical_to_numpy_norm_form():
    rejected = 0
    for q in awkward_quats(1001):
        got, want = outcome(quat_normalize, q), outcome(numpy_quat_normalize, q)
        if isinstance(want, str):
            assert got == want, q
            rejected += 1
        else:
            assert same_bits(got, want), q
    # zero, NaN, Inf, underflowing and just-below-tolerance inputs all occur
    assert 1000 < rejected < BIT_CASES // 4


@np.errstate(all="ignore")
def test_quat_multiply_bit_identical_to_numpy_scalar_form():
    """The Hamilton product kernel ``_multiply``."""
    quats = awkward_quats(1002)
    for a, b in zip(quats, np.roll(quats, 1, axis=0)):
        got = np.array(_multiply(a.tolist(), b.tolist()))
        assert same_bits(got, numpy_quat_multiply(a, b)), (a, b)


@np.errstate(all="ignore")
def test_rotation_angle_between_bit_identical_to_conjugate_product_form():
    # scaled to unit norm, where the squares in quat_angle cannot overflow
    quats = awkward_quats(1010)
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    for a, b in zip(quats, np.roll(quats, 1, axis=0)):
        want = quat_angle(numpy_quat_multiply(np.array([a[0], -a[1], -a[2], -a[3]]), b))
        assert same_bits(np.array(rotation_angle_between(a, b)), np.array(want)), (a, b)


@np.errstate(all="ignore")
def test_quat_to_rot_bit_identical_to_numpy_scalar_form():
    for q in awkward_quats(1003):
        assert same_bits(quat_to_rot(q), numpy_quat_to_rot(q)), q


# The array forms of the Euler and pose kernels, as they were before the
# float cores, with the references above.


def numpy_quat_from_euler(alpha, beta, gamma):
    ha, hb, hg = 0.5 * alpha, 0.5 * beta, 0.5 * gamma
    qx = np.array([math.cos(ha), math.sin(ha), 0.0, 0.0])
    qy = np.array([math.cos(hb), 0.0, math.sin(hb), 0.0])
    qz = np.array([math.cos(hg), 0.0, 0.0, math.sin(hg)])
    return numpy_quat_normalize(numpy_quat_multiply(qz, numpy_quat_multiply(qy, qx)))


def numpy_rot_to_euler(rot):
    s_beta = -rot[2, 0]
    s_beta = min(1.0, max(-1.0, s_beta))
    if abs(s_beta) >= _GIMBAL_TOL:
        beta = math.copysign(0.5 * math.pi, s_beta)
        alpha = 0.0
        gamma = math.atan2(-rot[0, 1], rot[1, 1])
    else:
        beta = math.asin(s_beta)
        alpha = math.atan2(rot[2, 1], rot[2, 2])
        gamma = math.atan2(rot[1, 0], rot[0, 0])
    return np.array([wrap_angle(alpha), wrap_angle(beta), wrap_angle(gamma)])


def numpy_quat_to_euler(q):
    return numpy_rot_to_euler(numpy_quat_to_rot(q))


def numpy_rotate(q, v):
    """The cross-product form of ``Pose6D.apply``'s rotation, over stacked rows.

    ``np.cross`` and the elementwise ufuncs round each row exactly as a
    one-row call does; stacking only spares 200 000 slow ``np.cross`` calls.
    """
    w, u = q[:, :1], q[:, 1:]
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def numpy_pose(t, q):
    """``(t, q)`` as ``Pose6D`` stored them: finite ``t``, normalized ``q``."""
    t = np.array(t, dtype=float).reshape(3)
    if not np.isfinite(t).all():
        raise ValueError(f"non-finite translation {t}")
    return t, numpy_quat_normalize(np.array(q, dtype=float).reshape(4))


def numpy_compose(ta, qa, tb, qb):
    """``a.compose(b)`` over stacked ``(t, q)`` rows, as ``(t, q)`` pairs."""
    t = ta + numpy_rotate(qa, tb)
    return [numpy_pose(t_i, numpy_quat_multiply(a, b)) for t_i, a, b in zip(t, qa, qb)]


def numpy_inverse(t, q):
    """``a.inverse()`` over stacked ``(t, q)`` rows, as ``(t, q)`` pairs."""
    q_inv = np.concatenate([q[:, :1], -q[:, 1:]], axis=1)
    return [numpy_pose(t_i, q_i) for t_i, q_i in zip(-numpy_rotate(q_inv, t), q_inv)]


def assert_same_rows(got, want, cases):
    """``same_bits`` row by row; a failure names the first differing case."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    same = ((got == want) | (nan_got & nan_want)) & (
        (np.signbit(got) | nan_got) == (np.signbit(want) | nan_want)
    )
    rows = same.reshape(len(got), -1).all(axis=1)
    assert rows.all(), cases[int(np.argmin(rows))]


def assert_same_outcomes(kernel, reference, cases) -> int:
    """``kernel(*case)`` and ``reference(*case)`` are bit-identical arrays, or
    both raise ValueError, for every case; returns the number rejected."""
    got = [outcome(kernel, *case) for case in cases]
    want = [outcome(reference, *case) for case in cases]
    kept = []
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(g, str) or isinstance(w, str):
            assert g == w, cases[i]
        else:
            kept.append(i)
    assert_same_rows([got[i] for i in kept], [want[i] for i in kept], [cases[i] for i in kept])
    return len(cases) - len(kept)


ULP_BELOW_ONE = np.finfo(float).eps / 2  # spacing of the doubles just below 1.0


def gimbal_band_sines(rng, n):
    """``n`` pitch sines within 4 ulps of the gimbal tolerance, either sign."""
    return rng.choice([-1.0, 1.0], n) * (_GIMBAL_TOL + rng.integers(-4, 5, n) * ULP_BELOW_ONE)


def awkward_angles(seed, n=BIT_CASES):
    """``n`` (alpha, beta, gamma) triples: general ones, signed zeros and
    exact multiples of pi/2 up to +-pi, pitches whose sine is within 4 ulps
    of the gimbal tolerance, magnitudes from 1e-150 to 1e150, and NaN and
    infinite ones."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-4.0, 4.0, (n, 3))
    kind = rng.integers(0, 4, n)
    exact = (kind == 1)[:, None] & (rng.random((n, 3)) < 0.5)
    angles[exact] = rng.choice(
        [0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi], int(exact.sum())
    )
    band = kind == 2
    angles[band, 1] = np.arcsin(gimbal_band_sines(rng, int(band.sum())))
    extreme = kind == 3
    angles[extreme] = rng.choice([-1.0, 1.0], (int(extreme.sum()), 3)) * 10.0 ** rng.uniform(
        -150.0, 150.0, (int(extreme.sum()), 3)
    )
    angles[:4] = [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf], [-0.0] * 3]
    return angles


def euler_edge_quats(seed, n=BIT_CASES):
    """``awkward_quats`` with a third replaced by unit quaternions near the
    pitch singularity, each component moved by up to 2 ulps, so the pitch
    sine falls on both sides of the gimbal tolerance, within 4 ulps."""
    rng = np.random.default_rng(seed)
    quats = awkward_quats(seed, n)
    band = rng.random(n) < 1.0 / 3.0
    m = int(band.sum())
    ha, hg = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, (2, m))
    hb = 0.5 * np.arcsin(gimbal_band_sines(rng, m))
    ca, sa, cb, sb, cg, sg = np.cos(ha), np.sin(ha), np.cos(hb), np.sin(hb), np.cos(hg), np.sin(hg)
    near = np.stack(
        [
            cg * cb * ca + sg * sb * sa,
            cg * cb * sa - sg * sb * ca,
            cg * sb * ca + sg * cb * sa,
            sg * cb * ca - cg * sb * sa,
        ],
        axis=1,
    )
    quats[band] = near + rng.integers(-2, 3, near.shape) * np.spacing(near)
    return quats


@np.errstate(all="ignore")
def test_quat_from_euler_bit_identical_to_array_form():
    """The quaternion ``Pose6D.from_euler`` builds from Euler angles."""
    rejected = assert_same_outcomes(euler_quat, numpy_quat_from_euler, awkward_angles(1006))
    # math.cos rejects the infinite angles; NaN ones reach the norm check
    assert 2 <= rejected < 100


@np.errstate(all="ignore")
def test_quat_to_euler_bit_identical_to_matrix_form():
    quats = euler_edge_quats(1007)
    assert_same_outcomes(quat_to_euler, numpy_quat_to_euler, [(q,) for q in quats])
    s_beta = np.abs(np.array([numpy_quat_to_rot(q)[2, 0] for q in quats]))
    band = np.abs(s_beta - _GIMBAL_TOL) <= 4 * ULP_BELOW_ONE
    gimbal = band & (s_beta >= _GIMBAL_TOL)
    # the band is hit on both sides of the tolerance
    assert band.sum() > 20_000 and 5_000 < gimbal.sum() < band.sum() - 5_000


def awkward_pose_inputs(seed):
    """Translations from the first three components of ``awkward_quats``
    rows, rotations from a second draw in reverse order (so non-finite
    translations meet valid rotations)."""
    return list(zip(awkward_quats(seed)[:, :3], awkward_quats(seed + 1)[::-1]))


def pose_row(pose):
    return np.concatenate([pose.t, pose.q])


@np.errstate(all="ignore")
def test_pose_construction_bit_identical_to_array_form():
    rejected = assert_same_outcomes(
        lambda t, q: pose_row(Pose6D(t, q)),
        lambda t, q: np.concatenate(numpy_pose(t, q)),
        awkward_pose_inputs(1008),
    )
    assert 1000 < rejected < BIT_CASES // 2


@pytest.fixture(scope="module")
def awkward_poses():
    poses = []
    for t, q in awkward_pose_inputs(1008):
        try:
            poses.append(Pose6D(t, q))
        except ValueError:
            pass
    assert len(poses) > BIT_CASES // 2
    return poses


def stacked(poses):
    return np.array([p.t for p in poses]), np.array([p.q for p in poses])


@np.errstate(all="ignore")
def test_pose_compose_bit_identical_to_array_form(awkward_poses):
    others = awkward_poses[1:] + awkward_poses[:1]
    (ta, qa), (tb, qb) = stacked(awkward_poses), stacked(others)
    want = [np.concatenate(tq) for tq in numpy_compose(ta, qa, tb, qb)]
    pairs = list(zip(awkward_poses, others))
    assert_same_rows([pose_row(a.compose(b)) for a, b in pairs], want, pairs)
    assert_same_rows([a.apply(b.t) for a, b in pairs], [w[:3] for w in want], pairs)


@np.errstate(all="ignore")
def test_pose_inverse_bit_identical_to_array_form(awkward_poses):
    want = [np.concatenate(tq) for tq in numpy_inverse(*stacked(awkward_poses))]
    assert_same_rows([pose_row(a.inverse()) for a in awkward_poses], want, awkward_poses)


def constructor_inputs(seed):
    """``(t, q)`` pairs in every form a caller passes: lists, tuples, arrays,
    shapes (1, 3) and (4, 1), ``w < 0``, signed zeros, non-unit and
    rejected ones."""
    rng = np.random.default_rng(seed)
    cases = []
    for t, q in awkward_pose_inputs(seed)[:3000]:
        cases += [
            (t.tolist(), q.tolist()),
            (tuple(t.tolist()), tuple(q.tolist())),
            (t, q),
            (t.reshape(1, 3), q.reshape(4, 1)),
            (t.astype(np.float32), -np.abs(q)),
        ]
    cases += [
        ([0.0, -0.0, 0.0], [-0.0, 1.0, -0.0, 0.0]),
        ((-0.0, -0.0, -0.0), (-1.0, -0.0, 0.0, -0.0)),
        ([1, 2, 3], [2, 0, 0, 0]),
        ([0.0, 0.0, 0.0], [-5e-324, 1.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [-5e-324, 3.0, 0.0, 0.0]),  # w / norm is -0.0
        (rng.standard_normal(3), rng.standard_normal(4) * 1e6),
        ([0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, 0.0, math.inf], [1.0, 0.0, 0.0, 0.0]),
    ]
    return cases


@np.errstate(all="ignore")
def test_pose_constructor_bit_identical_to_post_init_form():
    """One pass, with the same IEEE operations and the same ValueErrors."""
    rejected = 0
    for t, q in constructor_inputs(1009):
        try:
            want = pose_arrays(t, q)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                Pose6D(t, q)
            assert str(got.value) == str(err)
            rejected += 1
            continue
        pose = Pose6D(t, q)
        for got, want_array in zip((pose.t, pose.q), want):
            # an immutable tuple of floats, with the array form's values to the bit
            assert type(got) is tuple and len(got) == want_array.size
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want_array.tobytes(), (t, q)
    assert 1000 < rejected < 10_000


def test_pose_constructor_copies_its_input():
    t, q = np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0, 0.0])
    pose = Pose6D(t, q)
    t[0], q[0] = 9.0, 0.5
    assert list(pose.t) == [1.0, 2.0, 3.0] and list(pose.q) == [1.0, 0.0, 0.0, 0.0]


def test_pose_from_vector_bit_identical_to_array_form():
    rng = np.random.default_rng(1010)
    positions = rng.uniform(-5.0, 5.0, (5000, 3))
    vectors = np.concatenate([positions, awkward_angles(1010, 5000)], axis=1)
    for vec in vectors[np.isfinite(vectors).all(axis=1)]:
        pose, (t, q) = Pose6D.from_vector(vec), from_vector_array(vec)
        assert np.array(pose.t + pose.q).tobytes() == np.concatenate([t, q]).tobytes(), vec


def test_pose_carries_only_translation_and_rotation():
    """Nothing derived can be cached on a pose: a run keeps one per tick per drone."""
    pose = Pose6D.from_euler([1.0, 2.0, 3.0], [0.1, -0.2, 0.3])
    pose.rotation(), pose.to_vector(), pose.to_dict(), repr(pose)
    assert Pose6D.__slots__ == ("t", "q")
    assert not hasattr(pose, "__dict__")


def test_rot_quat_round_trip_all_shepperd_branches():
    # near-pi rotations about each axis hit the non-trace branches
    cases = [
        (0.0, 0.0, 0.0),
        (3.1, 0.0, 0.0),
        (0.0, 3.1, 0.0),
        (0.0, 0.0, 3.1),
        (3.0, 0.1, -3.0),
        (-3.1, 1.2, 0.2),
    ]
    rng = np.random.default_rng(808)
    cases += [tuple(rng.uniform(-math.pi, math.pi, size=3)) for _ in range(200)]
    for e in cases:
        r = oracle_rot(*e)
        q = rot_to_quat(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-12
        assert np.max(np.abs(quat_to_rot(q) - r)) < 1e-9


def test_unit_norm_enforced():
    p = Pose6D(np.zeros(3), [2.0, 0.0, 0.0, 0.0])
    assert abs(np.linalg.norm(p.q) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        Pose6D(np.zeros(3), [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Pose6D([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])


def test_pose_dict_round_trip():
    rng = np.random.default_rng(909)
    for _ in range(100):
        t, e = random_pose(rng)
        p = Pose6D.from_euler(t, e)
        back = Pose6D.from_dict(p.to_dict())
        assert np.max(np.abs(np.subtract(back.t, p.t))) < 1e-15
        assert rotation_angle_between(back.q, p.q) < 1e-12


def test_pose_vector_round_trip():
    p = Pose6D.from_euler([1, 2, 3], [0.1, -0.2, 0.3])
    v = p.to_vector()
    assert type(v) is tuple and len(v) == 6
    back = Pose6D.from_vector(v)
    assert np.max(np.abs(np.subtract(back.t, p.t))) < 1e-15
    assert rotation_angle_between(back.q, p.q) < 1e-12


def test_slerp_endpoints_and_midpoint():
    qa = euler_quat(0.0, 0.0, 0.0)
    qb = euler_quat(0.0, 0.0, 1.0)
    assert rotation_angle_between(quat_slerp(qa, qb, 0.0), qa) < 1e-12
    assert rotation_angle_between(quat_slerp(qa, qb, 1.0), qb) < 1e-12
    mid = quat_slerp(qa, qb, 0.5)
    assert quat_to_euler(mid)[2] == pytest.approx(0.5, abs=1e-12)
    # sign handling: antipodal representation of qb must not flip the path
    mid2 = quat_slerp(qa, -qb, 0.5)
    assert rotation_angle_between(mid, mid2) < 1e-12


def test_chordal_mean_exact_for_identical_and_symmetric():
    q = euler_quat(0.2, -0.1, 0.7)
    mean = quat_chordal_mean([q, q, -q])
    assert rotation_angle_between(mean, q) < 1e-12
    qa = euler_quat(0.0, 0.0, 0.2)
    qb = euler_quat(0.0, 0.0, -0.2)
    mean = quat_chordal_mean([qa, qb])
    assert abs(quat_to_euler(mean)[2]) < 1e-9


def test_quat_multiply_associative_with_normalize():
    rng = np.random.default_rng(111)
    for _ in range(100):
        a, b, c = [quat_normalize(rng.standard_normal(4)).tolist() for _ in range(3)]
        left = np.array(_multiply(_multiply(a, b), c))
        right = np.array(_multiply(a, _multiply(b, c)))
        assert np.max(np.abs(left - right)) < 1e-12


def test_euler_rot_derivatives_match_finite_differences():
    rng = np.random.default_rng(222)
    h = 1e-6
    for _ in range(100):
        e = np.array(
            [rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)]
        )
        rot, derivs = euler_rot_derivatives(e)
        assert np.max(np.abs(rot - oracle_rot(*e))) < 1e-12
        for k in range(3):
            ep = e.copy()
            em = e.copy()
            ep[k] += h
            em[k] -= h
            fd = (oracle_rot(*ep) - oracle_rot(*em)) / (2 * h)
            assert np.max(np.abs(derivs[k] - fd)) < 1e-6


def random_axes(rng, n):
    axes = rng.standard_normal((n, 3))
    return axes / np.linalg.norm(axes, axis=1)[:, None]


# rotation angles that straddle the series threshold at 1e-4 rad and reach pi
EDGE_ANGLES = [0.0, 1e-12, 1e-8, 4.9e-5, 5e-5, 9.9e-5, 1e-4, 1.01e-4, 1e-3, 0.5, 2.0,
               math.pi - 1e-3, math.pi - 1e-6, math.pi - 1e-9, math.pi]


def test_batched_rotation_kernels_match_float_forms():
    rng = np.random.default_rng(335)
    a = rng.standard_normal((200, 4))
    b = rng.standard_normal((200, 4))
    products = quat_multiply_batch(a, b)
    units = a / np.linalg.norm(a, axis=1)[:, None]
    rots = quat_to_rot_batch(units)
    for i in range(200):
        # the same IEEE operations in the same order: bit-identical
        assert products[i].tolist() == list(_multiply(a[i].tolist(), b[i].tolist()))
        assert rots[i].tobytes() == quat_to_rot(units[i]).tobytes()
    assert quat_to_rot_batch(units.reshape(10, 20, 4)).shape == (10, 20, 3, 3)
    v, u = rng.standard_normal((2, 200, 3))
    np.testing.assert_allclose(
        (hat_batch(v) @ u[..., None])[..., 0], np.cross(v, u), rtol=0, atol=1e-14
    )
    identity = quat_multiply_batch(units, units * QUAT_CONJUGATE)
    np.testing.assert_allclose(identity, np.tile([1.0, 0.0, 0.0, 0.0], (200, 1)), atol=1e-15)


@np.errstate(invalid="ignore")
def test_batched_kernels_bit_identical_to_stacked_and_cross_forms():
    """Signed zeros, infinities and NaNs included, for single, stacked and broadcast inputs."""
    rng = np.random.default_rng(744)
    q = rng.standard_normal((400, 4))
    q[:100] = rng.choice([0.0, -0.0, 1.0, -1.0], size=(100, 4))
    q[100:110, 0], q[110:120, 1], q[120:130, 3] = np.inf, -np.inf, np.nan
    v = q[:, 1:]
    for a, b in ((q, q[::-1]), (q[0], q), (q.reshape(20, 20, 4), q[:20])):
        assert quat_multiply_batch(a, b).tobytes() == quat_multiply_stacked(a, b).tobytes()
    for stack in (q, q[0], q.reshape(20, 20, 4)):
        assert quat_to_rot_batch(stack).tobytes() == quat_to_rot_stacked(stack).tobytes()
    for vectors in (v, v[0], v.reshape(20, 20, 3)):
        assert hat_batch(vectors).tobytes() == np.cross(np.eye(3), vectors[..., None, :]).tobytes()


def test_exp_log_round_trip_near_zero_and_pi():
    rng = np.random.default_rng(336)
    angles = np.repeat(EDGE_ANGLES, 20)
    phi = angles[:, None] * random_axes(rng, len(angles))
    q = so3_exp_batch(phi)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 1.0, rtol=0, atol=1e-15)
    # Exp against the half-angle formula written out
    want = np.column_stack([np.cos(angles / 2), np.sin(angles / 2)[:, None] * phi
                            / np.where(angles > 0, angles, 1.0)[:, None]])
    want[angles == 0, 1:] = 0.0
    # |phi| rounds in its last bit, which moves cos(|phi| / 2) near pi by up to 2 ulp of 1
    np.testing.assert_allclose(q, want, rtol=0, atol=5e-16)
    back = so3_log_batch(q)
    # at pi, Log picks one of the two antipodal vectors
    at_pi = angles == math.pi
    np.testing.assert_allclose(back[~at_pi], phi[~at_pi], rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.abs(back[at_pi]), np.abs(phi[at_pi]), rtol=0, atol=1e-14)
    # q and -q are one rotation, with one Log
    np.testing.assert_array_equal(so3_log_batch(-q), back)
    # Exp of Log is the quaternion itself, up to sign
    quats = rng.standard_normal((500, 4))
    quats /= np.linalg.norm(quats, axis=1)[:, None]
    again = so3_exp_batch(so3_log_batch(quats))
    np.testing.assert_allclose(again * np.sign(quats[:, :1]), quats, rtol=0, atol=1e-15)


def test_right_jacobian_inv_matches_finite_differences_of_log():
    # Log(Exp(phi) Exp(d)) = phi + J_r^-1(phi) d + O(d^2), by central differences
    rng = np.random.default_rng(333)
    h = 1e-7
    angles = [a for a in EDGE_ANGLES if a <= math.pi - 1e-3] + list(rng.uniform(0, 3.1, 40))
    phi = np.array(angles)[:, None] * random_axes(rng, len(angles))
    got = so3_right_jacobian_inv_batch(phi)
    q = so3_exp_batch(phi)
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        plus = so3_log_batch(quat_multiply_batch(q, so3_exp_batch(step)))
        minus = so3_log_batch(quat_multiply_batch(q, so3_exp_batch(-step)))
        np.testing.assert_allclose(got[:, :, j], (plus - minus) / (2 * h), rtol=0, atol=1e-7)


def test_so3_kernels_are_finite_up_to_pi():
    # the Euler-rate kernels raised at pitch +-pi/2; these have no singular line below pi
    rng = np.random.default_rng(334)
    axes = random_axes(rng, 50)
    near, at = (math.pi - 1e-9) * axes, math.pi * axes
    for phi in (near, at):
        assert np.all(np.isfinite(so3_right_jacobian_inv_batch(phi)))
    np.testing.assert_allclose(
        so3_right_jacobian_inv_batch(at), so3_right_jacobian_inv_batch(near), rtol=0, atol=1e-8
    )
    tilted = np.array([euler_quat(0.3, sign * math.pi / 2, -0.4) for sign in (1, -1)])
    np.testing.assert_allclose(so3_exp_batch(so3_log_batch(tilted)), tilted, atol=1e-15)


def test_transport_covariance_preserves_trace_symmetry_psd():
    rng = np.random.default_rng(444)
    for _ in range(200):
        a = rng.standard_normal((6, 6))
        cov = a @ a.T
        e = rng.uniform(-math.pi, math.pi, size=3)
        rot = oracle_rot(*e)
        moved = transport_covariance(cov, rot)
        assert abs(np.trace(moved) - np.trace(cov)) < 1e-9 * max(1.0, np.trace(cov))
        assert np.max(np.abs(moved - moved.T)) < 1e-12
        assert np.linalg.eigvalsh(moved)[0] > -1e-10
        # identity rotation is a no-op
        assert np.max(np.abs(transport_covariance(cov, np.eye(3)) - cov)) < 1e-12


def test_transport_covariance_round_trip():
    rng = np.random.default_rng(555)
    a = rng.standard_normal((6, 6))
    cov = a @ a.T
    rot = oracle_rot(0.3, -0.5, 1.1)
    back = transport_covariance(transport_covariance(cov, rot), rot.T)
    assert np.max(np.abs(back - cov)) < 1e-10


def test_check_covariance_rejects_bad_matrices():
    rng = np.random.default_rng(828)
    a = rng.standard_normal((6, 6))
    good = 0.5 * (a @ a.T + (a @ a.T).T)
    wire = upper_triangle(good)
    assert len(wire) == 21
    built = check_covariance(wire)
    # the 6x6 of the upper triangle: the same bits, symmetric by construction, read-only
    assert built.tobytes() == good.tobytes()
    assert not built.flags.writeable
    bad_neg = np.eye(6)
    bad_neg[0, 0] = -1.0
    for bad in (
        upper_triangle(bad_neg),  # a negative eigenvalue
        wire[:20],
        wire + [0.0] * 15,  # the 36 values of a full matrix
        good.reshape(-1).tolist(),
        ["1.0"] + wire[1:],
        [True] + wire[1:],
        [math.inf] + wire[1:],
        [math.nan] + wire[1:],
        5,
    ):
        with pytest.raises((TypeError, ValueError)):
            check_covariance(bad)
