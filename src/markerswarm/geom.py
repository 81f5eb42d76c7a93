"""Rigid-body pose algebra used everywhere else in the package.

Conventions, fixed once here:

* a pose is a translation ``t`` plus a unit quaternion ``q`` (scalar first,
  ``w >= 0`` canonical sign), mapping body coordinates into the parent frame;
* Euler angles ``(alpha, beta, gamma)`` are roll/pitch/yaw with rotation
  matrix ``R = Rz(gamma) @ Ry(beta) @ Rx(alpha)``, i.e. intrinsic
  yaw-pitch-roll;
* angles are wrapped to the half-open interval ``(-pi, pi]``;
* at the pitch singularity ``|beta| = pi/2`` roll and yaw are degenerate and
  the extraction returns the canonical solution with ``alpha = 0``.

Quaternions are the internal representation, and bundle adjustment's
unknowns are quaternions too, stepped on the rotation manifold; Euler
triples appear only at API boundaries (construction, serialization, the
filter's state vector and its measurements).

Trust boundaries: values are validated once, where they enter a run,
and each decoded value is checked once, by the same helpers at both
entries. Protocol ``decode``, its ``_parse_*`` parsers and the
``from_dict`` constructors they call check every wire value with
``check_keys`` (an object has exactly its keys), ``check_int``,
``check_float``, ``check_covariance`` or, for a camera and a marker id,
against the camera table and the id range. ``parse_scenario`` checks the
scenario file in one pass the same way: each number with ``check_float``
and its setting's bound, each pose with ``Pose6D.from_dict``, each marker
id against the id range and each camera against the table. A covariance
travels as its 21 upper-triangle values (``upper_triangle``);
``check_covariance`` checks each with ``check_float``, builds the
symmetric 6x6 from them and checks its smallest eigenvalue, with no
separate finiteness or symmetry pass. ``Pose6D.from_dict`` builds its
pose straight from its checked floats. The constructors of values a run
computes itself (``EkfState``, ``PoseObservation``, ``MapEntry``) check
nothing: they keep what they are given and freeze its arrays. ``Pose6D``
is the exception: it still rejects a non-finite translation and
normalizes its quaternion.

``Pose6D`` is a slotted dataclass built in one pass: its own
``__init__`` makes ``t`` a tuple of three floats (``float`` of an
``np.float64`` keeps its bits), checks that it is finite and normalizes
``q`` to a tuple of four through ``_quat_unit``, whose norm stays on
``ndarray.dot`` (below). It has no ``__post_init__`` and no
``__dict__``: a run builds a pose per tick per drone and per detection,
and keeps many of them.

Float kernels: every small per-tick value (a pose, a filter mean, an
odometry reading, a command) is a tuple of floats, and the kernels
compute on them directly, which is several times faster than numpy
dispatch on 3- and 4-vectors; arrays stay where the math is a matrix
(rotations, covariances, bundle adjustment, the sensing cull), whose
readers hand the tuples to numpy. ``Pose6D``'s own methods do the
same IEEE operations in the same order as the array forms they replaced,
so they are bit-identical to them (``tests/test_geom.py`` and
``tests/reference.py`` keep those forms as references). Quaternion norms
stay on ``ndarray.dot``: a sequential float sum of squares differs from
OpenBLAS ``ddot`` in the last bit for about a quarter of random
quaternions (72 214 of 300 000 standard-normal 4-vectors, scipy-openblas
0.3.31 on x86-64).

The per-detection path goes further and builds no intermediate pose.
``_compose``, ``_inverse``, ``_euler_quat`` and ``_quat_euler`` chain on
float tuples, so a composition's quaternion is normalized only where a
``Pose6D`` is finally built (or not at all, when only its Euler angles
are read), and ``_euler_rotate`` gives ``R v`` with its three angle
derivatives in closed form. These agree with the pose and matrix forms to
rounding, not bit for bit: within 1e-12 over 20 000 random inputs with
pitch up to 1.4 rad (``tests/test_kernels.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_QUAT_NORM_TOL = 1e-9
_GIMBAL_TOL = 1.0 - 1e-12
_PI = math.pi
_TWO_PI = 2.0 * math.pi  # exact: doubling only moves the exponent


def wrap_angle(angle: float) -> float:
    """Wrap a single angle to (-pi, pi]."""
    return _PI - (_PI - angle) % _TWO_PI


# --------------------------------------------------------------------------
# quaternions, scalar-first (w, x, y, z)


def _quat_unit(q) -> tuple[float, float, float, float]:
    """``q`` divided by its norm, on floats, with the canonical sign ``w >= 0``.

    The norm is ``math.sqrt(q.dot(q))`` on an array: what ``np.linalg.norm``
    computes for a real vector, without its dispatch.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        q = q.reshape(4)
    norm = math.sqrt(q.dot(q))
    if not math.isfinite(norm) or norm < _QUAT_NORM_TOL:
        raise ValueError(f"cannot normalize quaternion with norm {norm!r}")
    w, x, y, z = q.tolist()
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    # canonical sign: w >= 0 makes serialization and comparisons deterministic
    if w < 0.0:
        return -w, -x, -y, -z
    return w, x, y, z


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.array(_quat_unit(q))


def _multiply(a, b) -> tuple[float, float, float, float]:
    """Hamilton product of two float 4-sequences."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def _rotate(q, v) -> tuple[float, float, float]:
    """``v + 2 u x (u x v + w v)`` with ``u = (x, y, z)``, on float sequences.

    The same products and differences in the same order as ``np.cross``.
    """
    w, x, y, z = q
    vx, vy, vz = v
    # u x v + w v
    ix = (y * vz - z * vy) + w * vx
    iy = (z * vx - x * vz) + w * vy
    iz = (x * vy - y * vx) + w * vz
    # v + 2 u x (...)
    return (
        vx + 2.0 * (y * iz - z * iy),
        vy + 2.0 * (z * ix - x * iz),
        vz + 2.0 * (x * iy - y * ix),
    )


def _compose(ta, qa, tb, qb) -> tuple[tuple[float, float, float], tuple]:
    """``a.compose(b)`` on float sequences: ``(t, q)``, ``q`` not normalized."""
    tx, ty, tz = ta
    rx, ry, rz = _rotate(qa, tb)
    return (tx + rx, ty + ry, tz + rz), _multiply(qa, qb)


def _inverse(t, q) -> tuple[tuple[float, float, float], tuple]:
    """``a.inverse()`` on float sequences: ``(t, q)``."""
    w, x, y, z = q
    q_inv = (w, -x, -y, -z)
    rx, ry, rz = _rotate(q_inv, t)
    return (-rx, -ry, -rz), q_inv


def quat_to_rot(q) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(rot: np.ndarray) -> np.ndarray:
    """Shepperd's method: pick the best-conditioned of the four branches."""
    r = np.asarray(rot, dtype=float)
    trace = r[0, 0] + r[1, 1] + r[2, 2]
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] > r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def _euler_quat(alpha: float, beta: float, gamma: float) -> tuple[float, float, float, float]:
    """Quaternion for R = Rz(gamma) @ Ry(beta) @ Rx(alpha), before normalizing."""
    ha, hb, hg = 0.5 * alpha, 0.5 * beta, 0.5 * gamma
    qx = (math.cos(ha), math.sin(ha), 0.0, 0.0)
    qy = (math.cos(hb), 0.0, math.sin(hb), 0.0)
    qz = (math.cos(hg), 0.0, 0.0, math.sin(hg))
    return _multiply(qz, _multiply(qy, qx))


def _euler(r00, r01, r10, r11, r20, r21, r22) -> tuple[float, float, float]:
    """(alpha, beta, gamma) from the rotation entries the extraction reads."""
    # R = Rz(gamma) @ Ry(beta) @ Rx(alpha), so R[2,0] = -sin(beta)
    s_beta = -r20 if -r20 > -1.0 else -1.0  # min(1.0, max(-1.0, -r20)), without the calls
    s_beta = s_beta if s_beta < 1.0 else 1.0
    if abs(s_beta) >= _GIMBAL_TOL:
        beta = math.copysign(0.5 * math.pi, s_beta)
        # roll/yaw degenerate: fold everything into gamma, alpha = 0
        alpha = 0.0
        gamma = math.atan2(-r01, r11)
    else:
        beta = math.asin(s_beta)
        alpha = math.atan2(r21, r22)
        gamma = math.atan2(r10, r00)
    return wrap_angle(alpha), wrap_angle(beta), wrap_angle(gamma)


def _quat_euler(q) -> tuple[float, float, float]:
    """``_euler`` of a float 4-sequence, with ``quat_to_rot``'s entry expressions."""
    w, x, y, z = q
    return _euler(
        1 - 2 * (y * y + z * z),
        2 * (x * y - w * z),
        2 * (x * y + w * z),
        1 - 2 * (x * x + z * z),
        2 * (x * z - w * y),
        2 * (y * z + w * x),
        1 - 2 * (x * x + y * y),
    )


def quat_to_euler(q: np.ndarray) -> np.ndarray:
    """Extract (alpha, beta, gamma); canonical alpha = 0 at |beta| = pi/2."""
    return np.array(_quat_euler(np.asarray(q, dtype=float).tolist()))


def _euler_rotate(alpha: float, beta: float, gamma: float, v) -> tuple[tuple, tuple]:
    """``R v`` and its partial derivatives by alpha, beta and gamma, on floats.

    ``R = Rz(gamma) @ Ry(beta) @ Rx(alpha)`` is applied factor by factor,
    and each derivative reuses the partial products: d/d alpha is
    ``Rz Ry (0, -u_z, u_y)`` with ``u = Rx v``, d/d beta is
    ``Rz (w_z, 0, -w_x)`` with ``w = Ry u``, and d/d gamma is
    ``(-(R v)_y, (R v)_x, 0)``.
    """
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    vx, vy, vz = v
    uy = ca * vy - sa * vz
    uz = sa * vy + ca * vz
    wx = cb * vx + sb * uz
    wz = cb * uz - sb * vx
    rx, ry = cg * wx - sg * uy, sg * wx + cg * uy
    sb_uy = sb * uy
    d_alpha = (cg * sb_uy + sg * uz, sg * sb_uy - cg * uz, cb * uy)
    d_beta = (cg * wz, sg * wz, -wx)
    d_gamma = (-ry, rx, 0.0)
    return (rx, ry, wz), (d_alpha, d_beta, d_gamma)


def quat_slerp(qa: np.ndarray, qb: np.ndarray, weight_b: float) -> np.ndarray:
    """Spherical interpolation from qa toward qb; weight_b in [0, 1]."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 0.9995:
        # nearly parallel: linear blend, renormalized
        return quat_normalize(qa + weight_b * (qb - qa))
    theta = math.acos(min(1.0, dot))
    s = math.sin(theta)
    wa = math.sin((1.0 - weight_b) * theta) / s
    wb = math.sin(weight_b * theta) / s
    return quat_normalize(wa * qa + wb * qb)


def quat_chordal_mean(quats: list[np.ndarray]) -> np.ndarray:
    """Mean rotation as the principal eigenvector of sum(q q^T).

    Sign-invariant, exact for identical inputs, standard for small spreads.
    """
    if not quats:
        raise ValueError("empty quaternion list")
    acc = np.zeros((4, 4))
    for q in quats:
        q = np.asarray(q, dtype=float)
        acc += np.outer(q, q)
    _, vecs = np.linalg.eigh(acc)
    return quat_normalize(vecs[:, -1])


def quat_angle(q: np.ndarray) -> float:
    """Rotation angle of a unit quaternion, in [0, pi].

    atan2 form: stable for small angles where acos(w) loses digits.
    """
    vec = math.sqrt(float(q[1]) ** 2 + float(q[2]) ** 2 + float(q[3]) ** 2)
    return 2.0 * math.atan2(vec, abs(float(q[0])))


def rotation_angle_between(qa, qb) -> float:
    """Geodesic angle between two orientations."""
    w, x, y, z = qa
    return quat_angle(_multiply((w, -x, -y, -z), qb))


# --------------------------------------------------------------------------
# batched rotation kernels over stacks of quaternions (..., 4) and rotation
# vectors (..., 3), for bundle adjustment; the per-tick path stays on floats

_SERIES_ANGLE = 1e-4  # rad: below it Exp, Log and J_r^-1 take their series
QUAT_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])  # q * QUAT_CONJUGATE is q^-1


def quat_multiply_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products of two broadcast stacks of quaternions."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def quat_to_rot_batch(q: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` of unit quaternions: ``quat_to_rot``'s entries."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def hat_batch(v: np.ndarray) -> np.ndarray:
    """Skew matrices ``[v]x`` with ``[v]x u = v x u``: row i is ``e_i x v``, each
    entry as ``np.cross(np.eye(3), v[..., None, :])`` computes it, signed zeros included."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zx, zy, zz = 0.0 * x, 0.0 * y, 0.0 * z
    rows = (zz - zy, zx - z, y - zx, z - zy, zx - zz, zy - x, zz - y, x - zz, zy - zx)
    return np.stack(rows, axis=-1).reshape(v.shape + (3,))


def so3_exp_batch(phi: np.ndarray) -> np.ndarray:
    """Unit quaternions ``Exp(phi)`` of rotation vectors."""
    theta2 = np.sum(phi * phi, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SERIES_ANGLE
    safe = np.where(small, 1.0, theta)
    half_sinc = np.where(small, 0.5 - theta2 / 48.0, np.sin(0.5 * safe) / safe)
    return np.concatenate([np.cos(0.5 * theta)[..., None], half_sinc[..., None] * phi], axis=-1)


def so3_log_batch(q: np.ndarray) -> np.ndarray:
    """Rotation vectors ``Log(q)`` of unit quaternions, angle in [0, pi].

    Of ``q`` and ``-q`` (one rotation) the one with ``w >= 0`` is taken; its
    angle ``2 atan2(|v|, w)`` keeps the digits acos(w) loses near 0.
    """
    q = np.where(q[..., :1] < 0.0, -q, q)
    w, v = q[..., 0], q[..., 1:]
    n2 = np.sum(v * v, axis=-1)
    n = np.sqrt(n2)
    small = n < 0.5 * _SERIES_ANGLE
    safe = np.where(small, 1.0, n)
    angle_per_n = np.where(small, (2.0 - 2.0 * n2 / (3.0 * w * w)) / w,
                           2.0 * np.arctan2(safe, w) / safe)
    return angle_per_n[..., None] * v


def so3_right_jacobian_inv_batch(phi: np.ndarray) -> np.ndarray:
    """``J_r^-1(phi)``, with ``Log(Exp(phi) Exp(d)) = phi + J_r^-1(phi) d + O(d^2)``.

    ``I + [phi]x / 2 + (1 / theta^2 - cot(theta / 2) / (2 theta)) [phi]x^2``
    (Sola, Deray & Atchuthan 2018, eq. 144): finite up to theta = pi.
    """
    theta2 = np.sum(phi * phi, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < _SERIES_ANGLE
    safe = np.where(small, 1.0, theta)
    coeff = np.where(small, 1.0 / 12.0 + theta2 / 720.0,
                     1.0 / (safe * safe) - 0.5 / (safe * np.tan(0.5 * safe)))
    hat = hat_batch(phi)
    return np.eye(3) + 0.5 * hat + coeff[..., None, None] * (hat @ hat)


# --------------------------------------------------------------------------
# poses


@dataclass(frozen=True, slots=True)
class Pose6D:
    """Rigid transform: rotate by ``q`` then translate by ``t``.

    Holds ``t`` and ``q`` only, as tuples of floats, in slots: nothing
    derived (Euler angles, rotation matrix) can be cached on it, since a
    run keeps one pose per tick per drone.
    """

    t: tuple[float, float, float]
    q: tuple[float, float, float, float]
    WIRE_KEYS = frozenset(("t", "euler"))  # of to_dict's object

    def __init__(self, t, q) -> None:
        # three numbers, an array of any shape holding three, or numpy's error
        x, y, z = t if len(t) == 3 and type(t) is not np.ndarray else np.reshape(t, 3)
        t = (float(x), float(y), float(z))
        if not (math.isfinite(t[0]) and math.isfinite(t[1]) and math.isfinite(t[2])):
            raise ValueError(f"non-finite translation {np.array(t)}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", _quat_unit(q))

    @staticmethod
    def from_euler(t, euler) -> "Pose6D":
        alpha, beta, gamma = np.asarray(euler, dtype=float).reshape(3).tolist()
        # normalized once, by the constructor
        return Pose6D(t, _euler_quat(alpha, beta, gamma))

    @property
    def euler(self) -> np.ndarray:
        return quat_to_euler(self.q)

    def rotation(self) -> np.ndarray:
        return quat_to_rot(self.q)

    def compose(self, other: "Pose6D") -> "Pose6D":
        """self then other: first apply other in self's frame (self * other)."""
        return Pose6D(*_compose(self.t, self.q, other.t, other.q))

    def inverse(self) -> "Pose6D":
        return Pose6D(*_inverse(self.t, self.q))

    def apply(self, point) -> np.ndarray:
        tx, ty, tz = self.t
        rx, ry, rz = _rotate(self.q, point)
        return np.array([tx + rx, ty + ry, tz + rz])

    def to_vector(self) -> tuple[float, ...]:
        """(x, y, z, alpha, beta, gamma) boundary form."""
        return (*self.t, *_quat_euler(self.q))

    @staticmethod
    def from_vector(vec) -> "Pose6D":
        x, y, z, alpha, beta, gamma = vec
        return Pose6D((x, y, z), _euler_quat(alpha, beta, gamma))

    def to_dict(self) -> dict:
        return {"t": list(self.t), "euler": list(_quat_euler(self.q))}

    @staticmethod
    def from_dict(data: dict) -> "Pose6D":
        check_keys(data, Pose6D.WIRE_KEYS, "pose")
        t = [check_float(v, "t") for v in data["t"]]
        alpha, beta, gamma = [check_float(v, "euler") for v in data["euler"]]
        return Pose6D(t, _euler_quat(alpha, beta, gamma))

    def __repr__(self) -> str:  # compact, round-trip not required
        t = ", ".join(f"{v:.4g}" for v in self.t)
        e = ", ".join(f"{v:.4g}" for v in self.euler)
        return f"Pose6D(t=[{t}], euler=[{e}])"


# --------------------------------------------------------------------------
# decoded values

def check_keys(data: dict, keys: frozenset, what: str) -> dict:
    """``data`` if it is a JSON object with exactly ``keys``; else raises."""
    if data.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(data)}, not {sorted(keys)}")
    return data


def check_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, string or bool raises TypeError."""
    # bool subclasses int, so isinstance would let true and false through
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def check_float(value, what: str) -> float:
    """``value`` if it is a finite JSON number; a string, bool or non-finite one raises."""
    # json.loads reads 1e400 as inf; bool subclasses int
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{what} {value!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not finite")
    return value


# --------------------------------------------------------------------------
# 6x6 covariances over (x, y, z, alpha, beta, gamma)

EIG_TOL = -1e-12
# on the wire a covariance is its upper triangle, row by row: 21 values
COV_WIRE_LEN = 21
_UPPER = np.flatnonzero(np.triu(np.ones((6, 6), dtype=bool)))  # their flat indices in a 6x6
# each entry of a 6x6, as an index into those 21 values: (i, j) and (j, i) read the same one
_FROM_UPPER = np.zeros((6, 6), dtype=np.intp)
_FROM_UPPER.flat[_UPPER] = range(COV_WIRE_LEN)
_FROM_UPPER = np.maximum(_FROM_UPPER, _FROM_UPPER.T)


def upper_triangle(cov: np.ndarray) -> list[float]:
    """The wire form of a symmetric 6x6: its 21 upper-triangle values, row-major."""
    return cov.take(_UPPER).tolist()


def check_covariance(values, what: str = "covariance") -> np.ndarray:
    """The read-only 6x6 of 21 wire values (``upper_triangle``'s), checked.

    Each value must be a finite JSON number (``check_float``), and the
    smallest eigenvalue at least ``EIG_TOL``. The matrix is built from the
    upper triangle alone, so it is exactly symmetric.
    """
    if len(values) != COV_WIRE_LEN:
        raise ValueError(f"{what}: expected {COV_WIRE_LEN} values, got {len(values)}")
    cov = np.array([check_float(v, what) for v in values])[_FROM_UPPER]
    eig = np.linalg.eigvalsh(cov)[0]
    if eig < EIG_TOL:
        raise ValueError(f"{what}: negative eigenvalue {eig}")
    cov.setflags(write=False)
    return cov


def symmetrize(cov: np.ndarray) -> np.ndarray:
    return 0.5 * (cov + cov.T)


def transport_covariance(cov: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Re-express a 6x6 pose covariance in a rotated frame.

    The position block is conjugated by ``rot``; the angle block is
    conjugated by the same rotation (small-angle treatment of the Euler
    uncertainty, adequate for the near-hover regime this package targets).
    Trace and positive semidefiniteness are preserved exactly.
    """
    cov = np.asarray(cov, dtype=float)
    rot = np.asarray(rot, dtype=float)
    jac = np.zeros((6, 6))
    jac[:3, :3] = rot
    jac[3:, 3:] = rot
    return symmetrize(jac @ cov @ jac.T)
