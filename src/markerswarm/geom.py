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

Quaternions are the internal representation; Euler triples appear only at
API boundaries (construction, serialization, filter state vectors).

Trust boundaries: values are validated once, where they enter a run.
``parse_scenario`` checks the scenario file; protocol ``decode`` and the
``from_dict`` constructors it calls check every wire value with
``check_keys`` (an object has exactly its keys), ``check_int``,
``check_float``, ``check_covariance`` or, for a detection's camera and
marker id, against the camera table and the id range. The constructors
of values a run computes itself (``EkfState``, ``PoseObservation``,
``MapEntry``) only copy and freeze their arrays. ``Pose6D`` is the
exception: it still rejects a non-finite translation and normalizes its
quaternion.

``Pose6D`` is a slotted dataclass built in one pass: its own
``__init__`` copies ``t``, checks that it is finite and normalizes ``q``
on floats through ``_quat_unit``, whose norm stays on ``ndarray.dot``
(below). It has no ``__post_init__`` and no ``__dict__``: a run builds a
pose per tick per drone and per detection, and keeps many of them.

Float kernels: the quaternion and pose kernels unpack their arrays with
``tolist()`` and compute on Python floats, which is several times faster
than numpy dispatch on 3- and 4-vectors. ``Pose6D``'s own methods do the
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


def wrap_angle(angle: float) -> float:
    """Wrap a single angle to (-pi, pi]."""
    wrapped = math.pi - (math.pi - angle) % (2.0 * math.pi)
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Wrap an array of angles to (-pi, pi]."""
    return math.pi - (math.pi - np.asarray(angles, dtype=float)) % (2.0 * math.pi)


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


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float).tolist()
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
    s_beta = -r20
    s_beta = min(1.0, max(-1.0, s_beta))
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


def rot_to_euler_batch(rot: np.ndarray) -> np.ndarray:
    """``_euler`` over a stack of rotations ``(..., 3, 3)``, gimbal branch included."""
    rot = np.asarray(rot, dtype=float)
    s_beta = np.clip(-rot[..., 2, 0], -1.0, 1.0)
    gimbal = np.abs(s_beta) >= _GIMBAL_TOL
    beta = np.where(gimbal, np.copysign(0.5 * math.pi, s_beta), np.arcsin(s_beta))
    alpha = np.where(gimbal, 0.0, np.arctan2(rot[..., 2, 1], rot[..., 2, 2]))
    gamma = np.where(
        gimbal,
        np.arctan2(-rot[..., 0, 1], rot[..., 1, 1]),
        np.arctan2(rot[..., 1, 0], rot[..., 0, 0]),
    )
    return wrap_angles(np.stack([alpha, beta, gamma], axis=-1))


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


def euler_rot_derivatives_batch(euler: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices and their partial derivatives by angle, over ``(N, 3)`` angles.

    Returns rotations ``(N, 3, 3)`` and derivatives ``(N, 3, 3, 3)``, where
    ``[:, k]`` is d R / d angle k.
    """
    euler = np.asarray(euler, dtype=float).reshape(-1, 3)
    ca, cb, cg = np.cos(euler).T
    sa, sb, sg = np.sin(euler).T
    zero = np.zeros_like(ca)
    one = np.ones_like(ca)

    def stack(rows):
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    rx = stack([[one, zero, zero], [zero, ca, -sa], [zero, sa, ca]])
    ry = stack([[cb, zero, sb], [zero, one, zero], [-sb, zero, cb]])
    rz = stack([[cg, -sg, zero], [sg, cg, zero], [zero, zero, one]])
    drx = stack([[zero, zero, zero], [zero, -sa, -ca], [zero, ca, -sa]])
    dry = stack([[-sb, zero, cb], [zero, zero, zero], [-cb, zero, -sb]])
    drz = stack([[-sg, -cg, zero], [cg, -sg, zero], [zero, zero, zero]])

    rzy = rz @ ry
    rot = rzy @ rx
    return rot, np.stack([rzy @ drx, rz @ dry @ rx, drz @ ry @ rx], axis=1)


def euler_rate_from_rot_rate(rot: np.ndarray, drot: np.ndarray) -> np.ndarray:
    """Chain rule through the Euler extraction: d euler / d s from d R / d s.

    Valid away from the pitch singularity (the extraction formulas are
    atan2/asin of individual matrix entries, differentiated directly).
    Broadcasts over leading axes: ``rot`` ``(..., 3, 3)`` and ``drot``
    ``(..., 3, 3)`` give ``(..., 3)``; raises if any rotation in the stack
    is at the singularity.
    """
    rot = np.asarray(rot, dtype=float)
    drot = np.asarray(drot, dtype=float)
    r20 = rot[..., 2, 0]
    denom_a = rot[..., 2, 1] ** 2 + rot[..., 2, 2] ** 2
    denom_g = rot[..., 1, 0] ** 2 + rot[..., 0, 0] ** 2
    denom_b = 1.0 - r20 * r20
    if np.any(denom_a < 1e-14) or np.any(denom_g < 1e-14) or np.any(denom_b < 1e-14):
        raise ArithmeticError("euler derivative at pitch singularity")
    d_alpha = (rot[..., 2, 2] * drot[..., 2, 1] - rot[..., 2, 1] * drot[..., 2, 2]) / denom_a
    d_beta = -drot[..., 2, 0] / np.sqrt(denom_b)
    d_gamma = (rot[..., 0, 0] * drot[..., 1, 0] - rot[..., 1, 0] * drot[..., 0, 0]) / denom_g
    return np.stack([d_alpha, d_beta, d_gamma], axis=-1)


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


def rotation_angle_between(qa: np.ndarray, qb: np.ndarray) -> float:
    """Geodesic angle between two orientations."""
    w, x, y, z = np.asarray(qa, dtype=float).tolist()
    return quat_angle(_multiply((w, -x, -y, -z), np.asarray(qb, dtype=float).tolist()))


# --------------------------------------------------------------------------
# poses


@dataclass(frozen=True, slots=True)
class Pose6D:
    """Rigid transform: rotate by ``q`` then translate by ``t``.

    Holds ``t`` and ``q`` only, in slots: nothing derived (Euler angles,
    rotation matrix) can be cached on it, since a run keeps one pose per
    tick per drone.
    """

    t: np.ndarray
    q: np.ndarray
    WIRE_KEYS = frozenset(("t", "euler"))  # of to_dict's object

    def __init__(self, t, q) -> None:
        t = np.array(t, dtype=float)
        if t.shape != (3,):
            t = t.reshape(3)
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError(f"non-finite translation {t}")
        q = np.array(_quat_unit(q))
        t.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q", q)

    @staticmethod
    def identity() -> "Pose6D":
        return Pose6D((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))

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
        t, q = _compose(self.t.tolist(), self.q.tolist(), other.t.tolist(), other.q.tolist())
        return Pose6D(t, q)

    def inverse(self) -> "Pose6D":
        return Pose6D(*_inverse(self.t.tolist(), self.q.tolist()))

    def apply(self, point: np.ndarray) -> np.ndarray:
        tx, ty, tz = self.t.tolist()
        rx, ry, rz = _rotate(self.q.tolist(), np.asarray(point, dtype=float).tolist())
        return np.array([tx + rx, ty + ry, tz + rz])

    def to_vector(self) -> np.ndarray:
        """(x, y, z, alpha, beta, gamma) boundary form."""
        return np.array([*self.t.tolist(), *_quat_euler(self.q.tolist())])

    @staticmethod
    def from_vector(vec: np.ndarray) -> "Pose6D":
        x, y, z, alpha, beta, gamma = np.asarray(vec, dtype=float).reshape(6).tolist()
        return Pose6D((x, y, z), _euler_quat(alpha, beta, gamma))

    def to_dict(self) -> dict:
        return {"t": self.t.tolist(), "euler": list(_quat_euler(self.q.tolist()))}

    @staticmethod
    def from_dict(data: dict) -> "Pose6D":
        check_keys(data, Pose6D.WIRE_KEYS, "pose")
        return Pose6D.from_euler(
            [check_float(v, "t") for v in data["t"]],
            [check_float(v, "euler") for v in data["euler"]],
        )

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

SYM_TOL = 1e-12
EIG_TOL = -1e-12


def check_covariance(cov: np.ndarray, what: str = "covariance") -> np.ndarray:
    """Validate symmetry within 1e-12 and eigenvalues >= -1e-12."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (6, 6):
        raise ValueError(f"{what}: expected 6x6, got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{what}: non-finite entries")
    if np.max(np.abs(cov - cov.T)) > SYM_TOL:
        raise ValueError(f"{what}: not symmetric within {SYM_TOL}")
    eigs = np.linalg.eigvalsh(0.5 * (cov + cov.T))
    if eigs[0] < EIG_TOL:
        raise ValueError(f"{what}: negative eigenvalue {eigs[0]}")
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
