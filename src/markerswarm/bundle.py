"""Keypose bundle adjustment over one coordinate frame.

A keypose is a committed filter pose with the marker detections seen at
that instant. Stacking, for every (keypose, marker) observation, the
difference between the predicted marker-in-camera pose and the observed
one gives a whitened least-squares problem over all non-anchor keyposes
and all observed markers; minimizing it removes the bias that per-marker
fusion cannot (keyposes and markers are pulled together instead of
trusting the filter trajectory that inserted the markers).

The noise model is the one the filter and the map use,
``ekf.detection_noise``: a diagonal covariance set by the detection's
range, whose diagonal ``ekf.detection_variances`` gives. So whitening
divides each residual axis by its sigma, the square root of that
diagonal.

The first keypose of the lowest drone id anchors the gauge: it is not a
variable, which pins the otherwise free rigid motion of the whole problem.
Optimization is Levenberg-Marquardt with multiplicative damping (x10 on a
rejected step, /10 on an accepted one); accepted costs are strictly
decreasing by construction.

Everything runs on arrays, with no Python loop per observation. A residual
involves one keypose and one marker, so the Jacobian is kept as one 6x6
keypose block and one 6x6 marker block per observation, and J^T J as its
6x6 blocks: keypose-keypose U_k and marker-marker V_m (both block-diagonal)
and keypose-marker W_km. Each damped step eliminates the keyposes (Schur
complement, Triggs et al. 2000) and solves only the 6M x 6M marker system
S = V + lambda I - W^T (U + lambda I)^-1 W, then back-substitutes for the
keyposes: the same step as a dense solve of J^T J + lambda I, at a cost
linear in the number of keyposes.

Variables are parameterized as (x, y, z, alpha, beta, gamma). The Euler
parameterization keeps the problem small and matches the filter state, at
the price of a singularity at |pitch| = pi/2; scenario data keeps marker
and keypose pitches away from that line, and a Jacobian evaluated on it
raises ArithmeticError.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from markerswarm.ekf import EkfConfig, detection_variances
from markerswarm.geom import (
    Pose6D,
    _quat_euler,
    check_float,
    check_int,
    check_keys,
    euler_rate_from_rot_rate,
    euler_rot_derivatives_batch,
    rot_to_euler_batch,
    rotation_angle_between,
    wrap_angles,
)
from markerswarm.worldsim import CameraParams, MarkerDetection

# Levenberg-Marquardt settings; the iteration cap is optimize's argument
INITIAL_DAMPING = 1e-4
DAMPING_STEP = 10.0
MAX_DAMPING = 1e12
COST_REL_TOL = 1e-9
GRAD_TOL = 1e-10


@dataclass(frozen=True)
class Keypose:
    drone_id: int
    frame: int
    pose: Pose6D
    timestamp: float
    observations: tuple[MarkerDetection, ...]  # the detections seen at this instant
    # no drone_id: the message that carries a keypose names its sender
    WIRE_KEYS = frozenset(("frame", "pose", "timestamp", "observations"))

    def __post_init__(self) -> None:
        if len(self.observations) < 1:
            raise ValueError("a keypose needs at least one attached observation")
        object.__setattr__(self, "observations", tuple(self.observations))

    def to_dict(self) -> dict:
        return {
            "frame": int(self.frame),
            "pose": self.pose.to_dict(),
            "timestamp": float(self.timestamp),
            "observations": [o.to_dict() for o in self.observations],
        }

    @staticmethod
    def from_dict(data: dict, drone_id: int) -> "Keypose":
        check_keys(data, Keypose.WIRE_KEYS, "keypose")
        return Keypose(
            drone_id=drone_id,
            frame=check_int(data["frame"], "frame"),
            pose=Pose6D.from_dict(data["pose"]),
            timestamp=check_float(data["timestamp"], "timestamp"),
            observations=tuple(MarkerDetection.from_dict(o) for o in data["observations"]),
        )


def select_keypose(
    current: Pose6D,
    last: Pose6D | None,
    visible_markers: int,
    d_key: float = 0.5,  # m of translation since the last keypose
    theta_key: float = 0.35,  # rad of rotation since the last keypose
) -> bool:
    """Commit a keypose when the drone has moved enough and sees a marker.

    True iff (translation since the last keypose > d_key or rotation >
    theta_key) and at least one marker is currently visible. With no prior
    keypose any marker sighting qualifies.
    """
    if visible_markers < 1:
        return False
    if last is None:
        return True
    offset = current.t - last.t
    # what np.linalg.norm computes for a real vector, without its dispatch
    moved = math.sqrt(offset.dot(offset)) > d_key
    turned = rotation_angle_between(current.q, last.q) > theta_key
    return moved or turned


class BaProblem:
    """Immutable description of one adjustment: keyposes, markers, layout.

    Keyposes must all live in the same frame. The anchor (first keypose of
    the lowest drone id) is excluded from the variable vector; remaining
    keyposes come first, then markers in ascending id. Observations of
    markers missing from ``marker_poses`` are dropped. ``obs_keypose`` and
    ``obs_marker`` give each observation's keypose (0 for the anchor) and
    marker position in those orders. Each detection's camera pose comes
    from ``cameras``, one rotation per camera, and its noise from
    ``detection_variances``, the model the filter and the map use.
    """

    def __init__(
        self,
        keyposes: list[Keypose],
        marker_poses: dict[int, Pose6D],
        cameras: Mapping[str, CameraParams],
        ekf_config: EkfConfig,
    ) -> None:
        if not keyposes:
            raise ValueError("no keyposes")
        frames = {kp.frame for kp in keyposes}
        if len(frames) != 1:
            raise ValueError(f"keyposes span frames {sorted(frames)}; adjust one frame at a time")

        anchor_idx = min(
            range(len(keyposes)),
            key=lambda i: (keyposes[i].drone_id, keyposes[i].timestamp, i),
        )
        rest = [kp for i, kp in enumerate(keyposes) if i != anchor_idx]
        rest.sort(key=lambda kp: (kp.timestamp, kp.drone_id))
        self.keyposes: list[Keypose] = [keyposes[anchor_idx]] + rest

        observed = {
            det.marker_id
            for kp in self.keyposes
            for det in kp.observations
            if det.marker_id in marker_poses
        }
        self.marker_ids: list[int] = sorted(observed)
        self.marker_init: dict[int, Pose6D] = {m: marker_poses[m] for m in self.marker_ids}

        self.observations: list[tuple[int, MarkerDetection]] = [
            (i, det)
            for i, kp in enumerate(self.keyposes)
            for det in kp.observations
            if det.marker_id in self.marker_init
        ]
        if not self.observations:
            raise ValueError("no usable observations")
        if self.n_variables < 6:
            raise ValueError("need at least one non-anchor variable")

        # per-observation arrays, fixed for the life of the problem
        marker_index = {m: j for j, m in enumerate(self.marker_ids)}
        dets = [d for _, d in self.observations]
        self.obs_keypose = np.array([i for i, _ in self.observations])  # 0 is the anchor
        self.obs_marker = np.array([marker_index[d.marker_id] for d in dets])
        self._anchor = self.keyposes[0].pose.to_vector()
        # one rotation per camera, gathered per observation
        names = sorted({d.camera for d in dets})
        camera_index = {name: k for k, name in enumerate(names)}
        obs_camera = np.array([camera_index[d.camera] for d in dets])
        self._cam_rot = np.array([cameras[n].extrinsics.rotation() for n in names])[obs_camera]
        self._cam_t = np.array([cameras[n].extrinsics.t for n in names])[obs_camera]
        self._obs_t = np.array([d.rel_pose.t.tolist() for d in dets])
        self._obs_euler = np.array([_quat_euler(d.rel_pose.q.tolist()) for d in dets])
        # the noise is diagonal: whitening divides each axis by its sigma
        variances = [detection_variances(d, ekf_config) for d in dets]
        self._sigma = np.sqrt([(v_p, v_p, v_p, v_a, v_a, v_a) for v_p, v_a in variances])

    @property
    def n_keypose_vars(self) -> int:
        return len(self.keyposes) - 1

    @property
    def n_variables(self) -> int:
        return 6 * (self.n_keypose_vars + len(self.marker_ids))

    def initial_vector(self) -> np.ndarray:
        poses = [kp.pose for kp in self.keyposes[1:]]
        poses += [self.marker_init[m] for m in self.marker_ids]
        # Pose6D.to_vector's values, in one array
        return np.array(
            [(*p.t.tolist(), *_quat_euler(p.q.tolist())) for p in poses], dtype=float
        ).reshape(-1)

    def unpack(self, x: np.ndarray) -> tuple[list[Keypose], dict[int, Pose6D]]:
        blocks = x.reshape(-1, 6)  # keyposes after the anchor, then markers
        n_keyposes = self.n_keypose_vars
        keyposes = [self.keyposes[0]] + [
            Keypose(kp.drone_id, kp.frame, Pose6D.from_vector(v), kp.timestamp, kp.observations)
            for kp, v in zip(self.keyposes[1:], blocks[:n_keyposes])
        ]
        markers = {m: Pose6D.from_vector(v) for m, v in zip(self.marker_ids, blocks[n_keyposes:])}
        return keyposes, markers


@dataclass(frozen=True)
class BlockJacobian:
    """Whitened Jacobian of the residual stack, one block pair per observation.

    Observation ``o`` owns rows ``6o:6o+6``. Its only nonzero entries are
    ``keypose[o]`` in the columns of keypose ``problem.obs_keypose[o]`` and
    ``marker[o]`` in those of marker ``problem.obs_marker[o]``. The anchor is
    not a variable, so the keypose blocks of its observations are zero.
    """

    keypose: np.ndarray  # (n_obs, 6, 6)
    marker: np.ndarray  # (n_obs, 6, 6)


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products: (..., n, m) x (..., m) -> (..., n)."""
    return (mats @ vecs[..., None])[..., 0]


def residuals(
    problem: BaProblem, x: np.ndarray, with_jacobian: bool = True
) -> tuple[np.ndarray, BlockJacobian | None]:
    """Whitened residual stack and (optionally) its block Jacobian.

    Per observation the residual is the 6-vector difference between the
    predicted marker-in-camera pose, inverse(keypose * extrinsics) *
    marker, and the detected one: translation difference plus wrapped
    Euler difference, each axis divided by its detection sigma. Rotations
    and their derivatives are computed once per pose and gathered per
    observation.
    """
    poses = np.concatenate([problem._anchor, x]).reshape(-1, 6)  # anchor, keyposes, markers
    rot, drot = euler_rot_derivatives_batch(poses[:, 3:])
    kp = problem.obs_keypose
    mk = problem.obs_marker + len(problem.keyposes)
    rot_c, t_c = problem._cam_rot, problem._cam_t

    rot_a = rot[kp] @ rot_c  # camera in frame
    rot_a_t = rot_a.swapaxes(-1, -2)
    t_a = poses[kp, :3] + _apply(rot[kp], t_c)
    t_diff = poses[mk, :3] - t_a
    rot_m = rot[mk]
    rot_rel = rot_a_t @ rot_m

    r6 = np.concatenate(
        [
            _apply(rot_a_t, t_diff) - problem._obs_t,
            wrap_angles(rot_to_euler_batch(rot_rel) - problem._obs_euler),
        ],
        axis=1,
    )
    # bit-equal to a LAPACK solve by diag(sigma): one rhs divides, several multiply by 1 / sigma
    res = (r6 / problem._sigma).reshape(-1)
    if not with_jacobian:
        return res, None

    n_obs = len(kp)
    rot_rel_k = rot_rel[:, None]  # broadcast over the three angles
    block_m = np.zeros((n_obs, 6, 6))
    block_m[:, :3, :3] = rot_a_t  # d t_rel / d t_marker
    block_m[:, 3:, 3:] = euler_rate_from_rot_rate(
        rot_rel_k, rot_a_t[:, None] @ drot[mk]
    ).swapaxes(1, 2)

    drot_i = drot[kp]
    d_rot_a = drot_i @ rot_c[:, None]  # [:, k] = d rot_a / d angle k
    d_rot_a_t = d_rot_a.swapaxes(-1, -2)
    block_k = np.zeros((n_obs, 6, 6))
    block_k[:, :3, :3] = -rot_a_t  # d t_rel / d t_keypose
    block_k[:, :3, 3:] = (
        _apply(d_rot_a_t, t_diff[:, None]) - _apply(rot_a_t[:, None], _apply(drot_i, t_c[:, None]))
    ).swapaxes(1, 2)
    block_k[:, 3:, 3:] = euler_rate_from_rot_rate(rot_rel_k, d_rot_a_t @ rot_m[:, None]).swapaxes(
        1, 2
    )
    block_k[kp == 0] = 0.0  # the anchor is not a variable

    inv_sigma = (1.0 / problem._sigma)[:, :, None]
    return res, BlockJacobian(keypose=block_k * inv_sigma, marker=block_m * inv_sigma)


def _sum_blocks(index: np.ndarray, blocks: np.ndarray, count: int) -> np.ndarray:
    """Sum ``blocks[o]`` into slot ``index[o]`` of ``count`` zero slots."""
    size = blocks[0].size
    flat = (index[:, None] * size + np.arange(size)).reshape(-1)
    summed = np.bincount(flat, weights=blocks.reshape(-1), minlength=count * size)
    return summed.reshape((count,) + blocks.shape[1:])


class NormalEquations:
    """J^T J and J^T r of one linearization, kept in 6x6 blocks.

    ``u`` holds the keypose blocks U_k and ``v`` the marker blocks V_m of
    the block-diagonal parts; ``w`` holds, per keypose, the row
    [W_k1 ... W_kM] of the keypose-marker coupling, 6 x 6M. The anchor has
    no variables and is dropped.
    """

    def __init__(self, problem: BaProblem, res: np.ndarray, jac: BlockJacobian) -> None:
        n_keyposes = len(problem.keyposes)
        n_markers = len(problem.marker_ids)
        kp, mk = problem.obs_keypose, problem.obs_marker
        jk_t = jac.keypose.swapaxes(1, 2)
        jm_t = jac.marker.swapaxes(1, 2)
        r6 = res.reshape(-1, 6)
        # an overflow here gives a non-finite step, which raises the damping
        with np.errstate(over="ignore", invalid="ignore"):
            self.u = _sum_blocks(kp, jk_t @ jac.keypose, n_keyposes)[1:]
            self.v = _sum_blocks(mk, jm_t @ jac.marker, n_markers)
            w = _sum_blocks(kp * n_markers + mk, jk_t @ jac.marker, n_keyposes * n_markers)
        self.w = (
            w.reshape(n_keyposes, n_markers, 6, 6)[1:]
            .transpose(0, 2, 1, 3)
            .reshape(n_keyposes - 1, 6, 6 * n_markers)
        )
        self.g_keypose = _sum_blocks(kp, _apply(jk_t, r6), n_keyposes)[1:]
        self.g_marker = _sum_blocks(mk, _apply(jm_t, r6), n_markers)

    @property
    def gradient(self) -> np.ndarray:
        """J^T r in variable order: keyposes, then markers."""
        return np.concatenate([self.g_keypose.reshape(-1), self.g_marker.reshape(-1)])

    def step(self, damping: float) -> np.ndarray:
        """Solve (J^T J + damping I) step = -J^T r by eliminating the keyposes.

        Reduced system S d_m = -g_m + W^T (U + damping I)^-1 g_k with
        S = V + damping I - W^T (U + damping I)^-1 W, then
        d_k = -(U + damping I)^-1 (g_k + W d_m). Raises LinAlgError when a
        damped block or S is singular.

        The sums over keyposes in S and its right-hand side run one keypose
        at a time, in keypose order. One product over all keyposes would
        leave that summation order to the BLAS, whose threads split a long
        inner dimension differently for each thread count.
        """
        eye = np.eye(6)
        u_inv = np.linalg.inv(self.u + damping * eye)
        n_cols = self.w.shape[2]
        reduced = np.zeros((n_cols, n_cols))
        rhs = np.zeros(n_cols)
        for w_k, u_inv_w_k, u_inv_g_k in zip(
            self.w, u_inv @ self.w, _apply(u_inv, self.g_keypose)
        ):
            w_k_t = w_k.T
            reduced -= w_k_t @ u_inv_w_k
            rhs += w_k_t @ u_inv_g_k
        rhs -= self.g_marker.reshape(-1)
        diag = np.arange(len(self.v))
        # a view of ``reduced``: add V_m + damping I to its diagonal blocks
        reduced.reshape(len(self.v), 6, len(self.v), 6)[diag, :, diag, :] += self.v + damping * eye
        d_marker = np.linalg.solve(reduced, rhs)
        d_keypose = -_apply(u_inv, self.g_keypose + self.w @ d_marker)
        return np.concatenate([d_keypose.reshape(-1), d_marker])


@dataclass
class BaResult:
    status: str  # converged | max_iterations | aborted_singular
    initial_cost: float
    final_cost: float
    damping_trace: list[float]
    cost_trace: list[float]  # accepted costs, strictly decreasing
    keyposes: list[Keypose]
    markers: dict[int, Pose6D]
    message: str = ""

    @property
    def iterations(self) -> int:
        """Accepted steps: each appends its cost to ``cost_trace``."""
        return len(self.cost_trace)

    @property
    def aborted(self) -> bool:
        return self.status == "aborted_singular"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "iterations": self.iterations,
            "initial_cost": float(self.initial_cost),
            "final_cost": float(self.final_cost),
            "damping_trace": [float(v) for v in self.damping_trace],
            "cost_trace": [float(v) for v in self.cost_trace],
            "message": self.message,
        }


def _wrap_variable_angles(x: np.ndarray) -> np.ndarray:
    blocks = x.reshape(-1, 6).copy()
    blocks[:, 3:] = wrap_angles(blocks[:, 3:])
    return blocks.reshape(-1)


def optimize(problem: BaProblem, max_iterations: int = 100) -> BaResult:
    """Levenberg-Marquardt on the whitened residuals.

    Terminates on relative cost decrease below COST_REL_TOL, gradient
    infinity norm below GRAD_TOL, or max_iterations. A singular damped
    system at maximum damping aborts with the initial variables intact so
    the caller leaves the map untouched.
    """
    x = problem.initial_vector()
    res, jac = residuals(problem, x, with_jacobian=True)
    cost = 0.5 * float(res @ res)
    initial_cost = cost
    damping = INITIAL_DAMPING
    damping_trace: list[float] = []
    cost_trace: list[float] = []
    status = "max_iterations"
    message = ""

    def result(final_status: str, vec: np.ndarray, final_cost: float) -> BaResult:
        keyposes, markers = problem.unpack(vec)
        return BaResult(
            status=final_status,
            initial_cost=initial_cost,
            final_cost=final_cost,
            damping_trace=damping_trace,
            cost_trace=cost_trace,
            keyposes=keyposes,
            markers=markers,
            message=message,
        )

    for _ in range(max_iterations):
        normal = NormalEquations(problem, res, jac)
        if float(np.max(np.abs(normal.gradient))) < GRAD_TOL:
            status = "converged"
            message = "gradient below tolerance"
            break

        accepted = False
        while True:
            try:
                step = normal.step(damping)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                damping *= DAMPING_STEP
                if damping > MAX_DAMPING:
                    message = "singular damped system at maximum damping"
                    return result("aborted_singular", problem.initial_vector(), initial_cost)
                continue
            x_try = _wrap_variable_angles(x + step)
            res_try, _ = residuals(problem, x_try, with_jacobian=False)
            cost_try = 0.5 * float(res_try @ res_try)
            if cost_try < cost:
                accepted = True
                damping = max(damping / DAMPING_STEP, 1e-15)
                break
            damping *= DAMPING_STEP
            if damping > MAX_DAMPING:
                break

        if not accepted:
            # no strictly decreasing step exists at maximum damping
            status = "converged"
            message = "no descent step at maximum damping"
            break

        damping_trace.append(damping)
        cost_trace.append(cost_try)
        relative_drop = (cost - cost_try) / max(cost, 1e-300)
        x = x_try
        cost = cost_try
        res, jac = residuals(problem, x, with_jacobian=True)
        if relative_drop < COST_REL_TOL:
            status = "converged"
            message = "relative cost decrease below tolerance"
            break

    return result(status, x, cost)
