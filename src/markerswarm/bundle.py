"""Keypose bundle adjustment over one coordinate frame.

A keypose is a committed filter pose with the marker detections seen at
that instant. Stacking, for every (keypose, marker) observation, the
difference between the predicted marker-in-camera pose and the observed
one gives a whitened least-squares problem over all non-anchor keyposes
and all observed markers; minimizing it removes the bias that per-marker
fusion cannot (keyposes and markers are pulled together instead of
trusting the filter trajectory that inserted the markers).

The first keypose of the lowest drone id anchors the gauge: it is not a
variable, which pins the otherwise free rigid motion of the whole problem.
Optimization is Levenberg-Marquardt with multiplicative damping (x10 on a
rejected step, /10 on an accepted one); accepted costs are strictly
decreasing by construction.

Variables are parameterized as (x, y, z, alpha, beta, gamma). The Euler
parameterization keeps the problem small and matches the filter state, at
the price of a singularity at |pitch| = pi/2; scenario data keeps marker
and keypose pitches away from that line.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from markerswarm.geom import (
    Pose6D,
    euler_rate_from_rot_rate,
    euler_rot_derivatives,
    rot_to_euler,
    rotation_angle_between,
    wrap_angles,
)

D_KEY_DEFAULT = 0.5  # m of translation since the last keypose
THETA_KEY_DEFAULT = 0.35  # rad of rotation since the last keypose


@dataclass(frozen=True)
class KeyposeObservation:
    marker_id: int
    rel_pose: Pose6D  # marker in camera, as detected
    noise_cov: np.ndarray  # 6x6 detection noise at the time
    cam_extrinsics: Pose6D  # camera in drone body

    def to_dict(self) -> dict:
        return {
            "marker_id": int(self.marker_id),
            "rel_pose": self.rel_pose.to_dict(),
            "noise_cov": [float(v) for v in np.asarray(self.noise_cov).reshape(-1)],
            "cam_extrinsics": self.cam_extrinsics.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "KeyposeObservation":
        return KeyposeObservation(
            marker_id=int(data["marker_id"]),
            rel_pose=Pose6D.from_dict(data["rel_pose"]),
            noise_cov=np.asarray(data["noise_cov"], dtype=float).reshape(6, 6),
            cam_extrinsics=Pose6D.from_dict(data["cam_extrinsics"]),
        )


@dataclass(frozen=True)
class Keypose:
    drone_id: int
    frame: int
    pose: Pose6D
    timestamp: float
    observations: tuple[KeyposeObservation, ...]

    def __post_init__(self) -> None:
        if len(self.observations) < 1:
            raise ValueError("a keypose needs at least one attached observation")
        object.__setattr__(self, "observations", tuple(self.observations))

    def to_dict(self) -> dict:
        return {
            "drone_id": int(self.drone_id),
            "frame": int(self.frame),
            "pose": self.pose.to_dict(),
            "timestamp": float(self.timestamp),
            "observations": [o.to_dict() for o in self.observations],
        }

    @staticmethod
    def from_dict(data: dict) -> "Keypose":
        return Keypose(
            drone_id=int(data["drone_id"]),
            frame=int(data["frame"]),
            pose=Pose6D.from_dict(data["pose"]),
            timestamp=float(data["timestamp"]),
            observations=tuple(
                KeyposeObservation.from_dict(o) for o in data["observations"]
            ),
        )


def select_keypose(
    current: Pose6D,
    last: Pose6D | None,
    visible_markers: int,
    d_key: float = D_KEY_DEFAULT,
    theta_key: float = THETA_KEY_DEFAULT,
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
    moved = float(np.linalg.norm(current.t - last.t)) > d_key
    turned = rotation_angle_between(current.q, last.q) > theta_key
    return moved or turned


class BaProblem:
    """Immutable description of one adjustment: keyposes, markers, layout.

    Keyposes must all live in the same frame. The anchor (first keypose of
    the lowest drone id) is excluded from the variable vector; remaining
    keyposes come first, then markers in ascending id. Observations of
    markers missing from ``marker_poses`` are dropped.
    """

    def __init__(self, keyposes: list[Keypose], marker_poses: dict[int, Pose6D]) -> None:
        if not keyposes:
            raise ValueError("no keyposes")
        frames = {kp.frame for kp in keyposes}
        if len(frames) != 1:
            raise ValueError(f"keyposes span frames {sorted(frames)}; adjust one frame at a time")
        self.frame = keyposes[0].frame

        anchor_idx = min(
            range(len(keyposes)),
            key=lambda i: (keyposes[i].drone_id, keyposes[i].timestamp, i),
        )
        rest = [kp for i, kp in enumerate(keyposes) if i != anchor_idx]
        rest.sort(key=lambda kp: (kp.timestamp, kp.drone_id))
        self.keyposes: list[Keypose] = [keyposes[anchor_idx]] + rest

        observed = {
            obs.marker_id
            for kp in self.keyposes
            for obs in kp.observations
            if obs.marker_id in marker_poses
        }
        self.marker_ids: list[int] = sorted(observed)
        self.marker_init: dict[int, Pose6D] = {m: marker_poses[m] for m in self.marker_ids}

        self.observations: list[tuple[int, KeyposeObservation]] = [
            (i, obs)
            for i, kp in enumerate(self.keyposes)
            for obs in kp.observations
            if obs.marker_id in self.marker_init
        ]
        if not self.observations:
            raise ValueError("no usable observations")
        if self.n_variables < 6:
            raise ValueError("need at least one non-anchor variable")

        # cache the whitening factors (cholesky of each observation noise)
        self._whiteners = [
            np.linalg.cholesky(np.asarray(obs.noise_cov, dtype=float))
            for _, obs in self.observations
        ]

    @property
    def n_keypose_vars(self) -> int:
        return len(self.keyposes) - 1

    @property
    def n_variables(self) -> int:
        return 6 * (self.n_keypose_vars + len(self.marker_ids))

    @property
    def n_residuals(self) -> int:
        return 6 * len(self.observations)

    def initial_vector(self) -> np.ndarray:
        parts = [kp.pose.to_vector() for kp in self.keyposes[1:]]
        parts += [self.marker_init[m].to_vector() for m in self.marker_ids]
        return np.concatenate(parts) if parts else np.zeros(0)

    def keypose_slice(self, index: int) -> slice | None:
        """Variable slice of keypose ``index``; None for the anchor."""
        if index == 0:
            return None
        offset = 6 * (index - 1)
        return slice(offset, offset + 6)

    def marker_slice(self, marker_id: int) -> slice:
        offset = 6 * (self.n_keypose_vars + self.marker_ids.index(marker_id))
        return slice(offset, offset + 6)

    def unpack(self, x: np.ndarray) -> tuple[list[Keypose], dict[int, Pose6D]]:
        keyposes = [self.keyposes[0]]
        for i, kp in enumerate(self.keyposes[1:], start=1):
            sl = self.keypose_slice(i)
            keyposes.append(replace(kp, pose=Pose6D.from_vector(x[sl])))
        markers = {m: Pose6D.from_vector(x[self.marker_slice(m)]) for m in self.marker_ids}
        return keyposes, markers


def _pose_parts(vec: np.ndarray):
    """Translation, rotation and rotation derivatives for a 6-vector."""
    rot, derivs = euler_rot_derivatives(vec[3:])
    return vec[:3], rot, derivs


def residuals(
    problem: BaProblem, x: np.ndarray, with_jacobian: bool = True
) -> tuple[np.ndarray, sparse.csr_matrix | None]:
    """Whitened residual stack and (optionally) its sparse Jacobian.

    Per observation the residual is the 6-vector difference between the
    predicted marker-in-camera pose, inverse(keypose * extrinsics) *
    marker, and the detected one: translation difference plus wrapped
    Euler difference, whitened by the observation noise.
    """
    n_obs = len(problem.observations)
    res = np.zeros(6 * n_obs)
    jac = sparse.lil_matrix((6 * n_obs, problem.n_variables)) if with_jacobian else None

    anchor_vec = problem.keyposes[0].pose.to_vector()
    for row, ((kp_index, obs), whitener) in enumerate(
        zip(problem.observations, problem._whiteners)
    ):
        kp_slice = problem.keypose_slice(kp_index)
        kp_vec = anchor_vec if kp_slice is None else x[kp_slice]
        mk_slice = problem.marker_slice(obs.marker_id)
        mk_vec = x[mk_slice]

        t_i, rot_i, drot_i = _pose_parts(kp_vec)
        t_m, rot_m, drot_m = _pose_parts(mk_vec)
        rot_c = obs.cam_extrinsics.rotation()
        t_c = obs.cam_extrinsics.t

        rot_a = rot_i @ rot_c  # camera in frame
        t_a = t_i + rot_i @ t_c
        rot_rel = rot_a.T @ rot_m
        t_rel = rot_a.T @ (t_m - t_a)

        r6 = np.empty(6)
        r6[:3] = t_rel - obs.rel_pose.t
        r6[3:] = wrap_angles(rot_to_euler(rot_rel) - obs.rel_pose.euler)
        rows = slice(6 * row, 6 * row + 6)
        res[rows] = np.linalg.solve(whitener, r6)

        if not with_jacobian:
            continue
        block_m = np.zeros((6, 6))
        block_m[:3, :3] = rot_a.T  # d t_rel / d t_marker
        for k in range(3):
            d_rel = rot_a.T @ drot_m[k]
            block_m[3:, 3 + k] = euler_rate_from_rot_rate(rot_rel, d_rel)
        jac[rows, mk_slice] = np.linalg.solve(whitener, block_m)

        if kp_slice is not None:
            block_k = np.zeros((6, 6))
            block_k[:3, :3] = -rot_a.T  # d t_rel / d t_keypose
            for k in range(3):
                d_rot_a = drot_i[k] @ rot_c
                block_k[:3, 3 + k] = d_rot_a.T @ (t_m - t_a) - rot_a.T @ (drot_i[k] @ t_c)
                block_k[3:, 3 + k] = euler_rate_from_rot_rate(rot_rel, d_rot_a.T @ rot_m)
            jac[rows, kp_slice] = np.linalg.solve(whitener, block_k)

    return res, (jac.tocsr() if with_jacobian else None)


@dataclass(frozen=True)
class BaConfig:
    max_iterations: int = 100
    initial_damping: float = 1e-4
    damping_step: float = 10.0
    max_damping: float = 1e12
    cost_rel_tol: float = 1e-9
    grad_tol: float = 1e-10


@dataclass
class BaResult:
    status: str  # converged | max_iterations | aborted_singular
    iterations: int
    initial_cost: float
    final_cost: float
    damping_trace: list[float]
    cost_trace: list[float]  # accepted costs, strictly decreasing
    keyposes: list[Keypose]
    markers: dict[int, Pose6D]
    message: str = ""

    @property
    def aborted(self) -> bool:
        return self.status == "aborted_singular"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "iterations": int(self.iterations),
            "initial_cost": float(self.initial_cost),
            "final_cost": float(self.final_cost),
            "damping_trace": [float(v) for v in self.damping_trace],
            "cost_trace": [float(v) for v in self.cost_trace],
            "message": self.message,
        }


def _wrap_variable_angles(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    for block in range(len(x) // 6):
        sl = slice(6 * block + 3, 6 * block + 6)
        x[sl] = wrap_angles(x[sl])
    return x


def optimize(problem: BaProblem, config: BaConfig = BaConfig()) -> BaResult:
    """Levenberg-Marquardt on the whitened residuals.

    Terminates on relative cost decrease below cost_rel_tol, gradient
    infinity norm below grad_tol, or max_iterations. A singular damped
    system at maximum damping aborts with the initial variables intact so
    the caller leaves the map untouched.
    """
    x = problem.initial_vector()
    res, jac = residuals(problem, x, with_jacobian=True)
    cost = 0.5 * float(res @ res)
    initial_cost = cost
    damping = config.initial_damping
    damping_trace: list[float] = []
    cost_trace: list[float] = []
    status = "max_iterations"
    message = ""
    iterations = 0
    identity = np.eye(problem.n_variables)

    def result(final_status: str, vec: np.ndarray, final_cost: float) -> BaResult:
        keyposes, markers = problem.unpack(vec)
        return BaResult(
            status=final_status,
            iterations=iterations,
            initial_cost=initial_cost,
            final_cost=final_cost,
            damping_trace=damping_trace,
            cost_trace=cost_trace,
            keyposes=keyposes,
            markers=markers,
            message=message,
        )

    for _ in range(config.max_iterations):
        gradient = jac.T @ res
        if float(np.max(np.abs(gradient))) < config.grad_tol:
            status = "converged"
            message = "gradient below tolerance"
            break
        normal = (jac.T @ jac).toarray()

        accepted = False
        while True:
            try:
                step = np.linalg.solve(normal + damping * identity, -gradient)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                damping *= config.damping_step
                if damping > config.max_damping:
                    message = "singular damped system at maximum damping"
                    return result("aborted_singular", problem.initial_vector(), initial_cost)
                continue
            x_try = _wrap_variable_angles(x + step)
            res_try, _ = residuals(problem, x_try, with_jacobian=False)
            cost_try = 0.5 * float(res_try @ res_try)
            if cost_try < cost:
                accepted = True
                damping = max(damping / config.damping_step, 1e-15)
                break
            damping *= config.damping_step
            if damping > config.max_damping:
                break

        if not accepted:
            # no strictly decreasing step exists at maximum damping
            status = "converged"
            message = "no descent step at maximum damping"
            break

        iterations += 1
        damping_trace.append(damping)
        cost_trace.append(cost_try)
        relative_drop = (cost - cost_try) / max(cost, 1e-300)
        x = x_try
        cost = cost_try
        res, jac = residuals(problem, x, with_jacobian=True)
        if relative_drop < config.cost_rel_tol:
            status = "converged"
            message = "relative cost decrease below tolerance"
            break

    return result(status, x, cost)
