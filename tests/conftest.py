"""Shared builders for desk-size test universes."""

import json
import struct

import numpy as np
import pytest

from mobicomp.environment import Environment, Extents, RewardScheme
from mobicomp.qos import QosParams
from mobicomp.trajectories import (
    DistanceMode,
    MovingService,
    Trajectory,
    TrajectoryPoint,
    UserTrajectory,
)


def traj(samples):
    """Trajectory from (t, x, y) triples."""
    return Trajectory(tuple(TrajectoryPoint(t=t, x=float(x), y=float(y)) for t, x, y in samples))


def line_user(n_steps, user_id="user:u0", step_x=10.0, y=0.0):
    """User walking the x axis: samples at t = 1..n_steps."""
    return UserTrajectory(
        id=user_id, trajectory=traj([(t, step_x * t, y) for t in range(1, n_steps + 1)])
    )


def service_tracking(user, sid, t_start, t_end, offset_y=0.0, bandwidth=4e6, k=2):
    """Service co-located with the user (plus a lateral offset) on [t_start, t_end]."""
    pts = [
        (int(p.t), p.x, p.y + offset_y)
        for p in user.trajectory.points
        if t_start <= p.t <= t_end
    ]
    return MovingService(
        id=sid,
        trajectory=traj(pts),
        bandwidth_b=bandwidth,
        max_concurrent_k=k,
    )


def random_universe(rng, n_services, n_steps, area=100.0, r_s=15.0):
    """Random walks for one user and n_services services on a shared grid."""
    def walk():
        pos = rng.uniform(0, area, size=2)
        pts = []
        for t in range(1, n_steps + 1):
            pts.append((t, pos[0], pos[1]))
            pos = np.clip(pos + rng.normal(0, 3.0, size=2), 0, area)
        return traj(pts)

    user = UserTrajectory(id="user:rnd", trajectory=walk())
    services = [
        MovingService(
            id=f"s{i:03d}",
            trajectory=walk(),
            bandwidth_b=float(rng.uniform(1e6, 9e6)),
            max_concurrent_k=int(rng.integers(1, 4)),
        )
        for i in range(n_services)
    ]
    return services, user


def policy_file(
    payload: bytes | None = None,
    version: int = 2,
    header: bytes | None = None,
    hidden_layers: tuple[int, ...] = (4,),
    **extents: float,
) -> bytes:
    """A policy model file laid out as ``agent.save_model`` writes one. Unless
    ``header`` gives the raw bytes, the header holds the action ids ``a`` and
    dummy, ``hidden_layers`` and extents 0.0 but for those given. ``payload``
    defaults to zero layers of the widths that header gives (3 inputs, the
    hidden layers, 2 outputs)."""
    if header is None:
        zero = dict.fromkeys(["t_min", "t_max", "x_min", "x_max", "y_min", "y_max"], 0.0)
        header = json.dumps(
            {
                "action_ids": ["a", "__dummy__"],
                "extents": {**zero, **extents},
                "hidden_layers": list(hidden_layers),
            },
            sort_keys=True,
        ).encode()
    if payload is None:
        widths = (3, *hidden_layers, 2)
        payload = bytes(8 * sum((a + 1) * b for a, b in zip(widths, widths[1:])))
    return b"".join([b"MPOL", struct.pack("<II", version, len(header)), header, payload])


def wrapping_policy_file() -> bytes:
    """A policy file whose two hidden layers are 2**32 - 1 wide, with 64 bytes
    of layers: the second layer's (2**32 - 1)**2 weights take more bytes than
    int64 holds."""
    return policy_file(bytes(64), hidden_layers=(2**32 - 1, 2**32 - 1))


def make_env(services, users, qos=None, w=2, rewards=None):
    qos = qos or QosParams.defaults_for(20.0)
    return Environment(
        services=services,
        qos_params=qos,
        w=w,
        mode=DistanceMode.PLANAR_EUCLIDEAN,
        extents=Extents.from_universe(services, users),
        rewards=rewards or RewardScheme(),
    )


@pytest.fixture
def qos_default():
    return QosParams.defaults_for(20.0)
