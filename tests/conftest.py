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


def policy_file(net_blob: bytes) -> bytes:
    """A policy model file holding ``net_blob``, laid out as
    ``agent.save_model`` writes one, with a valid header."""
    header = json.dumps(
        {"action_ids": ["a", "__dummy__"], "extents": dict.fromkeys(
            ["t_min", "t_max", "x_min", "x_max", "y_min", "y_max"], 0.0)},
        sort_keys=True,
    ).encode()
    return b"".join([
        b"MPOL", struct.pack("<I", 1), struct.pack("<I", len(header)), header,
        struct.pack("<I", len(net_blob)), net_blob,
    ])


def wrapping_network_blob() -> bytes:
    """A network checkpoint whose widths are all 2**32 - 1, with a first layer
    of that shape and 64 bytes after it: the layer's (2**32 - 1)**2 weights
    wrap around in int64."""
    wide = 2**32 - 1
    head = struct.pack("<4sIIIIIdQBQ", b"MNET", 1, wide, 1, wide, wide, 0.0, 0, 1, 0)
    return head + struct.pack("<II", wide, wide) + bytes(64)


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
