"""Independent reference implementations used to check the real ones.

Everything here is deliberately brute force and shares no code with the
package internals, except that the per-track filter references take the
package's process noise matrix and its angle wrap and symmetrize helpers,
the per-platform hand-off builds the package's packet records and takes
its covariance union, the RSU's observations fill the package's batch
record, the per-detection expansion takes the package's
scalar ``eval_error_model``, and the per-platform local tier reuses the
package's cluster enumeration (checked against its own reference
elsewhere) around scalar predict, gating, marginals, update and merge.
The per-target sensing loop builds the package's raw detection records
and the simulation's sensing takes its scenario's pipelines, platform ids
and noise streams.
"""

import itertools
import math
from dataclasses import fields, replace

import numpy as np

from coopfusion import association, global_fusion, local_fusion
from coopfusion.association import (
    SPAWN_GATE_FACTOR,
    AssociationConfig,
    ObservationBatch,
    Track,
    TrackTable,
    _clusters,
    _enumerate_cluster,
)
from scipy.optimize import linear_sum_assignment

from coopfusion.calibration import ErrorSample, MatchResult
from coopfusion.error_models import (
    PREDICTOR_DISTANCE,
    GaussianEstimate,
    ModelError,
    PolarObservation,
    eval_error_model,
)
from coopfusion.geometry import symmetrized, wrap_angle
from coopfusion.global_fusion import PacketError, PlatformPacket, covariance_union
from coopfusion.local_fusion import PROCESS_NOISE, StaleFrameError
from coopfusion.simulator import _gauss_markov, cav_id, cis_id, sensor_pipelines, stream_rng
from coopfusion.tracking import YAW_RATE_EPS, process_noise_matrix


def jpda_oracle(tracks, observations, cfg):
    """Exhaustive joint-event enumeration, no clustering, no shortcuts."""
    n, m = len(tracks), len(observations)
    gated = np.zeros((n, m), dtype=bool)
    density = np.zeros((n, m))
    for i, track in enumerate(tracks):
        pos = track.estimate.mean[:2]
        cov = track.estimate.covariance[:2, :2]
        for j, obs in enumerate(observations):
            s = cov + obs.covariance
            delta = obs.mean - pos
            d2 = float(delta @ np.linalg.inv(s) @ delta)
            if d2 <= cfg.gate_threshold:
                gated[i, j] = True
                density[i, j] = math.exp(-0.5 * d2) / (
                    2 * math.pi * math.sqrt(np.linalg.det(s))
                )
    return jpda_enumeration(gated, density, cfg)


def jpda_enumeration(gated, density, cfg):
    """Marginals from every joint event, given the gates and pair densities.

    Events are visited track by track, each track's miss before its gated
    observations in ascending order.
    """
    n, m = gated.shape
    options = [[-1] + [j for j in range(m) if gated[i, j]] for i in range(n)]
    # Observations inside no gate sit outside the association problem; they
    # would contribute one clutter factor to every event, which cancels.
    gated_observations = int(gated.any(axis=0).sum())
    weights = np.zeros((n, m))
    miss = np.zeros(n)
    total = 0.0
    for event in itertools.product(*options):
        assigned = [j for j in event if j >= 0]
        if len(assigned) != len(set(assigned)):
            continue
        likelihood = cfg.clutter_density ** (gated_observations - len(assigned))
        for i, j in enumerate(event):
            if j < 0:
                likelihood *= 1.0 - cfg.detection_probability
            else:
                likelihood *= cfg.detection_probability * density[i, j]
        total += likelihood
        for i, j in enumerate(event):
            if j < 0:
                miss[i] += likelihood
            else:
                weights[i, j] += likelihood
    if total > 0:
        weights /= total
        miss /= total
    else:
        miss[:] = 1.0
    return weights, miss


def pair_stats_reference(tracks, observations):
    """Squared Mahalanobis distance and Gaussian density, one pair at a time.

    The scalar loop the broadcast gating kernel must reproduce bit for bit:
    a singular innovation covariance (non-finite determinant, determinant
    below 1e-15 of its squared scale, or a non-positive diagonal) leaves the
    pair at infinite distance and zero density.
    """
    n, m = len(tracks), len(observations)
    dist2 = np.full((n, m), np.inf)
    density = np.zeros((n, m))
    for i, track in enumerate(tracks):
        pos = track.estimate.mean[:2]
        pos_cov = track.estimate.covariance[:2, :2]
        for j, obs in enumerate(observations):
            s = pos_cov + obs.covariance
            det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
            scale = max(abs(s[0, 0]) + abs(s[1, 1]), 1e-30)
            if (
                not math.isfinite(det)
                or det < 1e-15 * scale * scale
                or s[0, 0] <= 0.0
                or s[1, 1] <= 0.0
            ):
                continue
            d0 = obs.mean[0] - pos[0]
            d1 = obs.mean[1] - pos[1]
            d2 = max(
                (s[1, 1] * d0 * d0 - 2.0 * s[0, 1] * d0 * d1 + s[0, 0] * d1 * d1) / det, 0.0
            )
            dist2[i, j] = d2
            density[i, j] = math.exp(-0.5 * d2) / (2 * math.pi * math.sqrt(det)) if d2 < 1e3 else 0.0
    return dist2, density


def ctrv_predict_reference(track, cfg):
    """One track's CTRV predict on numpy scalars, one 5x5 product at a time.

    The stacked ``ctrv_predict`` must give every track exactly these bits.
    """
    mean, jac = ctrv_reference(track.mean, cfg.dt)
    cov = jac @ track.covariance @ jac.T + process_noise_matrix(cfg)
    return GaussianEstimate(mean, symmetrized(cov))


def ctrv_reference(state, dt):
    """One state's CTRV motion and its 5x5 Jacobian, on numpy scalars."""
    x, y, v, psi, psi_dot = state
    psi_next = psi + psi_dot * dt
    jac = np.eye(5)
    jac[3, 4] = dt
    if abs(psi_dot) >= YAW_RATE_EPS:
        ratio = v / psi_dot
        x_next = x + ratio * (math.sin(psi_next) - math.sin(psi))
        y_next = y + ratio * (math.cos(psi) - math.cos(psi_next))
        sin_d = math.sin(psi_next) - math.sin(psi)
        cos_d = math.cos(psi) - math.cos(psi_next)
        inv = 1.0 / psi_dot
        jac[0, 2] = inv * sin_d
        jac[0, 3] = v * inv * (math.cos(psi_next) - math.cos(psi))
        jac[0, 4] = v * dt * inv * math.cos(psi_next) - v * inv * inv * sin_d
        jac[1, 2] = inv * cos_d
        jac[1, 3] = v * inv * sin_d
        jac[1, 4] = v * dt * inv * math.sin(psi_next) - v * inv * inv * cos_d
    else:
        x_next = x + v * math.cos(psi) * dt
        y_next = y + v * math.sin(psi) * dt
        cos_p = math.cos(psi)
        sin_p = math.sin(psi)
        jac[0, 2] = cos_p * dt
        jac[0, 3] = -v * sin_p * dt
        jac[0, 4] = -0.5 * v * sin_p * dt * dt
        jac[1, 2] = sin_p * dt
        jac[1, 3] = v * cos_p * dt
        jac[1, 4] = 0.5 * v * cos_p * dt * dt
    return np.array([x_next, y_next, v, wrap_angle(psi_next), psi_dot]), jac


def ekf_update_reference(track, z):
    """One track's position update from one observation, on numpy scalars.

    A singular or non-finite innovation covariance leaves the track as it
    is (the same object).  The stacked ``ekf_update`` must give every track
    exactly these bits.
    """
    state = track.mean
    cov = track.covariance
    innovation_cov = cov[:2, :2] + z.covariance
    det = (
        innovation_cov[0, 0] * innovation_cov[1, 1]
        - innovation_cov[0, 1] * innovation_cov[1, 0]
    )
    scale = max(abs(innovation_cov[0, 0]) + abs(innovation_cov[1, 1]), 1e-30)
    if not math.isfinite(det) or abs(det) < 1e-15 * scale * scale:
        return track
    inv = (
        np.array(
            [
                [innovation_cov[1, 1], -innovation_cov[0, 1]],
                [-innovation_cov[1, 0], innovation_cov[0, 0]],
            ]
        )
        / det
    )
    gain = cov[:, :2] @ inv
    updated = state + gain @ (z.mean - state[:2])
    updated[3] = wrap_angle(updated[3])
    identity_minus_gain = np.eye(5)
    identity_minus_gain[:, :2] -= gain
    cov_new = identity_minus_gain @ cov @ identity_minus_gain.T + gain @ z.covariance @ gain.T
    return GaussianEstimate(updated, symmetrized(cov_new))


def inverse_2x2_reference(s00, s01, s10, s11):
    """Row-major inverse of one 2x2 innovation covariance on Python floats, or
    None where it is singular: a determinant that is not finite or is below
    1e-15 of the squared scale."""
    det = s00 * s11 - s01 * s10
    scale = max(abs(s00) + abs(s11), 1e-30)
    if not math.isfinite(det) or abs(det) < 1e-15 * scale * scale:
        return None
    return s11 / det, -s01 / det, -s10 / det, s00 / det


def folded_reference(zs):
    """The one position measurement equivalent to several, fused in order.

    Each next observation joins the running one by a 2x2 Kalman step on
    Python floats; one whose sum with the running fold is singular is
    skipped.  The array fold of ``multi_update`` must give these bits.
    """
    mx, my = zs[0].mean.tolist()
    (r00, r01), (r10, r11) = zs[0].covariance.tolist()
    for z in zs[1:]:
        zx, zy = z.mean.tolist()
        (q00, q01), (q10, q11) = z.covariance.tolist()
        inverse = inverse_2x2_reference(r00 + q00, r01 + q01, r10 + q10, r11 + q11)
        if inverse is None:
            continue
        i00, i01, i10, i11 = inverse
        g00, g01 = r00 * i00 + r01 * i10, r00 * i01 + r01 * i11
        g10, g11 = r10 * i00 + r11 * i10, r10 * i01 + r11 * i11
        dx, dy = zx - mx, zy - my
        mx, my = mx + (g00 * dx + g01 * dy), my + (g10 * dx + g11 * dy)
        r00, r01, r10, r11 = (
            r00 - (g00 * r00 + g01 * r10),
            r01 - (g00 * r01 + g01 * r11),
            r10 - (g10 * r00 + g11 * r10),
            r11 - (g10 * r01 + g11 * r11),
        )
        r01 = r10 = 0.5 * (r01 + r10)
    return GaussianEstimate(np.array([mx, my]), np.array([[r00, r01], [r10, r11]]))


def multi_update_reference(estimates, observations):
    """One update per track from its list of observations, track by track.

    A track's observations are sorted by source tag and folded
    (``folded_reference``; a single one is used as it is) into one
    ``ekf_update_reference``.  A track with none keeps its estimate (the
    same object).  The array ``multi_update`` must give these bits.
    """
    return [
        estimate
        if not zs
        else ekf_update_reference(
            estimate, zs[0] if len(zs) == 1 else folded_reference(sorted(zs, key=lambda z: z.source))
        )
        for estimate, zs in zip(estimates, observations)
    ]


def sequential_update_reference(track, zs):
    """One EKF update per observation, in source order.

    The loop the folded ``multi_update`` must agree with: an update that
    fails numerically is skipped and the remaining ones still apply.
    """
    current = track
    for z in sorted(zs, key=lambda z: z.source):
        current = ekf_update_reference(current, z)
    return current


def assignment_oracle(observations, truth, max_dist):
    """Best assignment by brute force: most pairs, then least total distance."""
    n, m = len(observations), len(truth)
    best = (0, 0.0, [])
    indices = list(range(m))
    for k in range(min(n, m), -1, -1):
        for obs_subset in itertools.combinations(range(n), k):
            for perm in itertools.permutations(indices, k):
                dists = [
                    float(np.hypot(*(np.asarray(observations[i]) - np.asarray(truth[j]))))
                    for i, j in zip(obs_subset, perm)
                ]
                if any(d > max_dist for d in dists):
                    continue
                cand = (k, -sum(dists), list(zip(obs_subset, perm)))
                if cand[:2] > best[:2]:
                    best = cand
        if best[0] == k and k > 0:
            break
    return sorted(best[2])


def match_observations_to_truth_reference(observations, truth, max_dist=0.5):
    """The matcher with its cost built pair by pair from scalar ``np.hypot``
    calls; the rest is the package's matcher as it stands."""
    n, m = len(observations), len(truth)
    unmatchable = 1e9
    pairs = []
    if n and m:
        cost = np.full((n, m), unmatchable)
        for i, obs in enumerate(observations):
            for j, tru in enumerate(truth):
                dist = float(np.hypot(obs[0] - tru[0], obs[1] - tru[1]))
                if dist <= max_dist:
                    cost[i, j] = dist
        rows, cols = linear_sum_assignment(cost)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if cost[i, j] < unmatchable]
    distal_samples = []
    perpendicular_samples = []
    for i, j in pairs:
        obs = np.asarray(observations[i], dtype=float)
        tru = np.asarray(truth[j], dtype=float)
        measured_distance = float(np.hypot(obs[0], obs[1]))
        norm = float(np.hypot(tru[0], tru[1]))
        ray = tru / norm if norm > 0 else np.array([1.0, 0.0])
        delta = obs - tru
        distal_samples.append(ErrorSample(measured_distance, float(delta @ ray)))
        perpendicular_samples.append(
            ErrorSample(measured_distance, float(delta[0] * -ray[1] + delta[1] * ray[0]))
        )
    matched_obs = {i for i, _ in pairs}
    matched_truth = {j for _, j in pairs}
    return MatchResult(
        pairs=pairs,
        distal_samples=distal_samples,
        perpendicular_samples=perpendicular_samples,
        unmatched_observations=[i for i in range(n) if i not in matched_obs],
        unmatched_truth=[j for j in range(m) if j not in matched_truth],
    )


def synth_sensor_frame_reference(
    pipeline,
    platform_pose,
    targets,
    rng,
    miss_probability=0.0,
    clutter_rate=0.0,
    error_states=None,
    rho=0.0,
    events=None,
):
    """One sensor tick target by target: noise along and across the true
    ray from the truth models at the true distance, a Gauss-Markov error per
    target index kept in the ``error_states`` dict, then clutter.  When
    given, ``events`` counts in "missed_with_state" the targets in view that
    a miss skips while they hold a state."""
    mount = pipeline.pose
    heading = math.cos(platform_pose.theta), math.sin(platform_pose.theta)
    sensor_x = platform_pose.x + mount.x_sensor * heading[0] - mount.y_sensor * heading[1]
    sensor_y = platform_pose.y + mount.x_sensor * heading[1] + mount.y_sensor * heading[0]
    sensor_heading = platform_pose.theta + mount.theta_sensor
    states = {} if error_states is None else error_states
    observations = []
    for target_idx, target in enumerate(targets):
        rel_x = float(target[0]) - sensor_x
        rel_y = float(target[1]) - sensor_y
        dist = math.hypot(rel_x, rel_y)
        if dist > pipeline.max_range:
            continue
        bearing = float(wrap_angle(math.atan2(rel_y, rel_x) - sensor_heading))
        if abs(bearing) > 0.5 * pipeline.fov:
            continue
        if miss_probability > 0.0 and rng.random() < miss_probability:
            if events is not None and target_idx in states:
                events["missed_with_state"] = events.get("missed_with_state", 0) + 1
            continue
        sigma_distal = eval_error_model(pipeline.distal_model, dist)
        sigma_perp = eval_error_model(pipeline.perp_model, dist)
        prev_distal, prev_perp = states.get(target_idx, (None, None))
        eps_distal = _gauss_markov(prev_distal, sigma_distal, rho, rng)
        eps_perp = _gauss_markov(prev_perp, sigma_perp, rho, rng)
        states[target_idx] = ((eps_distal, sigma_distal), (eps_perp, sigma_perp))
        cos_b = math.cos(bearing)
        sin_b = math.sin(bearing)
        px = (dist + eps_distal) * cos_b - eps_perp * sin_b
        py = (dist + eps_distal) * sin_b + eps_perp * cos_b
        observations.append(PolarObservation(math.hypot(px, py), math.atan2(py, px), "vehicle"))
    if clutter_rate > 0.0:
        for _ in range(rng.poisson(clutter_rate)):
            dist = pipeline.max_range * math.sqrt(rng.random())
            bearing = (rng.random() - 0.5) * pipeline.fov
            observations.append(PolarObservation(dist, bearing, "other"))
    return observations


class SimulationSensingReference:
    """A scenario's sensing stream by stream: each platform's pipelines (the
    CAVs, then the CIS) run the per-target loop on their own noise stream,
    a CAV over every other CAV and a CIS over every CAV.

    ``events`` counts "missed_with_state" (see
    ``synth_sensor_frame_reference``) and "resumed": targets drawn with a
    state kept over at least one tick in which they were not drawn.
    """

    def __init__(self, config):
        self.config = config
        self.rho = (
            math.exp(-(1.0 / config.tick_rate) / config.sensing_correlation_time)
            if config.sensing_correlation_time > 0.0
            else 0.0
        )
        ids = [("cav", cav_id(i)) for i in range(config.cav_count)]
        ids += [("cis", cis_id(i)) for i in range(config.cis_count)]
        self.streams = [
            (i, f"{pid}/{pipeline.name}", pipeline)
            for i, (kind, pid) in enumerate(ids)
            for pipeline in sensor_pipelines(config, kind, config.truth_models)
        ]
        self.rngs = {name: stream_rng(config.seed, name) for _, name, _ in self.streams}
        self.states = {name: {} for _, name, _ in self.streams}
        self.last_drawn = {}
        self.events = {"missed_with_state": 0, "resumed": 0}
        self.tick = 0

    def frames(self, cav_poses, cis_poses):
        """Each stream's detections for the next tick, in stream order."""
        positions = [pose.position for pose in cav_poses]
        platforms = list(cav_poses) + list(cis_poses)
        out = []
        for i, name, pipeline in self.streams:
            targets = [p for j, p in enumerate(positions) if j != i]
            states = self.states[name]
            before = {idx: state for idx, state in states.items()}
            out.append(
                synth_sensor_frame_reference(
                    pipeline,
                    platforms[i],
                    targets,
                    self.rngs[name],
                    self.config.miss_probability,
                    self.config.clutter_rate,
                    states,
                    self.rho,
                    self.events,
                )
            )
            for idx, state in states.items():
                if before.get(idx) is not state:
                    if idx in before and self.last_drawn[name, idx] < self.tick - 1:
                        self.events["resumed"] += 1
                    self.last_drawn[name, idx] = self.tick
        self.tick += 1
        return out


def observation_estimate(obs, pose, distal, perp, source=""):
    """Platform-frame Gaussian for one detection, one 2x2 product at a time.

    The per-detection expansion the array ``observation_estimates`` must
    reproduce bit for bit: the ray's bearing is the sensor heading plus the
    measured bearing, wrapped, and the mean lies along it from the sensor.
    """
    if distal.predictor != PREDICTOR_DISTANCE or perp.predictor != PREDICTOR_DISTANCE:
        raise ModelError("observation models must use the distance predictor")
    phi_obs = float(wrap_angle(pose.theta_sensor + obs.theta_obs))
    c = math.cos(phi_obs)
    s = math.sin(phi_obs)
    position = (pose.x_sensor + obs.distance_obs * c, pose.y_sensor + obs.distance_obs * s)
    sigma_distal = eval_error_model(distal, obs.distance_obs)
    sigma_perp = eval_error_model(perp, obs.distance_obs)
    rot = np.array([[c, -s], [s, c]])
    cov = symmetrized(rot @ np.diag([sigma_distal * sigma_distal, sigma_perp * sigma_perp]) @ rot.T)
    return GaussianEstimate(np.array(position), cov, source=source, object_class=obs.object_class)


def rotation(angle):
    """Counterclockwise rotation matrix of one heading."""
    c = np.cos(angle)
    s = np.sin(angle)
    return np.array([[c, -s], [s, c]])


def track_to_world(estimate, pose):
    """Rigid transform of one platform-frame track position into the world frame."""
    return pose.position + rotation(pose.theta) @ estimate.mean[:2]


def covariance_to_world(covariance, theta):
    """The 2x2 position block of one 5x5 track covariance, rotated by a heading."""
    block = np.asarray(covariance)[:2, :2]
    rot = rotation(theta)
    return symmetrized(rot @ block @ rot.T)


def read_only(values, shape):
    """A new read-only float array of ``values`` in ``shape``, as packets hold."""
    array = np.array(values, dtype=float).reshape(shape)
    array.setflags(write=False)
    return array


def packetize_reference(platform_id, timestamp, pose, local_tracks, pose_covariance):
    """One platform's packet, one track and one 2x2 product at a time.

    The per-platform hand-off the batched ``packetize`` must reproduce bit
    for bit.
    """
    pose_cov = np.asarray(pose_covariance, dtype=float)
    means, covariances = [], []
    for track in local_tracks:
        means.append(track_to_world(track.estimate, pose))
        world_cov = covariance_to_world(track.estimate.covariance, pose.theta)
        covariances.append(covariance_union(pose_cov, world_cov))
    return PlatformPacket(
        platform_id=platform_id,
        timestamp=timestamp,
        pose=pose,
        pose_covariance=read_only(pose_cov, (2, 2)),
        track_ids=tuple(str(track.id) for track in local_tracks),
        classes=tuple(track.object_class for track in local_tracks),
        means=read_only(means, (-1, 2)),
        covariances=read_only(covariances, (-1, 2, 2)),
    )


def packet_bits(packet):
    """Every field of a packet, with each array as its dtype, shape and bytes:
    equal for two packets exactly when they hold the same bits."""
    return [
        (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in (getattr(packet, field.name) for field in fields(packet))
    ]


def rsu_batch_reference(packets):
    """The RSU's observations of one tick, built one packet and one track at a
    time on tuples: each packet's tracks, then its pose, as one run."""
    means, covariances, runs, classes = [], [], [], []
    for packet in packets:
        for mean, cov, object_class in zip(
            packet.means.tolist(), packet.covariances.tolist(), packet.classes
        ):
            means.append(tuple(mean))
            covariances.append(tuple(map(tuple, cov)))
            classes.append(object_class)
        means.append((packet.pose.x, packet.pose.y))
        covariances.append(tuple(map(tuple, packet.pose_covariance.tolist())))
        classes.append("platform")
        runs.append((0, packet.platform_id, len(packet.track_ids) + 1))
    return ObservationBatch(
        np.array(means, dtype=float).reshape(-1, 2),
        symmetrized(np.array(covariances, dtype=float).reshape(-1, 2, 2)),
        tuple(runs),
        classes,
    )


def runs_of(keys):
    """An observation batch's runs from each observation's (group, source)."""
    return tuple((g, source, len(list(run))) for (g, source), run in itertools.groupby(keys))


def min_eig_2x2(m):
    """Smallest eigenvalue of a symmetric 2x2 matrix, in closed form."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    return 0.5 * (tr - np.sqrt(disc))


def check_packet_reference(packet):
    """``check_packet`` one number and one covariance at a time."""
    pose = packet.pose
    covariances = [packet.pose_covariance, *packet.covariances]
    values = [packet.timestamp, pose.x, pose.y, pose.theta, pose.v, *packet.means.ravel()]
    for cov in covariances:
        values.extend(cov.ravel())
    if not all(math.isfinite(v) for v in values):
        raise PacketError("packet contains non-finite numbers")
    for cov in covariances:
        if abs(cov[0][1] - cov[1][0]) > 1e-9:
            raise PacketError("packet covariance is not symmetric")
        if min_eig_2x2(symmetrized(np.array(cov, dtype=float))) < -1e-12:
            raise PacketError("packet covariance is not positive semi-definite")


def jpda_weights_reference(tracks, observations, cfg):
    """One source's JPDA marginals, pair by pair: gating by
    ``pair_stats_reference``, then every cluster, one track or more,
    enumerated by the package's ``_enumerate_cluster``.

    Returns the weights (n, m), the miss probabilities (n,) and the gate
    matrix; ``jpda_weights`` must give the same bits.
    """
    dist2, density = pair_stats_reference(tracks, observations)
    feasible = dist2 <= cfg.gate_threshold
    gated = {}
    for i in range(len(tracks)):
        for j in range(len(observations)):
            if feasible[i, j]:
                gated.setdefault(i, []).append((j, float(density[i, j])))
    weights = np.zeros((len(tracks), len(observations)))
    miss = np.ones(len(tracks))
    for track_ids, obs_ids in _clusters(gated):
        for i, marginals in _enumerate_cluster(track_ids, obs_ids, gated, cfg).items():
            for j, probability in marginals.items():
                if j >= 0:
                    weights[i, j] = probability
                else:
                    miss[i] = probability
    return weights, miss, feasible


def merge_coincident_reference(tracks, threshold):
    """One group's coincident-track merge, one pair at a time on Python floats.

    Tracks rank by frames seen (most first), then id; each track not yet
    absorbed absorbs every later-ranked one not yet absorbed whose squared
    Mahalanobis distance to it is within ``threshold``, taking the larger
    ``frames_seen``, the smaller ``frames_missed`` and either's
    confirmation.  Returns the tracks that stay, in input order.
    """
    order = sorted(range(len(tracks)), key=lambda i: (-tracks[i].frames_seen, tracks[i].id))
    blocks = [
        (*t.estimate.mean[:2].tolist(), *t.estimate.covariance[:2, :2].ravel().tolist())
        for t in tracks
    ]
    absorbed = set()
    for rank, i in enumerate(order):
        if i in absorbed:
            continue
        keeper = tracks[i]
        kx, ky, k00, k01, k10, k11 = blocks[i]
        for j in order[rank + 1 :]:
            if j in absorbed:
                continue
            ox, oy, o00, o01, o10, o11 = blocks[j]
            dx, dy = ox - kx, oy - ky
            c00, c01, c10, c11 = k00 + o00, k01 + o01, k10 + o10, k11 + o11
            det = c00 * c11 - c01 * c10
            quadratic = c11 * dx * dx - 2.0 * c01 * dx * dy + c00 * dy * dy
            d2 = math.inf if det <= 0 else quadratic / det
            if not d2 <= threshold:
                continue
            other = tracks[j]
            absorbed.add(j)
            keeper.frames_seen = max(keeper.frames_seen, other.frames_seen)
            keeper.frames_missed = min(keeper.frames_missed, other.frames_missed)
            keeper.confirmed = keeper.confirmed or other.confirmed
    return [t for idx, t in enumerate(tracks) if idx not in absorbed]


def spawned_estimate(obs):
    """A new track's estimate from one observation: its position and position
    covariance, with speed, heading and yaw rate at zero with variances 1,
    pi^2 and 1."""
    cov = np.zeros((5, 5))
    cov[:2, :2] = obs.covariance
    cov[2, 2] = 1.0
    cov[3, 3] = math.pi**2
    cov[4, 4] = 1.0
    mean = np.zeros(5)
    mean[:2] = obs.mean
    return GaussianEstimate(mean, cov)


def associate_frame_reference(tracks, observations_by_source, cfg, next_id, events=None):
    """One platform's association frame, source by source, gated one pair at a
    time by ``pair_stats_reference``.

    The per-platform loop the batched ``associate_frame`` must reproduce for
    every group.  ``events``, when given, is a dict whose "spawned",
    "merged" and "deleted" counts this frame adds to, and "fused", the
    tracks that folded observations of more than one source.
    """
    accepted = [[] for _ in tracks]
    unassociated = []
    for source in sorted(observations_by_source):
        observations = list(observations_by_source[source])
        weights, _, feasible = jpda_weights_reference(tracks, observations, cfg)
        for i, j in zip(*np.nonzero(weights > cfg.weight_floor)):
            obs = observations[j]
            accepted[i].append(
                GaussianEstimate(obs.mean, obs.covariance / weights[i, j], source=obs.source)
            )
        unassociated.extend(
            obs for j, obs in enumerate(observations) if not feasible[:, j].any()
        )

    updated = multi_update_reference([t.estimate for t in tracks], accepted)
    for track, estimate, zs in zip(tracks, updated, accepted):
        track.estimate = estimate
        if zs:
            track.frames_seen += 1
            track.frames_missed = 0
        else:
            track.frames_missed += 1
        if track.frames_seen >= cfg.confirm_threshold:
            track.confirmed = True
    survivors = [
        t
        for t in tracks
        if t.frames_missed < cfg.delete_threshold
        and np.trace(t.estimate.covariance[:2, :2]) <= cfg.max_position_variance
    ]
    merged = merge_coincident_reference(survivors, cfg.gate_threshold)

    spawned = []
    for obs in unassociated:
        candidates = merged + spawned
        dist2, _ = pair_stats_reference(candidates, [obs])
        if (dist2[:, 0] <= SPAWN_GATE_FACTOR * cfg.gate_threshold).any():
            continue
        spawned.append(
            Track(
                id=next_id(),
                estimate=spawned_estimate(obs),
                confirmed=cfg.confirm_threshold <= 1,
                object_class=obs.object_class,
            )
        )
    if events is not None:
        events["fused"] += sum(len({z.source for z in zs}) > 1 for zs in accepted)
        events["deleted"] += len(tracks) - len(survivors)
        events["merged"] += len(survivors) - len(merged)
        events["spawned"] += len(spawned)
    return merged + spawned


class PlatformFusionReference:
    """One platform's local tier, stepped on its own as before the batch.

    Detections expand one at a time (``observation_estimate``), the
    platform's tracks predict one at a time (``ctrv_predict_reference``)
    and associate by ``associate_frame_reference``.
    """

    def __init__(self, pipelines, dt):
        self.pipelines = {p.name: p for p in pipelines}
        self.association = AssociationConfig()
        self.noise = replace(PROCESS_NOISE, dt=dt)
        self.tracks = []
        self._ids = itertools.count()
        self._last_timestamp = -math.inf
        self.events = {"spawned": 0, "merged": 0, "deleted": 0, "fused": 0}

    def step(self, frame):
        if not self._last_timestamp < frame.timestamp < math.inf:
            raise StaleFrameError(f"frame at t={frame.timestamp} is stale")
        self._last_timestamp = frame.timestamp
        by_pipeline = {
            name: [
                observation_estimate(
                    obs, pipeline.pose, pipeline.distal_model, pipeline.perp_model, source=name
                )
                for obs in frame.observations.get(name, [])
            ]
            for name, pipeline in self.pipelines.items()
        }
        for track in self.tracks:
            track.estimate = ctrv_predict_reference(track.estimate, self.noise)
        self.tracks = associate_frame_reference(
            self.tracks, by_pipeline, self.association, lambda: next(self._ids), self.events
        )


def ingest_reference(fusion, packets):
    """``GlobalFusion.ingest`` one packet at a time, each checked alone by
    ``check_packet_reference``: an invalid or late packet is counted and
    dropped, and a second packet of a platform counts as a duplicate and
    replaces the held one unless it is older."""
    for packet in packets:
        try:
            with np.errstate(all="ignore"):
                check_packet_reference(packet)
        except PacketError:
            fusion.invalid_packets += 1
            continue
        if packet.timestamp < fusion._current_time - fusion.noise.dt:
            fusion.late_packets += 1
            continue
        held = fusion._inbox.get(packet.platform_id)
        if held is not None:
            fusion.duplicate_packets += 1
            if packet.timestamp < held.timestamp:
                continue
        fusion._inbox[packet.platform_id] = packet


def table_of(groups):
    """Every track of every group (lists of ``Track``) stacked into a
    ``TrackTable``, as a tier holds them."""
    tracks = [t for group in groups for t in group]
    return TrackTable(
        [len(group) for group in groups],
        [t.id for t in tracks],
        [t.object_class for t in tracks],
        np.array([t.estimate.mean for t in tracks], dtype=float).reshape(-1, 5),
        np.array([t.estimate.covariance for t in tracks], dtype=float).reshape(-1, 5, 5),
        np.array([t.frames_seen for t in tracks], dtype=np.intp),
        np.array([t.frames_missed for t in tracks], dtype=np.intp),
        np.array([t.confirmed for t in tracks], dtype=bool),
    )


def tracks_of(table):
    """Each group of a ``TrackTable`` as a list of ``Track`` records that
    hold copies of its rows."""
    tracks = [
        Track(tid, GaussianEstimate(mean.copy(), cov.copy()), seen, missed, confirmed, object_class)
        for tid, object_class, mean, cov, seen, missed, confirmed in zip(
            table.ids,
            table.classes,
            table.means,
            table.covariances,
            table.frames_seen.tolist(),
            table.frames_missed.tolist(),
            table.confirmed.tolist(),
        )
    ]
    bounds = list(itertools.accumulate(table.counts, initial=0))
    return [tracks[start:stop] for start, stop in zip(bounds, bounds[1:])]


def table_bits(table):
    """Every field of a ``TrackTable``, with each array as its dtype, shape and
    bytes: equal for two tables exactly when they hold the same bits."""
    return [
        (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in table
    ]


# Every plan cache of the package.
PLAN_CACHES = (
    association._row_groups,
    association._frame_plan,
    association._merge_plan,
    association._spawn_plan,
    local_fusion._detection_plan,
    global_fusion._pose_plan,
)


def clear_plans():
    for cache in PLAN_CACHES:
        cache.cache_clear()
