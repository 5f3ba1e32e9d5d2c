"""Pose estimation against an SDF grid.

The residual of a scan point is the bilinear distance F, in metres, at its
transformed location, and the bilinear weight W / w_max is the point's
confidence. The cost of a pose is

    sum over supported points of (W / w_max) * huber(F, delta)

with the Huber scale ``delta``, in metres. A point is supported when it
lies inside the grid interior and all four of its surrounding nodes are
known (W > 0); any other point gives no residual and no cost, the same as a
trimmed point, so the edge of observed space neither pulls nor pushes.
Minimization uses Gauss-Newton with Huber reweighting (IRLS); a second stage
re-runs the optimization after trimming the points whose distance value lies
outside the truncation band, which removes most range outliers.
:func:`match_two_stage` reads the band and ``delta`` (a sixth of the band)
off the grid being matched, with no override; its only settings are the
iteration caps of :class:`MatchConfig`.

A match samples the grid once at each pose it visits. Trimming reads stage
one's sample at its best pose, and stage two starts from the kept points of
that sample: transforming and sampling act point by point, so the subset of
a sample is the sample of the subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose2, normalize_angle, scan_to_points, transform_points
from .mapping import SdfGrid
from . import kernels

_EIG_RATIO_MIN = 1e-10
_DAMPING = 1e-6
_EYE3 = np.eye(3)
_CONVERGENCE_EPS = 1e-6  # relative cost change that ends a stage


class SingularHessian(RuntimeError):
    """The normal matrix is rank-deficient beyond damping (pose unobservable)."""


class TooFewPoints(RuntimeError):
    """Not enough points survived trimming for a reliable pose."""


@dataclass(frozen=True)
class MatchConfig:
    """Iteration caps of the two stages of :func:`match_two_stage`."""

    max_iters_stage1: int = 10
    max_iters_stage2: int = 20

    def __post_init__(self):
        for name in ("max_iters_stage1", "max_iters_stage2"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MatchResult:
    """The best pose a match found and what it took.

    :func:`gauss_newton` sets ``sample``, the grid sample of its points at
    ``pose`` (see :func:`_sample`), for the trim and stage two to reuse; it
    takes no part in comparisons.
    """

    pose: Pose2
    final_cost: float
    iterations_stage1: int
    iterations_stage2: int
    points_used: int
    points_trimmed: int
    converged: bool
    sample: tuple | None = field(default=None, compare=False, repr=False)


def _sample(grid: SdfGrid, world: np.ndarray):
    """Bilinear F, its gradient and the confidence W / w_max at each point.

    A mask over ``kernels.bilinear``. Returns ``(f, gx, gy, conf, known)``.
    ``known`` marks the points inside the interior whose four surrounding
    nodes all have W > 0; the other points, off-grid and non-finite ones
    among them, get zeros everywhere, so they carry no residual and no
    weight. This holds also for a point exactly on a node's column or row:
    the next nodes have zero weight in F there, but the gradient across the
    column or row reads them. The rule is therefore stricter, on purpose,
    than the merge's ``kernels.bicubic_fw``, which needs only a value.
    """
    geom = grid.geometry
    f, gx, gy, w, inside, wn = kernels.bilinear(
        grid.F, grid.W, geom.origin_x, geom.origin_y, geom.resolution, world)
    known = inside & np.all(wn > 0.0, axis=0)
    # An unsupported point may hold NaN or inf until the mask zeroes it.
    f, gx, gy, w = np.where(known, [f, gx, gy, w], 0.0)
    return f, gx, gy, w / grid.w_max, known


def _robust_cost(sample, delta: float):
    """Total robust cost of a sample, with the |F| and inlier mask behind it."""
    f, conf = sample[0], sample[3]
    a = np.abs(f)
    inlier = a <= delta
    total = float(np.sum(conf * np.where(inlier, f * f, delta * (2.0 * a - delta))))
    return total, a, inlier


def cost(grid: SdfGrid, scan_points, pose: Pose2, huber_delta: float):
    """Total robust cost and the per-point residuals F at a pose.

    The residual is NaN for a point without full known support; such a
    point adds nothing to the cost.
    """
    sample = _sample(grid, transform_points(pose, scan_points))
    total, _, _ = _robust_cost(sample, huber_delta)
    return total, np.where(sample[4], sample[0], np.nan)


def _normal_equations(pts: np.ndarray, pose: Pose2, sample, a, inlier, delta: float):
    """The IRLS normal equations H, g at ``pose`` from its sample and cost."""
    f, gx, gy, conf, _ = sample
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    J = np.empty((len(pts), 3))
    J[:, 0] = gx
    J[:, 1] = gy
    # d(world point)/d(theta), chained with the field gradient.
    J[:, 2] = gx * (-s * pts[:, 0] - c * pts[:, 1]) + gy * (c * pts[:, 0] - s * pts[:, 1])

    w = conf * np.where(inlier, 1.0, delta / np.maximum(a, 1e-300))
    Jw = J * w[:, None]
    return J.T @ Jw, Jw.T @ f


def gauss_newton(grid: SdfGrid, scan_points, init: Pose2, max_iters: int,
                 convergence_eps: float, huber_delta: float, *,
                 first=None) -> MatchResult:
    """Minimize the robust SDF cost from ``init``.

    Stops at the iteration cap or when the relative cost change between two
    consecutive iterations falls below ``convergence_eps``. The best iterate
    is tracked, so the returned pose never costs more than ``init``, and the
    result carries its sample. Every setting comes from the caller;
    :func:`match_two_stage` takes the distances from the grid. ``first``,
    when given, is the sample of ``scan_points`` at ``init``, which then is
    not sampled again.
    """
    pts = np.asarray(scan_points, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        raise SingularHessian("no points to match")

    pose = init
    sample = _sample(grid, transform_points(pose, pts)) if first is None else first
    prev_cost, a, inlier = _robust_cost(sample, huber_delta)
    best_pose, best_cost, best_sample = pose, prev_cost, sample
    iters = 0
    converged = False

    for _ in range(max_iters):
        # H and g are built only at a pose the loop steps from.
        H, g = _normal_equations(pts, pose, sample, a, inlier, huber_delta)
        trace = float(np.trace(H))
        if not np.isfinite(trace) or trace <= 0.0:
            raise SingularHessian("zero normal matrix (no supported points)")
        eigs = np.linalg.eigvalsh(H)
        if eigs[-1] <= 0.0 or eigs[0] < _EIG_RATIO_MIN * eigs[-1]:
            raise SingularHessian("normal matrix is rank deficient")
        Hd = H + (_DAMPING * trace) * _EYE3
        try:
            step = np.linalg.solve(Hd, -g)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from None

        pose = Pose2(pose.x + step[0], pose.y + step[1], pose.theta + step[2])
        sample = _sample(grid, transform_points(pose, pts))
        cur_cost, a, inlier = _robust_cost(sample, huber_delta)
        iters += 1
        if cur_cost < best_cost:
            best_pose, best_cost, best_sample = pose, cur_cost, sample
        rel = abs(prev_cost - cur_cost) / max(prev_cost, 1e-300)
        prev_cost = cur_cost
        if rel < convergence_eps:
            converged = True
            break

    return MatchResult(
        pose=best_pose,
        final_cost=best_cost,
        iterations_stage1=iters,
        iterations_stage2=0,
        points_used=len(pts),
        points_trimmed=0,
        converged=converged,
        sample=best_sample,
    )


def trim_points(grid: SdfGrid, pts: np.ndarray, pose: Pose2, threshold: float,
                sample=None):
    """Mask of points kept for the second stage.

    A point survives when it is supported, as :func:`cost` counts it (all
    four surrounding nodes known), and its distance F lies strictly inside
    the threshold band, so every kept point carries a residual. The
    comparison runs at the grid's native float32 grain so that saturated
    cells trim at the truncation distance, :func:`match_two_stage`'s
    threshold. A given ``sample`` of ``pts`` at ``pose`` is read instead of
    sampling again.
    """
    if sample is None:
        sample = _sample(grid, transform_points(pose, pts))
    f, known = sample[0], sample[4]
    return known & (np.abs(f.astype(np.float32)) < np.float32(threshold))


def match_two_stage(grid: SdfGrid, scan, init: Pose2,
                    cfg: MatchConfig = MatchConfig()) -> MatchResult:
    """Full registration: optimize on all points, trim, optimize again.

    Stage one estimates a pose from every valid point. Stage two discards
    the points whose distance value at the stage-one pose lies outside the
    truncation band and re-optimizes on the survivors, which removes the
    influence of range outliers that landed inside the band. Each pose
    visited is sampled once: the trim reads stage one's sample at its best
    pose, and stage two starts from the kept part of it. ``cfg`` sets only
    the iteration caps; both distances come from ``grid``.
    """
    # The trim band is the truncation (6cm, the systematic error class of
    # the supported scanners). The Huber scale is a sixth of it (1cm):
    # well-matched points sit far below it, while points near corners, where
    # a cell's line fit mixes two walls, fall into the linear part of the loss.
    delta = grid.truncation / 6.0
    pts = scan_to_points(scan)
    n_valid = len(pts)

    stage1 = gauss_newton(grid, pts, init, cfg.max_iters_stage1,
                          _CONVERGENCE_EPS, delta)

    keep = trim_points(grid, pts, stage1.pose, grid.truncation, stage1.sample)
    n_keep = int(keep.sum())
    if n_keep < 10:
        raise TooFewPoints(f"only {n_keep} of {n_valid} points survived trimming")

    stage2 = gauss_newton(grid, pts[keep], stage1.pose, cfg.max_iters_stage2,
                          _CONVERGENCE_EPS, delta,
                          first=tuple(a[keep] for a in stage1.sample))
    return MatchResult(
        pose=stage2.pose,
        final_cost=stage2.final_cost,
        iterations_stage1=stage1.iterations_stage1,
        iterations_stage2=stage2.iterations_stage1,
        points_used=n_keep,
        points_trimmed=n_valid - n_keep,
        converged=stage2.converged,
    )


def predict_pose(history, target_time: float) -> Pose2:
    """Constant-velocity extrapolation from recent (timestamp, pose) pairs.

    With one prior pose, returns it unchanged. With two or more, linear and
    angular velocities come from the last two entries.
    """
    if len(history) == 0:
        raise ValueError("need at least one prior pose")
    if len(history) == 1:
        return history[-1][1]
    (t1, p1), (t2, p2) = history[-2], history[-1]
    dt = t2 - t1
    if dt <= 0.0:
        return p2
    tau = (target_time - t2) / dt
    return Pose2(
        p2.x + tau * (p2.x - p1.x),
        p2.y + tau * (p2.y - p1.y),
        p2.theta + tau * normalize_angle(p2.theta - p1.theta),
    )
