"""Static 3D world model: bounds, box obstacles, ground terminals, and
line-of-sight occlusion queries.

All geometry lives in a local east-north-up frame with meters as the unit.
Obstacles are axis-aligned boxes; a link is occluded when the open segment
between its endpoints crosses a box interior, so endpoints sitting exactly
on a face (antennas mounted on a wall) still see outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Position3:
    """A point in the local ENU frame, z >= 0."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("position coordinates must be finite")
            object.__setattr__(self, name, v)
        if self.z < 0:
            raise ValueError("z must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Position3":
        return Position3(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class ObstacleBox:
    """Axis-aligned box given by its min and max corners (strict in every axis)."""

    lo: Position3
    hi: Position3

    def __post_init__(self):
        if not (self.hi.x > self.lo.x and self.hi.y > self.lo.y and self.hi.z > self.lo.z):
            raise ValueError("box max corner must exceed min corner in every axis")

    def contains(self, p: Position3, strict: bool = True) -> bool:
        lo, hi = self.lo, self.hi
        if strict:
            return lo.x < p.x < hi.x and lo.y < p.y < hi.y and lo.z < p.z < hi.z
        return lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y and lo.z <= p.z <= hi.z

    def footprint_contains(self, x: float, y: float) -> bool:
        return self.lo.x < x < self.hi.x and self.lo.y < y < self.hi.y


@dataclass(frozen=True)
class SceneNode:
    """A named static ground node."""

    id: str
    pos: Position3


@dataclass(frozen=True)
class Scene:
    """Immutable world: bounds, obstacles and the three ground node groups."""

    bounds: ObstacleBox
    obstacles: tuple = ()
    ground_sources: tuple = ()
    ground_destinations: tuple = ()
    sensitive_nodes: tuple = ()
    _obs_lo: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _obs_hi: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        ids = [n.id for n in self.all_nodes()]
        if len(ids) != len(set(ids)):
            raise ValueError("node ids must be unique across all groups")
        for box in self.obstacles:
            if not (self.bounds.contains(box.lo, strict=False) and self.bounds.contains(box.hi, strict=False)):
                raise ValueError("obstacle outside scene bounds")
        for node in self.all_nodes():
            if not self.bounds.contains(node.pos, strict=False):
                raise ValueError(f"node {node.id} outside scene bounds")
            for box in self.obstacles:
                if box.contains(node.pos, strict=True):
                    raise ValueError(f"node {node.id} inside an obstacle")
        if self.obstacles:
            lo = np.array([[b.lo.x, b.lo.y, b.lo.z] for b in self.obstacles])
            hi = np.array([[b.hi.x, b.hi.y, b.hi.z] for b in self.obstacles])
        else:
            lo = np.zeros((0, 3))
            hi = np.zeros((0, 3))
        object.__setattr__(self, "_obs_lo", lo)
        object.__setattr__(self, "_obs_hi", hi)

    def all_nodes(self):
        return tuple(self.ground_sources) + tuple(self.ground_destinations) + tuple(self.sensitive_nodes)

    def to_json_dict(self) -> dict:
        def box(b):
            return {"min": [b.lo.x, b.lo.y, b.lo.z], "max": [b.hi.x, b.hi.y, b.hi.z]}

        nodes = []
        for role, group in (
            ("source", self.ground_sources),
            ("destination", self.ground_destinations),
            ("sensitive", self.sensitive_nodes),
        ):
            for n in group:
                nodes.append({"id": n.id, "role": role, "pos": [n.pos.x, n.pos.y, n.pos.z]})
        return {"bounds": box(self.bounds), "obstacles": [box(b) for b in self.obstacles], "nodes": nodes}

    @staticmethod
    def from_json_dict(d: dict) -> "Scene":
        def box(bd):
            return ObstacleBox(Position3(*bd["min"]), Position3(*bd["max"]))

        groups = {"source": [], "destination": [], "sensitive": []}
        for nd in d["nodes"]:
            groups[nd["role"]].append(SceneNode(nd["id"], Position3(*nd["pos"])))
        return Scene(
            bounds=box(d["bounds"]),
            obstacles=tuple(box(bd) for bd in d["obstacles"]),
            ground_sources=tuple(groups["source"]),
            ground_destinations=tuple(groups["destination"]),
            sensitive_nodes=tuple(groups["sensitive"]),
        )


def los_clear(scene: Scene, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """(m,) bool: True where the open segment (tx[i], rx[i]) crosses no obstacle.

    Slab method over rows x boxes x axes with strict inequalities: tangent
    grazes and endpoints lying exactly on a face do not count as blockage. On
    an axis where the segment does not move, it is inside the slab only when
    strictly between the box faces. Division by that zero gives it: the slab is
    (-inf, inf) strictly between the faces, empty (both ends +inf or -inf)
    outside them, and nan (0/0) on a face, which no comparison passes.
    """
    a = np.atleast_2d(np.asarray(tx, dtype=float))[:, None, :]
    d = np.atleast_2d(np.asarray(rx, dtype=float))[:, None, :] - a
    lo, hi = scene._obs_lo[None], scene._obs_hi[None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (lo - a) / d
        t2 = (hi - a) / d
    tlo = np.minimum(t1, t2)
    thi = np.maximum(t1, t2)
    # elementwise over the three axes, cheaper than a size-3 reduction; nan propagates
    enter = np.maximum(np.maximum(np.maximum(tlo[..., 0], tlo[..., 1]), tlo[..., 2]), 0.0)
    leave = np.minimum(np.minimum(np.minimum(thi[..., 0], thi[..., 1]), thi[..., 2]), 1.0)
    return ~np.any(enter < leave, axis=1)


# gen_city's city: a 1000 x 1000 x 150 m block of box buildings with 30-80 m
# footprint sides and 15-60 m heights
_CITY_EXTENT_M = (1000.0, 1000.0, 150.0)
_FOOTPRINT_M = (30.0, 80.0)
_HEIGHT_M = (15.0, 60.0)


def gen_city(n_buildings: int, seed: int) -> Scene:
    """Generate a random box city of n_buildings buildings and no ground
    nodes; deterministic for a fixed (n_buildings, seed) pair."""
    if n_buildings < 0:
        raise ValueError("building count must be non-negative")
    rng = np.random.default_rng(seed)
    ex, ey, ez = _CITY_EXTENT_M
    boxes = []
    for _ in range(n_buildings):
        w = rng.uniform(*_FOOTPRINT_M)
        dth = rng.uniform(*_FOOTPRINT_M)
        h = rng.uniform(*_HEIGHT_M)
        x0 = rng.uniform(0.0, ex - w)
        y0 = rng.uniform(0.0, ey - dth)
        boxes.append(ObstacleBox(Position3(x0, y0, 0.0), Position3(x0 + w, y0 + dth, h)))
    return Scene(bounds=ObstacleBox(Position3(0, 0, 0), Position3(ex, ey, ez)),
                 obstacles=tuple(boxes))
