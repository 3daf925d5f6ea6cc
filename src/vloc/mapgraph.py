"""Two-level topo-metric map: budgeted keyframe selection over depth
coverage, covisibility/connectivity edge construction, and a bit-exact
directory serialization.

The connectivity level (CnG) carries Euclidean edge weights for planning;
the covisibility level (CvG) links nodes whose images share enough feature
correspondences and drives reference-node gathering during localization.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import retrieval
from .dataio import line_errors, read_csv_rows, read_f32, read_pgm, write_f32, write_pgm
from .errors import DisconnectedMapWarning, FormatError, NoDepth, VersionMismatch
from .geometry import (
    DEPTH_MAX_DEFAULT,
    DEPTH_MIN_DEFAULT,
    CameraIntrinsics,
    Pose,
    fmt17,
)

MAP_FORMAT_VERSION = 1
COVIS_THRESHOLD_DEFAULT = 50
NAV_RADIUS_DEFAULT = 3.0
GRID_RES_DEFAULT = 0.1


@dataclass
class Observation:
    """One camera observation: grayscale color image plus registered depth.

    ``landmarks`` is an optional simulator annotation (ids, pixels, depths)
    consumed by the oracle matcher; real sensors leave it None.
    """

    color: np.ndarray
    depth: np.ndarray | None = None
    landmark_ids: np.ndarray | None = None
    landmark_uv: np.ndarray | None = None
    landmark_depth: np.ndarray | None = None


@dataclass(frozen=True)
class SegmentFrame:
    obs: Observation
    pose: Pose
    timestamp: float


@dataclass
class Segment:
    """Ordered posed observations from one traversal, with their camera."""

    frames: list
    camera: CameraIntrinsics

    def __post_init__(self):
        ts = [f.timestamp for f in self.frames]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("segment timestamps must be strictly increasing")

    def __len__(self):
        return len(self.frames)


@dataclass
class MapNode:
    """One keyframe of the map. The landmark_* fields are simulator
    annotations carried in memory for the oracle matcher; they are not
    serialized (re-render at the node pose to regenerate them)."""

    id: int
    pose: Pose
    descriptor: np.ndarray
    image: np.ndarray | None = None
    depth: np.ndarray | None = None
    image_ref: str | None = None
    depth_ref: str | None = None
    landmark_ids: np.ndarray | None = None
    landmark_uv: np.ndarray | None = None
    landmark_depth: np.ndarray | None = None


@dataclass
class TopoMetricMap:
    """Nodes plus the two undirected edge sets, endpoints stored a < b."""

    nodes: list
    cng_edges: list
    cvg_edges: list
    descriptor_dim: int
    grid_res: float = GRID_RES_DEFAULT
    _cng_adj: dict = field(default_factory=dict, repr=False)
    _cvg_adj: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = len(self.nodes)
        if [node.id for node in self.nodes] != list(range(n)):
            raise ValueError("node ids must be dense 0..n-1 in order")
        for node in self.nodes:
            d = np.asarray(node.descriptor)
            if d.shape != (self.descriptor_dim,):
                raise ValueError(f"node {node.id}: descriptor shape {d.shape}")
            if abs(float(np.linalg.norm(d.astype(np.float64))) - 1.0) > 1e-6:
                raise ValueError(f"node {node.id}: descriptor not unit norm")
        self.cng_edges = sorted(tuple(e) for e in self.cng_edges)
        self.cvg_edges = sorted(tuple(e) for e in self.cvg_edges)
        for a, b, w in self.cng_edges:
            self._check_endpoints(a, b, n)
            dist = float(np.linalg.norm(self.nodes[a].pose.t - self.nodes[b].pose.t))
            if abs(w - dist) > 1e-9:
                raise ValueError(f"cng edge ({a},{b}) weight {w} != distance {dist}")
        for a, b, _ in self.cvg_edges:
            self._check_endpoints(a, b, n)
        self._cng_adj = {i: [] for i in range(n)}
        self._cvg_adj = {i: [] for i in range(n)}
        for a, b, w in self.cng_edges:
            self._cng_adj[a].append((b, w))
            self._cng_adj[b].append((a, w))
        for a, b, c in self.cvg_edges:
            self._cvg_adj[a].append((b, c))
            self._cvg_adj[b].append((a, c))

    @staticmethod
    def _check_endpoints(a, b, n):
        if not (0 <= a < b < n):
            raise ValueError(f"bad edge endpoints ({a},{b}) for {n} nodes")

    def node_positions(self) -> np.ndarray:
        return np.array([node.pose.t for node in self.nodes])

    def descriptor_matrix(self) -> np.ndarray:
        return np.stack([node.descriptor for node in self.nodes])

    def cng_neighbors(self, node_id: int):
        return list(self._cng_adj[node_id])

    def cvg_neighbors(self, node_id: int):
        return [b for b, _ in self._cvg_adj[node_id]]

    def components(self):
        """Connected components of the CnG, each a sorted list of ids."""
        seen = set()
        comps = []
        for start in range(len(self.nodes)):
            if start in seen:
                continue
            stack, comp = [start], []
            seen.add(start)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nbr, _ in self._cng_adj[cur]:
                    if nbr not in seen:
                        seen.add(nbr)
                        stack.append(nbr)
            comps.append(sorted(comp))
        return comps


def maps_equal(a: TopoMetricMap, b: TopoMetricMap) -> bool:
    """Field-by-field equality, including descriptor bytes and images."""
    if (len(a.nodes) != len(b.nodes) or a.descriptor_dim != b.descriptor_dim
            or a.grid_res != b.grid_res or a.cng_edges != b.cng_edges
            or a.cvg_edges != b.cvg_edges):
        return False
    for na, nb in zip(a.nodes, b.nodes):
        if na.id != nb.id or na.pose != nb.pose:
            return False
        if na.descriptor.tobytes() != nb.descriptor.tobytes():
            return False
        for attr in ("image", "depth"):
            va, vb = getattr(na, attr), getattr(nb, attr)
            if (va is None) != (vb is None):
                return False
            if va is not None and not np.array_equal(va, vb):
                return False
    return True


# ---------------------------------------------------------------------------
# coverage and keyframe selection
# ---------------------------------------------------------------------------

def coverage(obs: Observation, pose: Pose, camera: CameraIntrinsics,
             grid_res: float,
             depth_min: float = DEPTH_MIN_DEFAULT,
             depth_max: float = DEPTH_MAX_DEFAULT) -> set:
    """2-D grid cells hit by unprojecting every valid depth pixel to world.

    Cell keys are ``(floor(x / res), floor(y / res))``; z is dropped (the
    information measure is a 2-D occupancy footprint).
    """
    if obs.depth is None:
        raise NoDepth("observation has no depth image")
    if grid_res <= 0:
        raise ValueError("grid_res must be positive")
    depth = np.asarray(obs.depth, dtype=float)
    h, w = depth.shape
    valid = np.isfinite(depth) & (depth > depth_min) & (depth < depth_max)
    if not np.any(valid):
        return set()
    vv, uu = np.nonzero(valid)
    d = depth[vv, uu]
    x = (uu - camera.cx) / camera.fx * d
    y = (vv - camera.cy) / camera.fy * d
    pts_world = pose.apply(np.stack([x, y, d], axis=1))
    cells = np.floor(pts_world[:, :2] / grid_res).astype(np.int64)
    return set(map(tuple, cells))


def greedy_max_coverage(cell_sets, budget: int):
    """Greedy max-coverage: repeatedly take the set adding the most new
    cells, ties to the lowest index, stopping at the budget or at zero
    marginal gain. Returns ascending indices."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    chosen = []
    covered = set()
    while len(chosen) < budget:
        best_idx, best_gain = -1, 0
        for i, cells in enumerate(cell_sets):
            if i in chosen:
                continue
            gain = len(cells - covered)
            if gain > best_gain:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        chosen.append(best_idx)
        covered |= cell_sets[best_idx]
    return sorted(chosen)


def select_keyframes(segment: Segment, budget: int,
                     grid_res: float = GRID_RES_DEFAULT):
    """Budgeted keyframe selection by greedy coverage maximization."""
    if len(segment) == 0:
        raise ValueError("segment is empty")
    sets = [coverage(f.obs, f.pose, segment.camera, grid_res)
            for f in segment.frames]
    return greedy_max_coverage(sets, budget)


def select_keyframes_geomonly(segment: Segment, voxel_res: float):
    """Depth-free fallback: keep the first frame landing in each position
    voxel of side ``voxel_res``, in temporal order."""
    if voxel_res <= 0:
        raise ValueError("voxel_res must be positive")
    seen = set()
    out = []
    for i, f in enumerate(segment.frames):
        key = tuple(np.floor(f.pose.t / voxel_res).astype(np.int64))
        if key not in seen:
            seen.add(key)
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# map construction
# ---------------------------------------------------------------------------

def build_map(segment: Segment, keyframe_indices, matcher=None,
              covis_threshold: int = COVIS_THRESHOLD_DEFAULT,
              nav_radius: float = NAV_RADIUS_DEFAULT,
              world=None, cng_from_cvg: bool = False,
              grid_res: float = GRID_RES_DEFAULT,
              covis_distance_gate: float | None = None) -> TopoMetricMap:
    """Assemble the two-level map from selected keyframes.

    CvG edge (a, b) iff the matcher produces >= covis_threshold
    correspondences between the two images. CnG edge (a, b) iff the node
    distance is <= nav_radius and, when a ``world`` with a
    ``line_of_sight(p, q)`` method is given, the segment between the nodes
    is unobstructed; ``cng_from_cvg`` reproduces the simplification of
    taking the CnG equal to the CvG. Matcher calls are skipped for pairs
    farther apart than ``covis_distance_gate`` (default ``2 * nav_radius``)
    since they cannot share appearance in any covisibility sense.

    Emits DisconnectedMapWarning when the CnG has multiple components.
    """
    if matcher is None:
        from .matching import match_classical
        matcher = match_classical
    if covis_threshold <= 0 or nav_radius <= 0:
        raise ValueError("thresholds must be positive")
    indices = list(keyframe_indices)
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate keyframe indices")
    for i in indices:
        if not 0 <= i < len(segment):
            raise ValueError(f"keyframe index {i} out of range")
    if covis_distance_gate is None:
        covis_distance_gate = 2.0 * nav_radius

    frames = [segment.frames[i] for i in indices]
    nodes = []
    for j, f in enumerate(frames):
        depth = None
        if f.obs.depth is not None:
            depth = np.asarray(f.obs.depth, dtype=np.float32)
        nodes.append(MapNode(
            id=j,
            pose=f.pose,
            descriptor=retrieval.extract_descriptor(f.obs.color),
            image=np.asarray(f.obs.color, dtype=np.uint8),
            depth=depth,
            landmark_ids=f.obs.landmark_ids,
            landmark_uv=f.obs.landmark_uv,
            landmark_depth=f.obs.landmark_depth,
        ))

    cvg_edges = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            dist = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
            if dist > covis_distance_gate:
                continue
            n_corr = len(matcher(frames[a].obs, frames[b].obs))
            if n_corr >= covis_threshold:
                cvg_edges.append((a, b, n_corr))

    cng_edges = []
    if cng_from_cvg:
        for a, b, _ in cvg_edges:
            dist = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
            cng_edges.append((a, b, dist))
    else:
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                dist = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
                if dist > nav_radius:
                    continue
                if world is not None and not world.line_of_sight(
                        nodes[a].pose.t, nodes[b].pose.t):
                    continue
                cng_edges.append((a, b, dist))

    m = TopoMetricMap(
        nodes=nodes,
        cng_edges=cng_edges,
        cvg_edges=cvg_edges,
        descriptor_dim=retrieval.DESCRIPTOR_DIM,
        grid_res=grid_res,
    )
    comps = m.components()
    if len(comps) > 1:
        warnings.warn(DisconnectedMapWarning(comps))
    return m


# ---------------------------------------------------------------------------
# serialization (format version 1)
# ---------------------------------------------------------------------------

_NODES_HEADER = "id,x,y,z,qw,qx,qy,qz"
_CNG_HEADER = "id_a,id_b,weight"
_CVG_HEADER = "id_a,id_b,n_corr"


def save_map(m: TopoMetricMap, mapdir) -> dict:
    """Write the map directory; returns the manifest as a dict.

    The manifest's storage_bytes fields are measured from the files
    actually written, so they always equal on-disk sizes.
    """
    os.makedirs(mapdir, exist_ok=True)
    with open(os.path.join(mapdir, "nodes.csv"), "w") as f:
        f.write(_NODES_HEADER + "\n")
        for node in m.nodes:
            f.write(",".join([str(node.id), *node.pose.fields()]) + "\n")
    with open(os.path.join(mapdir, "cng_edges.csv"), "w") as f:
        f.write(_CNG_HEADER + "\n")
        for a, b, w in m.cng_edges:
            f.write(f"{a},{b},{fmt17(w)}\n")
    with open(os.path.join(mapdir, "cvg_edges.csv"), "w") as f:
        f.write(_CVG_HEADER + "\n")
        for a, b, c in m.cvg_edges:
            f.write(f"{a},{b},{c}\n")

    desc_path = os.path.join(mapdir, "descriptors.f32")
    if m.nodes:
        write_f32(desc_path, m.descriptor_matrix())
    else:
        write_f32(desc_path, np.zeros(0, dtype=np.float32))
    bytes_desc = os.path.getsize(desc_path)

    bytes_images = 0
    img_dir = os.path.join(mapdir, "images")
    depth_dir = os.path.join(mapdir, "depth")
    for node in m.nodes:
        if node.image is not None:
            os.makedirs(img_dir, exist_ok=True)
            path = os.path.join(img_dir, f"{node.id}.pgm")
            write_pgm(path, node.image)
            node.image_ref = f"images/{node.id}.pgm"
            bytes_images += os.path.getsize(path)
        if node.depth is not None:
            os.makedirs(depth_dir, exist_ok=True)
            path = os.path.join(depth_dir, f"{node.id}.f32")
            write_f32(path, node.depth)
            node.depth_ref = f"depth/{node.id}.f32"
            bytes_images += os.path.getsize(path)

    manifest = {
        "version": MAP_FORMAT_VERSION,
        "node_count": len(m.nodes),
        "descriptor_dim": m.descriptor_dim,
        "grid_res": m.grid_res,
        "storage_bytes_descriptors": bytes_desc,
        "storage_bytes_images": bytes_images,
    }
    with open(os.path.join(mapdir, "manifest.txt"), "w") as f:
        for key, val in manifest.items():
            out = fmt17(val) if isinstance(val, float) else str(val)
            f.write(f"{key}={out}\n")
    return manifest


def _parse_manifest(path) -> dict:
    """key -> (line number, value) of a key=value manifest."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key] = (lineno, val)
    return out


def load_map(mapdir) -> TopoMetricMap:
    manifest_path = os.path.join(mapdir, "manifest.txt")
    manifest = _parse_manifest(manifest_path)

    def number(key, kind):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: no {key}")
        lineno, val = manifest[key]
        with line_errors(manifest_path, lineno):
            return kind(val)

    version = number("version", int) if "version" in manifest else -1
    if version != MAP_FORMAT_VERSION:
        raise VersionMismatch(
            f"{manifest_path}: format version {version}, expected {MAP_FORMAT_VERSION}"
        )
    node_count = number("node_count", int)
    dim = number("descriptor_dim", int)
    grid_res = number("grid_res", float)

    desc_path = os.path.join(mapdir, "descriptors.f32")
    descs = read_f32(desc_path, shape=(node_count, dim)) if node_count else \
        read_f32(desc_path)

    nodes_path = os.path.join(mapdir, "nodes.csv")
    nodes = []
    for lineno, row in read_csv_rows(nodes_path, _NODES_HEADER):
        if len(row) != 8:
            raise FormatError(f"{nodes_path}:{lineno}: expected 8 fields")
        with line_errors(nodes_path, lineno):
            nid = int(row[0])
            pose = Pose.from_fields(row[1:])
        if not 0 <= nid < node_count:
            raise FormatError(f"{nodes_path}:{lineno}: node id {nid} not in "
                              f"[0, {node_count})")
        node = MapNode(id=nid, pose=pose, descriptor=descs[nid])
        img_rel = f"images/{nid}.pgm"
        depth_rel = f"depth/{nid}.f32"
        img_path = os.path.join(mapdir, img_rel)
        depth_path = os.path.join(mapdir, depth_rel)
        if os.path.exists(img_path):
            node.image = read_pgm(img_path)
            node.image_ref = img_rel
        if os.path.exists(depth_path):
            flat = read_f32(depth_path)
            if node.image is not None and flat.size == node.image.size:
                node.depth = flat.reshape(node.image.shape)
            else:
                node.depth = flat
            node.depth_ref = depth_rel
        nodes.append(node)
    if len(nodes) != node_count:
        raise FormatError(f"{nodes_path}: {len(nodes)} rows, manifest says {node_count}")

    cng_path = os.path.join(mapdir, "cng_edges.csv")
    cng_edges = []
    for lineno, row in read_csv_rows(cng_path, _CNG_HEADER):
        with line_errors(cng_path, lineno):
            cng_edges.append((int(row[0]), int(row[1]), float(row[2])))
    cvg_path = os.path.join(mapdir, "cvg_edges.csv")
    cvg_edges = []
    for lineno, row in read_csv_rows(cvg_path, _CVG_HEADER):
        with line_errors(cvg_path, lineno):
            cvg_edges.append((int(row[0]), int(row[1]), int(row[2])))

    return TopoMetricMap(nodes=nodes, cng_edges=cng_edges, cvg_edges=cvg_edges,
                         descriptor_dim=dim, grid_res=grid_res)
