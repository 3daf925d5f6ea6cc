"""Two-level topo-metric map: budgeted keyframe selection over depth
coverage, covisibility/connectivity edge construction, and a bit-exact
directory serialization.

A frame's coverage is the set of 2-D grid cells its depth pixels hit,
held as a sorted int64 array of cell keys ``ix * 2**32 + iy``. The key is
one-to-one, and orders cells as the pairs ``(ix, iy)`` do, while both
indices are below 2**31 in magnitude; ``coverage`` raises ValueError for
a cell outside that range (a ``grid_res`` too fine for the world's extent).

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
    unproject,
)

MAP_FORMAT_VERSION = 1
COVIS_THRESHOLD_DEFAULT = 50
NAV_RADIUS_DEFAULT = 3.0
GRID_RES_DEFAULT = 0.1
_CELL_LIMIT = 2 ** 31          # cell indices must be below this in magnitude


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
    """One keyframe of the map: a pose, a global descriptor and the raw
    image localization matches against. No depth is kept: local
    localization lifts the query's depth, never the reference's. A node
    without an image serves planning and retrieval but not localization.

    The landmark_* fields are simulator annotations carried in memory for
    the oracle matcher; they are not serialized (re-render at the node pose
    to regenerate them)."""

    id: int
    pose: Pose
    descriptor: np.ndarray
    image: np.ndarray | None = None
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
        if (na.image is None) != (nb.image is None):
            return False
        if na.image is not None and not np.array_equal(na.image, nb.image):
            return False
    return True


# ---------------------------------------------------------------------------
# coverage and keyframe selection
# ---------------------------------------------------------------------------

def coverage(obs: Observation, pose: Pose, camera: CameraIntrinsics,
             grid_res: float) -> np.ndarray:
    """2-D grid cells hit by unprojecting every depth pixel in
    (DEPTH_MIN_DEFAULT, DEPTH_MAX_DEFAULT) to world.

    Cell ``(ix, iy) = (floor(x / res), floor(y / res))``; z is dropped (the
    information measure is a 2-D occupancy footprint). Returns the sorted
    unique int64 keys ``ix * 2**32 + iy``. Raises ValueError when a cell
    index is not below 2**31 in magnitude, where keys would collide.
    """
    if obs.depth is None:
        raise NoDepth("observation has no depth image")
    if grid_res <= 0:
        raise ValueError("grid_res must be positive")
    depth = np.asarray(obs.depth, dtype=float)
    valid = (np.isfinite(depth) & (depth > DEPTH_MIN_DEFAULT)
             & (depth < DEPTH_MAX_DEFAULT))
    if not np.any(valid):
        return np.empty(0, dtype=np.int64)
    vv, uu = np.nonzero(valid)
    pts_world = pose.apply(unproject(camera, uu, vv, depth[vv, uu]))
    cells = np.floor(pts_world[:, :2] / grid_res)
    # test before the cast: an out-of-range float wraps when cast to int64
    if not np.all(np.abs(cells) < _CELL_LIMIT):
        raise ValueError(f"grid_res {grid_res}: a cell index is not below "
                         f"2**31 in magnitude")
    cells = cells.astype(np.int64)
    return np.unique(cells[:, 0] * 2**32 + cells[:, 1])


def greedy_max_coverage(cell_keys, budget: int) -> list:
    """Greedy max-coverage over 1-D integer key arrays: repeatedly take the
    array adding the most new keys, ties to the lowest index, stopping at
    the budget or at zero marginal gain. Returns ascending indices.

    Every key becomes one column of a sets x keys boolean matrix, so a
    round is one masked row count."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    keys = [np.asarray(k) for k in cell_keys]
    if any(k.ndim != 1 for k in keys):
        raise ValueError("cell keys must be 1-D arrays")
    if not keys:
        return []
    universe, cols = np.unique(np.concatenate(keys), return_inverse=True)
    member = np.zeros((len(keys), len(universe)), dtype=bool)
    member[np.repeat(np.arange(len(keys)), [k.size for k in keys]), cols] = True
    covered = np.zeros(len(universe), dtype=bool)
    chosen = []
    while len(chosen) < budget:
        gain = np.count_nonzero(member & ~covered, axis=1)
        best = int(np.argmax(gain))
        if gain[best] == 0:
            break
        chosen.append(best)
        covered |= member[best]
    return sorted(chosen)


def select_keyframes(segment: Segment, budget: int,
                     grid_res: float = GRID_RES_DEFAULT):
    """Budgeted keyframe selection by greedy coverage maximization."""
    if len(segment) == 0:
        raise ValueError("segment is empty")
    cells = [coverage(f.obs, f.pose, segment.camera, grid_res)
             for f in segment.frames]
    return greedy_max_coverage(cells, budget)


# ---------------------------------------------------------------------------
# map construction
# ---------------------------------------------------------------------------

def build_map(segment: Segment, keyframe_indices, matcher=None,
              covis_threshold: int = COVIS_THRESHOLD_DEFAULT,
              nav_radius: float = NAV_RADIUS_DEFAULT,
              world=None, cng_from_cvg: bool = False,
              grid_res: float = GRID_RES_DEFAULT) -> TopoMetricMap:
    """Assemble the two-level map from selected keyframes.

    CvG edge (a, b) iff the matcher produces >= covis_threshold
    correspondences between the two images. CnG edge (a, b) iff the node
    distance is <= nav_radius and, when a ``world`` with a
    ``line_of_sight(p, q)`` method is given, the segment between the nodes
    is unobstructed; ``cng_from_cvg`` reproduces the simplification of
    taking the CnG equal to the CvG. Matcher calls are skipped for pairs
    farther apart than ``2 * nav_radius``, since they cannot share
    appearance in any covisibility sense.

    Each node keeps its keyframe's pose, descriptor, image and landmark
    annotations; the keyframe's depth served keyframe selection and is not
    kept.

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
    frames = [segment.frames[i] for i in indices]
    nodes = []
    for j, f in enumerate(frames):
        nodes.append(MapNode(
            id=j,
            pose=f.pose,
            descriptor=retrieval.extract_descriptor(f.obs.color),
            image=np.asarray(f.obs.color, dtype=np.uint8),
            landmark_ids=f.obs.landmark_ids,
            landmark_uv=f.obs.landmark_uv,
            landmark_depth=f.obs.landmark_depth,
        ))

    cvg_edges = []
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            dist = float(np.linalg.norm(nodes[a].pose.t - nodes[b].pose.t))
            if dist > 2.0 * nav_radius:
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

    The directory holds manifest.txt, nodes.csv, cng_edges.csv,
    cvg_edges.csv, descriptors.f32 and, for each node with an image,
    images/<id>.pgm. The manifest's storage_bytes fields are measured from
    the files actually written, so they always equal on-disk sizes;
    storage_bytes_images counts images/ only.
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
    for node in m.nodes:
        if node.image is not None:
            os.makedirs(img_dir, exist_ok=True)
            path = os.path.join(img_dir, f"{node.id}.pgm")
            write_pgm(path, node.image)
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
    """Read a directory written by ``save_map``. Other files in it, such as
    the depth/ rasters that earlier writers of format version 1 kept, are
    ignored."""
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
        with line_errors(nodes_path, lineno):
            nid = int(row[0])
            pose = Pose.from_fields(row[1:])
        if not 0 <= nid < node_count:
            raise FormatError(f"{nodes_path}:{lineno}: node id {nid} not in "
                              f"[0, {node_count})")
        node = MapNode(id=nid, pose=pose, descriptor=descs[nid])
        img_path = os.path.join(mapdir, "images", f"{nid}.pgm")
        if os.path.exists(img_path):
            node.image = read_pgm(img_path)
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
