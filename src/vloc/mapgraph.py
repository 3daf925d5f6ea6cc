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

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import matching, retrieval
from .dataio import (line_errors, read_csv_rows, read_pgm, read_raw, write_csv,
                     write_pgm, write_raw)
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


@dataclass(eq=False)
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


@dataclass(frozen=True, eq=False)
class SegmentFrame:
    obs: Observation
    pose: Pose
    timestamp: float


@dataclass(eq=False)
class Segment:
    """Ordered posed observations from one traversal, with their camera."""

    frames: list
    camera: CameraIntrinsics

    def __post_init__(self):
        ts = [f.timestamp for f in self.frames]
        if not all(map(math.isfinite, ts)) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("segment timestamps must be finite and strictly increasing")

    def __len__(self):
        return len(self.frames)


@dataclass(eq=False)
class MapNode:
    """One keyframe of the map: a pose, a global descriptor and the raw
    image localization matches against. No depth is kept: local
    localization lifts the query's depth, never the reference's. A node
    without an image serves planning and retrieval but not localization.

    The landmark_* fields are simulator annotations carried in memory for
    the oracle matcher; they are not serialized (re-render at the node pose
    to regenerate them).

    A matcher takes the node itself as its reference: ``color`` is the
    image under an ``Observation``'s name, and ``classical_features()``
    keeps the classical matcher's features of the image in memory. They
    are not a field, so saving, loading, comparing and printing a node
    ignore them."""

    id: int
    pose: Pose
    descriptor: np.ndarray
    image: np.ndarray | None = None
    landmark_ids: np.ndarray | None = None
    landmark_uv: np.ndarray | None = None
    landmark_depth: np.ndarray | None = None
    _features = None             # (image, its features) once computed

    @property
    def color(self) -> np.ndarray | None:
        return self.image

    def classical_features(self):
        """``matching.classical_features`` of the image, computed on the
        first call and kept with the image they belong to, so a replaced
        ``image`` gets its own on the next call."""
        if self._features is None or self._features[0] is not self.image:
            self._features = (self.image, matching.classical_features(self.image))
        return self._features[1]


def _descriptor_fault(descriptor, dim: int) -> str | None:
    """Why a node descriptor is invalid (its shape, a value that is not
    finite, a norm off 1 by more than 1e-6), or None when it is valid."""
    d = np.asarray(descriptor)
    if d.shape != (dim,):
        return f"descriptor shape {d.shape}"
    if not np.isfinite(d).all():
        return "descriptor not finite"
    if abs(float(np.linalg.norm(d.astype(np.float64))) - 1.0) > 1e-6:
        return "descriptor not unit norm"
    return None


@dataclass(eq=False)
class TopoMetricMap:
    """Nodes plus the two undirected edge sets (a < b, each pair once), also
    held as adjacency lists ``cng`` and ``cvg``: entry ``i`` holds node
    i's ``(neighbour, value)`` pairs, ascending by neighbour, the value
    being the edge's weight or correspondence count. An edge whose value is
    zero is an edge like any other. ``==`` is identity; ``maps_equal``
    compares two maps by value."""

    nodes: list
    cng_edges: list
    cvg_edges: list
    descriptor_dim: int
    grid_res: float = GRID_RES_DEFAULT
    cng: tuple = field(init=False, repr=False)
    cvg: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.nodes)
        if [node.id for node in self.nodes] != list(range(n)):
            raise ValueError("node ids must be dense 0..n-1 in order")
        for node in self.nodes:
            fault = _descriptor_fault(node.descriptor, self.descriptor_dim)
            if fault:
                raise ValueError(f"node {node.id}: {fault}")
        self.cng_edges = sorted(tuple(e) for e in self.cng_edges)
        self.cvg_edges = sorted(tuple(e) for e in self.cvg_edges)
        self.cng = _adjacency(self.cng_edges, n)
        self.cvg = _adjacency(self.cvg_edges, n)
        for a, b, w in self.cng_edges:
            dist = float(np.linalg.norm(self.nodes[a].pose.t - self.nodes[b].pose.t))
            if not abs(w - dist) <= 1e-9:        # a NaN weight fails this too
                raise ValueError(f"cng edge ({a},{b}) weight {w} != distance {dist}")

    def node_positions(self) -> np.ndarray:
        return np.array([node.pose.t for node in self.nodes])

    def descriptor_matrix(self) -> np.ndarray:
        """The node descriptors as rows, ``(0, descriptor_dim)`` for no nodes."""
        return np.array([node.descriptor for node in self.nodes]).reshape(
            -1, self.descriptor_dim)

    def cvg_neighbors(self, node_id: int):
        """Covisibility neighbours of a node, ascending."""
        return [b for b, _ in self.cvg[node_id]]

    def components(self):
        """Connected components of the CnG as sorted id lists, by smallest
        id: a breadth-first search from each node no earlier one reached."""
        seen = [False] * len(self.nodes)
        comps = []
        for start in range(len(seen)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for a in comp:              # the list grows as the search walks it
                for b, _ in self.cng[a]:
                    if not seen[b]:
                        seen[b] = True
                        comp.append(b)
            comps.append(sorted(comp))
        return comps


def _adjacency(edges, n: int) -> tuple:
    """Per node, the ``(neighbour, value)`` pairs of undirected (a, b, value)
    edges given in ascending (a, b) order, so each node's pairs arrive
    ascending by neighbour. Raises ValueError for endpoints outside
    0 <= a < b < n or an (a, b) listed twice."""
    adj = [[] for _ in range(n)]
    for a, b, value in edges:
        if not 0 <= a < b < n:
            raise ValueError(f"bad edge endpoints ({a},{b}) for {n} nodes")
        if adj[a] and adj[a][-1][0] == b:   # in (a, b) order a repeat is next
            raise ValueError("an edge is listed twice")
        adj[a].append((b, value))
        adj[b].append((a, value))
    return tuple(map(tuple, adj))


def nearest_node(topo_map: TopoMetricMap, position) -> int:
    """Id of the node nearest ``position``, the lowest id on ties."""
    dists = np.linalg.norm(topo_map.node_positions() - np.asarray(position),
                           axis=1)
    return int(np.argmin(dists))


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
    unique int64 keys ``ix * 2**32 + iy``. Raises ValueError unless
    ``grid_res`` is finite and positive, and when a cell index is not below
    2**31 in magnitude, where keys would collide.
    """
    if obs.depth is None:
        raise NoDepth("observation has no depth image")
    if not 0 < grid_res < math.inf:
        raise ValueError(f"grid_res {grid_res} must be finite and positive")
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
    # np.sort and a neighbour compare: np.unique's own path costs several
    # times as much on int64 keys
    keys = np.sort(cells[:, 0] * 2**32 + cells[:, 1])
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def greedy_max_coverage(cell_keys, budget: int) -> list:
    """Greedy max-coverage over 1-D integer key arrays: repeatedly take the
    array adding the most new keys, ties to the lowest index, stopping at
    the budget or at zero marginal gain. Returns ascending indices.

    Every key becomes one column of a sets x keys boolean matrix. Each
    set's gain is kept: a round subtracts, from every row, its count over
    the columns the round newly covered."""
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
    gain = np.count_nonzero(member, axis=1)
    chosen = []
    while len(chosen) < budget:
        best = int(np.argmax(gain))
        if gain[best] == 0:
            break
        chosen.append(best)
        new = member[best] & ~covered
        gain -= np.count_nonzero(member[:, new], axis=1)
        covered |= new
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

def build_map(segment: Segment, keyframe_indices, matcher,
              covis_threshold: int = COVIS_THRESHOLD_DEFAULT,
              nav_radius: float = NAV_RADIUS_DEFAULT,
              world=None, cng_from_cvg: bool = False,
              grid_res: float = GRID_RES_DEFAULT) -> TopoMetricMap:
    """Assemble the two-level map from selected keyframes.

    CvG edge (a, b) iff the matcher, called with the two ``MapNode``s,
    produces >= covis_threshold correspondences between their images; a
    matcher that reads a node's kept features, as ``match_classical`` does,
    computes each keyframe's once. CnG edge (a, b) iff the node distance is
    <= nav_radius and, when a ``world`` with a ``line_of_sight(p, q)``
    method is given, the segment between the nodes is unobstructed;
    ``cng_from_cvg`` reproduces the simplification of taking the CnG equal
    to the CvG. One pass over the node pairs a < b decides both levels.
    Matcher calls are skipped for pairs farther apart than
    ``2 * nav_radius``, since they cannot share appearance in any
    covisibility sense.

    Each node keeps its keyframe's pose, descriptor, image and landmark
    annotations; the keyframe's depth served keyframe selection and is not
    kept.

    Emits DisconnectedMapWarning when the CnG has multiple components.
    """
    if not (covis_threshold > 0 and nav_radius > 0):
        raise ValueError(f"thresholds must be positive: covis_threshold "
                         f"{covis_threshold}, nav_radius {nav_radius}")
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

    cng_edges, cvg_edges = [], []
    for a, b in itertools.combinations(range(len(nodes)), 2):
        p, q = nodes[a].pose.t, nodes[b].pose.t
        dist = float(np.linalg.norm(p - q))
        n_corr = (len(matcher(nodes[a], nodes[b]))
                  if dist <= 2.0 * nav_radius else 0)
        covisible = n_corr >= covis_threshold       # the threshold is > 0
        if covisible:
            cvg_edges.append((a, b, n_corr))
        navigable = covisible if cng_from_cvg else (
            dist <= nav_radius and (world is None or world.line_of_sight(p, q)))
        if navigable:
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
    images/<id>.pgm. Every other images/*.pgm, an earlier map's image of a
    node this map lacks or has no image for, is removed, so the manifest
    counts the files on disk.
    """
    os.makedirs(mapdir, exist_ok=True)
    write_csv(os.path.join(mapdir, "nodes.csv"), _NODES_HEADER,
              ([str(node.id), *node.pose.fields()] for node in m.nodes))
    write_csv(os.path.join(mapdir, "cng_edges.csv"), _CNG_HEADER,
              ([str(a), str(b), fmt17(w)] for a, b, w in m.cng_edges))
    write_csv(os.path.join(mapdir, "cvg_edges.csv"), _CVG_HEADER,
              ([str(a), str(b), str(c)] for a, b, c in m.cvg_edges))

    desc_path = os.path.join(mapdir, "descriptors.f32")
    write_raw(desc_path, m.descriptor_matrix(), "<f4")
    bytes_desc = os.path.getsize(desc_path)

    bytes_images = 0
    img_dir = os.path.join(mapdir, "images")
    written = set()
    for node in m.nodes:
        if node.image is not None:
            name = f"{node.id}.pgm"
            path = os.path.join(img_dir, name)
            os.makedirs(img_dir, exist_ok=True)
            write_pgm(path, node.image)
            bytes_images += os.path.getsize(path)
            written.add(name)
    if os.path.isdir(img_dir):
        # what an earlier map saved here left
        for name in os.listdir(img_dir):
            if name.endswith(".pgm") and name not in written:
                os.remove(os.path.join(img_dir, name))

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
    descs = read_raw(desc_path, "<f4", shape=(node_count, dim))

    def node_fields(row):
        nid = int(row[0])
        pose = Pose.from_fields(row[1:])
        if not 0 <= nid < node_count:
            raise ValueError(f"node id {nid} not in [0, {node_count})")
        return nid, pose

    nodes_path = os.path.join(mapdir, "nodes.csv")
    _, rows = read_csv_rows(nodes_path, _NODES_HEADER, node_fields)
    nodes = []
    for nid, pose in rows:
        fault = _descriptor_fault(descs[nid], dim)
        if fault:
            raise FormatError(f"{desc_path}: node {nid}: {fault}")
        node = MapNode(id=nid, pose=pose, descriptor=descs[nid])
        img_path = os.path.join(mapdir, "images", f"{nid}.pgm")
        if os.path.exists(img_path):
            node.image = read_pgm(img_path)
        nodes.append(node)
    if len(nodes) != node_count:
        raise FormatError(f"{nodes_path}: {len(nodes)} rows, manifest says {node_count}")

    _, cng_edges = read_csv_rows(os.path.join(mapdir, "cng_edges.csv"), _CNG_HEADER,
                                 lambda row: (int(row[0]), int(row[1]), float(row[2])))
    _, cvg_edges = read_csv_rows(os.path.join(mapdir, "cvg_edges.csv"), _CVG_HEADER,
                                 lambda row: (int(row[0]), int(row[1]), int(row[2])))

    return TopoMetricMap(nodes=nodes, cng_edges=cng_edges, cvg_edges=cvg_edges,
                         descriptor_dim=dim, grid_res=grid_res)
