"""Large-scale radio environment: a synthetic ground-truth channel (log-distance
path loss with an LoS/NLoS exponent switch plus spatially correlated shadowing)
and a queryable radio map interpolated from sparse geo-tagged gain samples.

The shadowing term is a zero-mean Gaussian random field over 3D space with
exponential spatial correlation exp(-delta / decorr_dist), realized by random
Fourier features so that any point can be evaluated deterministically from a
seed. It is indexed at the link midpoint, and the LoS test takes each pair
with its lexicographically smaller endpoint first, which keeps the ground
truth reciprocal bit for bit by construction.

The map is k-nearest-neighbour inverse-distance weighting over the raw 6D
(tx, rx) sample coordinates. Samples are stored in both orientations, and each
query pair makes one lookup with its lexicographically smaller endpoint first,
so queries are reciprocal bit for bit and reproduce training samples exactly.
A query's neighbours are ordered by (distance, index of the point in the
canonically sorted point set), so equal-distance ties are broken the same way
whatever the kd-tree's build options and whatever the order of query rows.

Rows with a fixed site at one end (`query_sites`) have a shortcut. The points
with that site as the same half differ from such a row only in the other half,
whose 3D distance is the row's 6D distance bit for bit, so one 3D search per
position over the sites' sample partners serves every site. Mirrored samples,
merged in gain order, let the points with the site second serve either end.
A row whose neighbours this cannot certify takes the 6D lookup instead.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLink, EmptySampleSet
from .scene import Position3, Scene, los_clear
from .trajectory import positions_at

_EXACT_EPS = 1e-9
_QUERY_BLOCK_ROWS = 8192  # rows per block of a map query
_SHADOW_TERMS = 192  # random Fourier features of the shadow field
K_NEIGHBORS = 8  # the map's default neighbour count
IDW_EXPONENT = 2.0  # the map's inverse-distance exponent


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path-loss and shadowing parameters for the ground truth."""

    pl0_db: float = 40.0
    d0: float = 1.0
    n_los: float = 2.0
    n_nlos: float = 3.2
    sigma_sh_los_db: float = 4.0
    sigma_sh_nlos_db: float = 8.0
    decorr_dist: float = 50.0

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.n_los <= 0 or self.n_nlos <= 0:
            raise ValueError("path-loss exponents must be positive")
        if self.sigma_sh_los_db < 0 or self.sigma_sh_nlos_db < 0:
            raise ValueError("shadowing stds must be non-negative")
        if self.decorr_dist <= 0:
            raise ValueError("decorr_dist must be positive")


@dataclass(frozen=True)
class LargeScaleStats:
    mean_gain_db: float
    shadow_std_db: float

    def __post_init__(self):
        if self.shadow_std_db < 0:
            raise ValueError("shadow_std_db must be non-negative")


@dataclass(frozen=True)
class ChannelSample:
    """One geo-tagged large-scale gain measurement."""

    tx: Position3
    rx: Position3
    gain_db: float


class SampleSet(Sequence):
    """Geo-tagged gain samples as one (m, 7) float array of rows: tx xyz, rx xyz,
    gain_db, plus `sites`, the fixed points the samples were taken against as a
    lex-sorted (s, 3) array (a map indexes their rows for query_sites). Item i
    is row i as a ChannelSample; `+` concatenates the rows and unites the sites."""

    def __init__(self, rows: np.ndarray, sites=()):
        if not np.isfinite(rows[:, 6]).all():
            raise ValueError("gain_db must be finite")
        self.rows = rows
        self.sites = np.unique(np.asarray(sites, dtype=float).reshape(-1, 3), axis=0)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i) -> ChannelSample:
        r = self.rows[i]
        return ChannelSample(Position3.from_array(r[:3]), Position3.from_array(r[3:6]), float(r[6]))

    def __add__(self, other: "SampleSet") -> "SampleSet":
        return SampleSet(np.concatenate([self.rows, other.rows]),
                         np.concatenate([self.sites, other.sites]))


class ShadowField:
    """Unit-variance Gaussian field with exp(-d / decorr) spatial correlation.

    Random Fourier features: frequencies drawn from the 3D spectral measure of
    the exponential kernel (an isotropic Cauchy law, w = z / (decorr * |g|)),
    so the ensemble covariance over seeds is exactly the target correlation.
    """

    def __init__(self, decorr_dist: float, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((_SHADOW_TERMS, 3))
        g = np.abs(rng.standard_normal(_SHADOW_TERMS))
        g[g < 1e-300] = 1e-300
        self._freqs = z / (decorr_dist * g[:, None])
        self._phases = rng.uniform(0.0, 2.0 * np.pi, _SHADOW_TERMS)
        self._scale = math.sqrt(2.0 / _SHADOW_TERMS)

    def unit(self, points: np.ndarray, rowwise: bool = False) -> np.ndarray:
        """Field values at points, shape (m, 3) -> (m,). A product of one row
        takes BLAS's vector-matrix path, whose last bits differ from a wider
        call's; rowwise runs one such product per row, so each row has the
        bits of its own one-row call."""
        points = np.atleast_2d(points)
        if rowwise:
            arg = (points[:, None, :] @ self._freqs.T)[:, 0]
        else:
            arg = points @ self._freqs.T
        arg += self._phases
        return self._scale * np.cos(arg, out=arg).sum(axis=1)


_LEX = np.array([4.0, 2.0, 1.0])  # each weight exceeds the sum of those after it


def _canonical(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    """(m, 6) rows of each pair's endpoints, the (x, y, z)-smaller one first: the
    first coordinate where they differ decides; coincident endpoints keep their order.
    The signs of tx - rx, weighted by _LEX, sum above 0 exactly when that coordinate
    of tx is the larger (finite coordinates: a difference is 0 only between equals)."""
    swap = (np.sign(tx - rx) @ _LEX > 0.0)[:, None]
    return np.where(swap, np.hstack([rx, tx]), np.hstack([tx, rx]))


class GroundTruthChannel:
    """Deterministic large-scale ground truth for one shadowing realization."""

    def __init__(self, scene: Scene, params: PathLossParams, shadow_seed):
        self.scene = scene
        self.params = params
        self.field = ShadowField(params.decorr_dist, shadow_seed)

    def gain_db_many(self, tx: np.ndarray, rx: np.ndarray, rowwise: bool = False) -> np.ndarray:
        """Large-scale gains for (m, 3) position pairs, reciprocal by construction.
        The LoS test sees each pair in its canonical orientation: rounding can make
        the slab test's answer depend on the end it starts from. A row's gain does
        not depend on the other rows of a call of two or more; a one-row call's
        differs in its last bits, and rowwise gives every row those (ShadowField.unit)."""
        tx = np.atleast_2d(np.asarray(tx, dtype=float))
        rx = np.atleast_2d(np.asarray(rx, dtype=float))
        d = np.linalg.norm(tx - rx, axis=1)
        if np.any(d == 0.0):
            raise DegenerateLink("tx and rx coincide")
        if not (np.isfinite(d) & (tx[:, 2] >= 0) & (rx[:, 2] >= 0)).all():
            raise ValueError("positions must be finite with z >= 0")
        p = self.params
        pair = _canonical(tx, rx)
        los = los_clear(self.scene, pair[:, :3], pair[:, 3:])
        n_exp = np.where(los, p.n_los, p.n_nlos)
        pl = p.pl0_db + 10.0 * n_exp * np.log10(np.maximum(d, p.d0) / p.d0)
        sigma = np.where(los, p.sigma_sh_los_db, p.sigma_sh_nlos_db)
        return -(pl + sigma * self.field.unit(0.5 * (tx + rx), rowwise))


def sample_along(trajs, scene: Scene, params: PathLossParams, shadow_seed, sampling_period: float,
                 peer_points) -> SampleSet:
    """Geo-tagged samples collected along each trajectory against static peers.

    Sampling instants are t_start + k*period for k = 0 .. floor(span/period)-1,
    one sample per (aircraft position, peer point) per instant.
    """
    if sampling_period <= 0:
        raise ValueError("sampling_period must be positive")
    channel = GroundTruthChannel(scene, params, shadow_seed)
    peers = [p.as_array() if isinstance(p, Position3) else np.asarray(p, dtype=float) for p in peer_points]
    blocks = [np.empty((0, 7))]
    for traj in trajs:
        span = traj.t_end - traj.t_start
        n = int(math.floor(span / sampling_period + 1e-12))
        if n <= 0:
            continue
        times = traj.t_start + sampling_period * np.arange(n)
        pos = positions_at(traj, times)
        for peer in peers:
            rx = np.broadcast_to(peer, pos.shape)
            blocks.append(np.column_stack((pos, rx, channel.gain_db_many(pos, rx))))
    return SampleSet(np.concatenate(blocks), peers)


def sample_ground_pairs(scene: Scene, params: PathLossParams, shadow_seed, points) -> SampleSet:
    """One sample per static ground pair: fixed links have persistent large-scale
    gains, so a single site survey captures them exactly."""
    channel = GroundTruthChannel(scene, params, shadow_seed)
    pts = [p.as_array() if isinstance(p, Position3) else np.asarray(p, dtype=float) for p in points]
    blocks = [np.empty((0, 7))]
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            if np.array_equal(pts[a], pts[b]):
                continue
            tx, rx = pts[a][None], pts[b][None]
            blocks.append(np.column_stack((tx, rx, channel.gain_db_many(tx, rx))))
    return SampleSet(np.concatenate(blocks), pts)


def sample_between(trajs, scene: Scene, params: PathLossParams, shadow_seed,
                   sampling_period: float) -> SampleSet:
    """Air-to-air samples between every trajectory pair at the same cadence."""
    if sampling_period <= 0:
        raise ValueError("sampling_period must be positive")
    channel = GroundTruthChannel(scene, params, shadow_seed)
    blocks = [np.empty((0, 7))]
    trajs = list(trajs)
    for a in range(len(trajs)):
        for b in range(a + 1, len(trajs)):
            t0 = max(trajs[a].t_start, trajs[b].t_start)
            t1 = min(trajs[a].t_end, trajs[b].t_end)
            n = int(math.floor((t1 - t0) / sampling_period + 1e-12))
            if n <= 0:
                continue
            times = t0 + sampling_period * np.arange(n)
            pa = positions_at(trajs[a], times)
            pb = positions_at(trajs[b], times)
            keep = np.linalg.norm(pa - pb, axis=1) > 0
            pa, pb = pa[keep], pb[keep]
            blocks.append(np.column_stack((pa, pb, channel.gain_db_many(pa, pb))))
    return SampleSet(np.concatenate(blocks))


def _by_distance_then_index(dist: np.ndarray, idx: np.ndarray) -> None:
    """Puts each row of (dist, idx) in (distance, index) order, in place. A
    kd-tree returns rows sorted by distance, so only a row with a tie can be out
    of that order; ties are rare, and skipping the other rows keeps small calls
    cheap."""
    tied = np.flatnonzero((dist[:, 1:] == dist[:, :-1]).any(axis=1))
    if tied.size:
        order = np.lexsort((idx[tied], dist[tied]))
        dist[tied] = np.take_along_axis(dist[tied], order, axis=1)
        idx[tied] = np.take_along_axis(idx[tied], order, axis=1)


class _SiteIndex:
    """A map's points grouped by fixed site, for RadioMap.query_sites.

    A site's group is the points (partner, site). `tree` is a 3D kd-tree over
    U, the lex-sorted union of the sites' partners. For the site in row j
    (`row` maps a site to it), points[j, u] is the map index of the point
    (U[u], site), -1 where U[u] is no partner of the site, and size[j] counts
    its partners. The group serves rows with the site at either end: the map
    stores every sample mirrored and merges a point's gains in gain order, so
    (site, U[u]) has (U[u], site)'s gain bit for bit and the same index order
    in u. clear[j] is its distance to the nearest other half of any map point,
    so every point outside its group differs from a row anchored at it by at
    least that much in the anchored half. Sites with no point in the map get
    no row.
    """

    def __init__(self, points: np.ndarray, sites: np.ndarray):
        from scipy.spatial import cKDTree

        # the sorted points' first halves, each numbered by its rank among them
        new = np.ones(points.shape[0], dtype=bool)
        new[1:] = (points[1:, :3] != points[:-1, :3]).any(axis=1)
        rank = np.cumsum(new) - 1
        halves = points[new, :3]
        sites = [s for s in sites if (halves == s).all(axis=1).any()]
        self.row = {tuple(s): j for j, s in enumerate(sites)}
        groups = [np.flatnonzero((points[:, 3:] == s).all(axis=1)) for s in sites]
        # U by rank: a partner is the first half of the point (partner, site)
        ranks = np.unique(np.concatenate([rank[:0]] + [rank[g] for g in groups]))
        self.tree = cKDTree(halves[ranks])
        self.points = np.full((len(sites), ranks.size), -1, dtype=np.intp)
        self.clear = np.empty(len(sites))
        for j, s in enumerate(sites):
            self.points[j, np.searchsorted(ranks, rank[groups[j]])] = groups[j]
            # summed in the kd-tree's order: a 6D distance only adds non-negative
            # terms to this sum, so the bound holds after rounding too
            d = halves[(halves != s).any(axis=1)] - s
            sq = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            self.clear[j] = np.sqrt(np.min(sq, initial=np.inf))
        self.size = (self.points >= 0).sum(axis=1)


@dataclass(frozen=True)
class RadioMap:
    """k-NN inverse-distance-weighted interpolator over 6D (tx, rx) samples."""

    samples: SampleSet
    k_neighbors: int = K_NEIGHBORS
    residual_std_db: float = 4.0
    _points: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _gains: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _tree: object = field(init=False, repr=False, compare=False, default=None)
    _sites: _SiteIndex = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # scipy loads with the first map, so the CLI's other paths never pay for it
        from scipy.spatial import cKDTree

        if not self.samples:
            raise EmptySampleSet("a radio map needs at least one sample")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        raw = self.samples.rows
        mirrored = np.concatenate([raw, raw[:, [3, 4, 5, 0, 1, 2, 6]]], axis=0)
        # Canonical sort, then merge exact-duplicate 6D points (mean gain) so
        # query results are independent of sample order and duplicates. Sorted,
        # points equal under == are adjacent: a group starts where a row differs
        # from the one before it, and its gains are summed in sorted order.
        order = np.lexsort(mirrored.T[::-1])
        mirrored = mirrored[order]
        pts = mirrored[:, :6]
        first = np.ones(len(pts), dtype=bool)
        first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        inverse = np.cumsum(first) - 1
        gains = np.bincount(inverse, weights=mirrored[:, 6]) / np.bincount(inverse)
        uniq = pts[first]
        object.__setattr__(self, "_points", uniq)
        object.__setattr__(self, "_gains", gains)
        # sliding-midpoint tree: the tie order makes results independent of how
        # the tree is built, so it is chosen for speed (leaf size by measurement)
        object.__setattr__(self, "_tree", cKDTree(uniq, leafsize=16, balanced_tree=False))
        if len(self.samples.sites):
            object.__setattr__(self, "_sites", _SiteIndex(uniq, self.samples.sites))

    def _knn(self, q: np.ndarray, k: int):
        """(dist, idx) of each row's k nearest points, ordered by (distance, index)."""
        dist, idx = self._tree.query(q, k=k)
        dist, idx = dist.reshape(q.shape[0], k), idx.reshape(q.shape[0], k)
        _by_distance_then_index(dist, idx)
        return dist, idx

    def _neighbours(self, q: np.ndarray):
        """Each row's k nearest points in (distance, index in _points) order.

        One neighbour more than k settles a row whose k-th and (k+1)-th
        distances differ. A row where they tie is asked again with twice as
        many neighbours until the tie group ends, or every point is in.
        """
        n = self._points.shape[0]
        k = min(self.k_neighbors, n)
        dist, idx = self._knn(q, min(k + 1, n))
        rows = np.flatnonzero(dist[:, k - 1] == dist[:, k]) if k + 1 < n else []
        wide = k + 1
        while len(rows):
            wide = min(2 * wide, n)
            d, i = self._knn(q[rows], wide)
            dist[rows, :k], idx[rows, :k] = d[:, :k], i[:, :k]
            rows = rows[(d[:, -1] == d[:, k - 1]) & (wide < n)]
        return dist[:, :k], idx[:, :k]

    def _idw(self, dist: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
        """Writes each row's anchored IDW mean over its neighbours (dist, idx)
        into out: one pass over all rows, then the exact-hit rows take their
        nearest point's gain instead. Both query paths hand it (m, k) views of
        (m, k + 1) arrays, so every row meets the same numpy loops."""
        g = self._gains[idx]
        with np.errstate(divide="ignore", invalid="ignore"):  # exact hits give inf, nan
            w = dist ** -IDW_EXPONENT
            # anchored form: exact when all neighbour gains agree
            out[:] = g[:, 0] + np.sum(w * (g - g[:, :1]), axis=1) / np.sum(w, axis=1)
        exact = dist[:, 0] <= _EXACT_EPS
        out[exact] = g[exact, 0]

    def query_many(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """Mean gains for (m, 3) position pair arrays. Each pair makes one lookup with
        its (x, y, z)-smaller endpoint first, so (rx, tx) makes the same query. Rows
        go through in blocks of _QUERY_BLOCK_ROWS, so temporaries stay block-sized;
        every step works row by row, so a row's mean does not depend on its block."""
        tx = np.atleast_2d(np.asarray(tx, dtype=float))
        rx = np.atleast_2d(np.asarray(rx, dtype=float))
        out = np.empty(tx.shape[0])
        for lo in range(0, tx.shape[0], _QUERY_BLOCK_ROWS):
            hi = lo + _QUERY_BLOCK_ROWS
            self._idw(*self._neighbours(_canonical(tx[lo:hi], rx[lo:hi])), out[lo:hi])
        return out

    def query_sites(self, pos: np.ndarray, sites: np.ndarray) -> np.ndarray:
        """Mean gains from each of m positions to each of p fixed sites, as (m, p):
        bit for bit query_many(np.repeat(pos, p, axis=0), np.tile(sites, (m, 1)))
        reshaped, in one 3D search per position for the sites the map indexes.

        Positions go through in blocks of _QUERY_BLOCK_ROWS // p. Each makes
        one search of _SiteIndex.tree for its k + 1 nearest points of U; toward
        a site, at either end, a row meets those that are the site's partners
        as points of its group, in 6D distance order. A row is certified when
        all k + 1 are partners, its k-th and (k+1)-th distances differ and the
        (k+1)-th is below the site's clearance: then no point outside the group
        is as near, and its k nearest are the 6D lookup's. Every other row
        takes query_many, as does every row toward a site the map does not
        index or that has fewer than k + 1 partners.
        """
        pos = np.asarray(pos, dtype=float).reshape(-1, 3)
        sites = np.asarray(sites, dtype=float).reshape(-1, 3)
        m, p = pos.shape[0], sites.shape[0]
        out = np.empty((m, p))
        slow = np.ones((m, p), dtype=bool)
        index, k = self._sites, min(self.k_neighbors, self._points.shape[0])
        cols = []
        if index is not None and m:
            rows = [index.row.get(tuple(s), -1) for s in sites]
            cols = [c for c, j in enumerate(rows) if j >= 0 and index.size[j] > k]
        if cols:
            step = max(1, _QUERY_BLOCK_ROWS // p)
            for lo in range(0, m, step):
                dist, near = index.tree.query(pos[lo:lo + step], k=k + 1)  # k + 1 >= 2
                for c in cols:
                    j = rows[c]
                    idx = index.points[j][near]
                    ok = ((idx >= 0).all(axis=1) & (dist[:, k - 1] < dist[:, k])
                          & (dist[:, k] < index.clear[j]))
                    d, idx = dist[ok], idx[ok]
                    _by_distance_then_index(d[:, :k], idx[:, :k])
                    means = np.empty(d.shape[0])
                    self._idw(d[:, :k], idx[:, :k], means)
                    out[lo:lo + step, c][ok] = means
                    slow[lo:lo + step, c][ok] = False
        r, c = np.nonzero(slow)
        if r.size:
            out[r, c] = self.query_many(pos[r], sites[c])
        return out

    def query(self, tx: Position3, rx: Position3) -> LargeScaleStats:
        """Expected large-scale stats between two points."""
        mean = float(self.query_many(tx.as_array()[None], rx.as_array()[None])[0])
        return LargeScaleStats(mean, self.residual_std_db)


def build_map(samples, k_neighbors: int = K_NEIGHBORS, residual_std_db: float = 4.0) -> RadioMap:
    """A radio map over a SampleSet, or over any sequence of ChannelSamples."""
    if not isinstance(samples, SampleSet):
        samples = SampleSet(np.array([(s.tx.x, s.tx.y, s.tx.z, s.rx.x, s.rx.y, s.rx.z, s.gain_db)
                                      for s in samples], dtype=float).reshape(-1, 7))
    return RadioMap(samples, k_neighbors, residual_std_db)
