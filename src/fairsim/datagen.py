"""Synthetic candidate pools with a protected attribute and proxy features.

Each candidate carries ``m`` real-valued attributes plus a binary protected
attribute. The protected attribute is drawn from a Bernoulli distribution.
"Harmless" attributes are drawn independently of it, while "proxy" attributes
are drawn from per-group normal distributions and therefore leak group
membership. The protected attribute rides along for evaluation only; it is
never part of the feature vector a model sees. A :class:`Pool` stores the
candidates in columns rather than as one object each.

Pool generation is deterministic: a config with the same seed always produces
bit-identical pools (see :func:`generate_pool` for the pinned draw order).
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionMismatch


@dataclass(frozen=True)
class Uniform:
    """Uniform draw on ``[lo, hi]``."""

    lo: float = 0.0
    hi: float = 1.0

    def validate(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi < self.lo:
            raise ConfigError(f"uniform bounds must satisfy lo <= hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Normal:
    """Normal draw with the given mean and standard deviation."""

    mean: float
    std: float

    def validate(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.std)) or self.std <= 0.0:
            raise ConfigError(f"normal spec needs std > 0, got mean={self.mean}, std={self.std}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.std, size)


Distribution = Uniform | Normal


@dataclass(frozen=True)
class ProxyDist:
    """Per-group normal specs for one proxy attribute, keyed by protected value."""

    group0: Normal
    group1: Normal

    def validate(self) -> None:
        self.group0.validate()
        self.group1.validate()


@dataclass(frozen=True)
class GenConfig:
    """Recipe for one synthetic pool. Identical configs yield identical pools.

    Attributes
    ----------
    p_group : probability that a candidate's protected attribute equals 1.
    harmless_dists : distribution spec per harmless attribute.
    proxy_dists : per-group normal pair per proxy attribute.
    n : pool size.
    seed : 64-bit unsigned seed for the pool's generator.
    """

    p_group: float
    harmless_dists: tuple[Distribution, ...]
    proxy_dists: tuple[ProxyDist, ...]
    n: int
    seed: int

    @property
    def m1(self) -> int:
        return len(self.harmless_dists)

    @property
    def m2(self) -> int:
        return len(self.proxy_dists)

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    def validate(self) -> None:
        if not 0.0 <= self.p_group <= 1.0:
            raise ConfigError(f"p_group must lie in [0, 1], got {self.p_group}")
        if self.n < 1:
            raise ConfigError(f"pool size must be positive, got {self.n}")
        if self.m < 1:
            raise ConfigError("at least one attribute is required")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for dist in self.harmless_dists:
            dist.validate()
        for proxy in self.proxy_dists:
            proxy.validate()


@dataclass(frozen=True, eq=False)
class Pool:
    """Candidates in columns: ``features`` is (n, m) float, ``protected`` is (n,) int.

    Both arrays are private read-only copies, so a pool never changes after
    construction and can hand them out without copying again.
    """

    features: np.ndarray
    protected: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=float)
        protected = np.array(self.protected, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] < 1 or protected.shape != features.shape[:1]:
            raise DimensionMismatch(
                f"features {features.shape} and protected {protected.shape} are not (n, m) and (n,)"
            )
        if protected.size == 0:
            raise ConfigError("pool is empty")
        features.setflags(write=False)
        protected.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "protected", protected)

    def __len__(self) -> int:
        return self.protected.size


def default_config(*, p_group: float = 0.5, n: int = 12000, seed: int = 0) -> GenConfig:
    """Default pool recipe: one harmless uniform attribute and two opposed proxies.

    The proxy means are mirrored across groups (0.35 vs 0.65 with std 0.12),
    so the second proxy runs high for group 1 exactly where the third runs low.
    """
    return GenConfig(
        p_group=p_group,
        harmless_dists=(Uniform(0.0, 1.0),),
        proxy_dists=(
            ProxyDist(group0=Normal(0.35, 0.12), group1=Normal(0.65, 0.12)),
            ProxyDist(group0=Normal(0.65, 0.12), group1=Normal(0.35, 0.12)),
        ),
        n=n,
        seed=seed,
    )


def generate_pool(cfg: GenConfig) -> Pool:
    """Draw a pool of ``cfg.n`` candidates.

    Draw order is part of the determinism contract and is pinned as follows,
    all on a single ``numpy.random.default_rng(cfg.seed)`` (PCG64) stream:

    1. protected attributes, ``n`` uniform variates compared against p_group;
    2. each harmless attribute column, left to right, ``n`` variates each;
    3. each proxy attribute column, left to right, ``n`` standard normal
       variates each, scaled and shifted by the per-group (mean, std).

    Values are not clipped; proxy draws may fall outside [0, 1].
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    protected = (rng.random(cfg.n) < cfg.p_group).astype(np.int64)
    columns = []
    for dist in cfg.harmless_dists:
        columns.append(dist.sample(rng, cfg.n))
    for proxy in cfg.proxy_dists:
        z = rng.standard_normal(cfg.n)
        mean = np.where(protected == 1, proxy.group1.mean, proxy.group0.mean)
        std = np.where(protected == 1, proxy.group1.std, proxy.group0.std)
        columns.append(mean + std * z)
    return Pool(features=np.column_stack(columns), protected=protected)


def feature_matrix(pool: Pool) -> np.ndarray:
    """The pool's read-only (n, m) feature array, not a copy."""
    return pool.features


def protected_values(pool: Pool) -> np.ndarray:
    """The pool's read-only (n,) protected-value array, not a copy."""
    return pool.protected


def write_columns(path: str | Path, features: np.ndarray, int_columns: dict) -> None:
    """Write CSV with header ``x1,...,xm`` plus the named integer columns.

    Floats are serialized with 17 significant digits so that reading restores
    them bit for bit.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j + 1}" for j in range(features.shape[1])] + list(int_columns))
        for x, ints in zip(features, zip(*int_columns.values())):
            writer.writerow([format(v, ".17g") for v in x] + [int(v) for v in ints])


def read_columns(path: str | Path, int_names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Read CSV written by :func:`write_columns`.

    Returns the (n, m) float features and an (n, len(int_names)) int array.
    Every cell must parse, every feature must be finite and every integer 0
    or 1; otherwise a ConfigError names the file and the 1-based data row.
    """
    width = len(int_names)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        m = len(header) - width
        if m < 1 or header != [f"x{j + 1}" for j in range(m)] + int_names:
            raise ConfigError(f"{path}: header {header} is not x1..xm followed by {int_names}")
        features, ints = [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != m + width:
                raise ConfigError(
                    f"{path}: data row {row_no} has {len(row)} fields, expected {m + width}"
                )
            try:
                features.append([float(v) for v in row[:m]])
                ints.append([int(v) for v in row[m:]])
            except ValueError as exc:
                raise ConfigError(f"{path}: data row {row_no}: {exc}") from None
    if not features:
        raise ConfigError(f"{path}: empty pool")
    features, ints = np.array(features, dtype=float), np.array(ints, dtype=np.int64)
    for values, names, ok, problem in (
        (features, header[:m], np.isfinite(features), "is not finite"),
        (ints, int_names, (ints == 0) | (ints == 1), "is not 0 or 1"),
    ):
        bad = np.argwhere(~ok)
        if bad.size:
            row, col = bad[0]
            raise ConfigError(
                f"{path}: data row {row + 1}: {names[col]} = {values[row, col]} {problem}"
            )
    return features, ints


def save_pool(pool: Pool, path: str | Path) -> None:
    """Write a pool as CSV with header ``x1,...,xm,protected``."""
    write_columns(path, pool.features, {"protected": pool.protected})


def load_pool(path: str | Path) -> Pool:
    """Read a pool written by :func:`save_pool`."""
    features, ints = read_columns(path, ["protected"])
    return Pool(features=features, protected=ints[:, 0])


def check_config_keys(obj, allowed, what: str) -> None:
    """Raise ConfigError unless ``obj`` is a dict whose keys all lie in ``allowed``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; expected a subset of {sorted(allowed)}")


def _dist_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "lo": dist.lo, "hi": dist.hi}
    if isinstance(dist, Normal):
        return {"kind": "normal", "mean": dist.mean, "std": dist.std}
    raise ConfigError(f"unknown distribution type {type(dist).__name__}")


def _dist_from_dict(obj: dict) -> Distribution:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "uniform":
        check_config_keys(obj, ("kind", "lo", "hi"), "uniform distribution")
        return Uniform(lo=float(obj["lo"]), hi=float(obj["hi"]))
    if kind == "normal":
        check_config_keys(obj, ("kind", "mean", "std"), "normal distribution")
        return Normal(mean=float(obj["mean"]), std=float(obj["std"]))
    raise ConfigError(f"unknown distribution kind {kind!r} in {obj!r}")


def gen_config_to_dict(cfg: GenConfig) -> dict:
    """JSON-ready dict for a :class:`GenConfig`."""
    return {
        "p_group": cfg.p_group,
        "harmless_dists": [_dist_to_dict(d) for d in cfg.harmless_dists],
        "proxy_dists": [
            {"group0": _dist_to_dict(p.group0), "group1": _dist_to_dict(p.group1)}
            for p in cfg.proxy_dists
        ],
        "n": cfg.n,
        "seed": cfg.seed,
    }


def gen_config_from_dict(obj: dict) -> GenConfig:
    """Inverse of :func:`gen_config_to_dict`; missing fields take defaults.

    Raises ConfigError for anything but a JSON object and for unknown keys.
    """
    check_config_keys(obj, ("p_group", "harmless_dists", "proxy_dists", "n", "seed"), "pool config")
    base = default_config()
    harmless = base.harmless_dists
    if "harmless_dists" in obj:
        harmless = tuple(_dist_from_dict(d) for d in obj["harmless_dists"])
    proxies = base.proxy_dists
    if "proxy_dists" in obj:
        parsed = []
        for p in obj["proxy_dists"]:
            check_config_keys(p, ("group0", "group1"), "proxy distribution")
            g0 = _dist_from_dict(p["group0"])
            g1 = _dist_from_dict(p["group1"])
            if not isinstance(g0, Normal) or not isinstance(g1, Normal):
                raise ConfigError("proxy attributes must use normal distributions")
            parsed.append(ProxyDist(group0=g0, group1=g1))
        proxies = tuple(parsed)
    cfg = GenConfig(
        p_group=float(obj.get("p_group", base.p_group)),
        harmless_dists=harmless,
        proxy_dists=proxies,
        n=int(obj.get("n", base.n)),
        seed=int(obj.get("seed", base.seed)),
    )
    cfg.validate()
    return cfg
