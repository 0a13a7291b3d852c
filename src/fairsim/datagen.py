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
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from .errors import ConfigError, DimensionMismatch, FairsimError, NumericalError


@dataclass(frozen=True)
class Uniform:
    """Uniform draw on ``[lo, hi]``."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        # numpy draws lo + (hi - lo) * u, so the span itself must be a finite float.
        span = float(self.hi) - float(self.lo)
        if not 0.0 <= span < np.inf:
            raise ConfigError(
                f"uniform bounds must satisfy lo <= hi with a finite span hi - lo, "
                f"got [{self.lo}, {self.hi}]"
            )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Normal:
    """Normal draw with the given mean and standard deviation."""

    mean: float
    std: float

    def __post_init__(self):
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

    The defaults are one harmless uniform attribute and two opposed proxies
    whose means mirror across groups (0.35 vs 0.65 with std 0.12), so the
    second attribute runs high for group 1 exactly where the third runs low.
    """

    p_group: float = 0.5
    harmless_dists: tuple[Distribution, ...] = (Uniform(0.0, 1.0),)
    proxy_dists: tuple[ProxyDist, ...] = (
        ProxyDist(group0=Normal(0.35, 0.12), group1=Normal(0.65, 0.12)),
        ProxyDist(group0=Normal(0.65, 0.12), group1=Normal(0.35, 0.12)),
    )
    n: int = 12000
    seed: int = 0

    @property
    def m1(self) -> int:
        return len(self.harmless_dists)

    @property
    def m2(self) -> int:
        return len(self.proxy_dists)

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    def __post_init__(self):
        if not 0.0 <= self.p_group <= 1.0:
            raise ConfigError(f"p_group must lie in [0, 1], got {self.p_group}")
        if self.n < 1:
            raise ConfigError(f"pool size must be positive, got {self.n}")
        if self.m < 1:
            raise ConfigError("at least one attribute is required")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Pool:
    """Candidates in columns: ``features`` is (n, m) finite float, ``protected`` is (n,) int.

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
        if not np.all(np.isfinite(features)):
            raise NumericalError("pool features must be finite")
        features.setflags(write=False)
        protected.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "protected", protected)

    def __len__(self) -> int:
        return self.protected.size


def default_config(
    *, p_group: float = GenConfig.p_group, n: int = GenConfig.n, seed: int = GenConfig.seed
) -> GenConfig:
    """The default pool recipe (the :class:`GenConfig` defaults) with the given overrides."""
    return GenConfig(p_group=p_group, n=n, seed=seed)


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


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as one line of JSON plus a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def float_array(value) -> np.ndarray:
    """``value`` as a float array; raises ValueError or TypeError if it is not numeric."""
    return np.asarray(value, dtype=float)


def read_json_keys(path: str | Path, casts: dict, build):
    """Read a JSON object, convert the value of each key in ``casts``, and
    return ``build(*values)``.

    ``int`` and ``float`` follow the rules of :func:`config_from_dict`; other
    casts are called. ConfigError names the file and a missing or bad key; a
    FairsimError raised by ``build`` is re-raised as the same type with the
    file name in front.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    values = []
    for key, cast in casts.items():
        where = f"{path}: key {key!r}"
        if key not in payload:
            raise ConfigError(f"{where} is missing")
        if cast in (int, float):
            values.append(_decode(cast, payload[key], where))
            continue
        try:
            values.append(cast(payload[key]))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where} is not numeric: {exc}") from None
    try:
        return build(*values)
    except FairsimError as exc:
        raise type(exc)(f"{path}: {exc}") from None


DIST_KINDS = {"uniform": Uniform, "normal": Normal}


def config_to_dict(value):
    """JSON-ready form of a config dataclass: its fields in order, tuples as lists.

    A distribution also carries its ``"kind"`` from :data:`DIST_KINDS`.
    """
    if isinstance(value, (tuple, list)):
        return [config_to_dict(v) for v in value]
    if not is_dataclass(value):
        return value
    kind = {"kind": k for k, cls in DIST_KINDS.items() if type(value) is cls}
    return kind | {f.name: config_to_dict(getattr(value, f.name)) for f in fields(value)}


def config_from_dict(cls, obj, path: str):
    """Inverse of :func:`config_to_dict`, decoding each field by its annotation.

    Missing fields take their dataclass defaults. A ConfigError names the dotted
    ``path`` of an unknown key, of a missing field without a default, and of a
    wrongly typed value: a bool or string for a number, a float for an integer,
    a scalar for a list, or a distribution kind the annotation does not allow.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object, got {type(obj).__name__}")
    names = sorted(f.name for f in fields(cls))
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; expected a subset of {names}")
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _decode(f.type, obj[f.name], f"{path}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name} is missing")
    return cls(**values)


def _decode(annotation, value, path: str):
    if annotation in (int, float):
        allowed = (int, float) if annotation is float else int
        typed = isinstance(value, allowed) and not isinstance(value, bool)
        if not (typed and abs(value) <= float(np.finfo(float).max)):
            what = "a finite number" if annotation is float else "an integer"
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return annotation(value)
    if get_origin(annotation) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        item = get_args(annotation)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    allowed = get_args(annotation) or (annotation,)
    if not set(allowed) <= set(DIST_KINDS.values()):
        return config_from_dict(annotation, value, path)
    kind = value.get("kind") if isinstance(value, dict) else None
    if DIST_KINDS.get(kind) not in allowed:
        names = sorted(k for k, c in DIST_KINDS.items() if c in allowed)
        raise ConfigError(f"{path}: distribution kind {kind!r} is not one of {names}")
    return config_from_dict(DIST_KINDS[kind], {k: v for k, v in value.items() if k != "kind"}, path)


def gen_config_to_dict(cfg: GenConfig) -> dict:
    """JSON-ready dict for a :class:`GenConfig`."""
    return config_to_dict(cfg)


def gen_config_from_dict(obj) -> GenConfig:
    """Inverse of :func:`gen_config_to_dict`; see :func:`config_from_dict`."""
    return config_from_dict(GenConfig, obj, "pool config")
