"""Run configuration: YAML schema, validation and object builders.

One YAML document describes a run.  The ``scaling`` block declares the
refinement family of book models together with its limit; command-specific
blocks add grids, experiment sizes and oracle parameters.  Parsing either
returns a validated :class:`RunConfig` or raises :class:`ConfigError`
carrying every violation found, each tagged with its key path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from . import limit as limit_mod
from .families import (
    spatial_profile_from_params,
    time_profile_from_params,
)
from .micro import (
    ACTIVE_TYPES,
    PASSIVE_TYPES,
    ActiveRateFamily,
    ScalingFamily,
    SizeMeasure,
    TickGrid,
)

SCHEMA_VERSION = 1
COMMANDS = ("simulate-micro", "solve-limit", "converge", "oracle-check", "resolvent")


class ConfigError(ValueError):
    """Validation failure; ``errors`` lists (key_path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"  {path}: {msg}" for path, msg in self.errors]
        super().__init__("invalid configuration:\n" + "\n".join(lines))


class _Checker:
    def __init__(self):
        self.errors: list[tuple[str, str]] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append((path, msg))

    def require(self, data: dict, key: str, path: str, kind=None):
        if key not in data:
            self.fail(f"{path}.{key}", "missing required key")
            return None
        val = data[key]
        if kind is not None and not isinstance(val, kind):
            self.fail(f"{path}.{key}", f"expected {kind}, got {type(val).__name__}")
            return None
        return val

    def number(self, data: dict, key: str, path: str, default=None,
               minimum=None, positive=False):
        if key not in data:
            if default is None:
                self.fail(f"{path}.{key}", "missing required number")
            return default
        val = data[key]
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            self.fail(f"{path}.{key}", "expected a number")
            return default
        # a failed value is not returned, so later checks do not run on it
        if not math.isfinite(val):
            self.fail(f"{path}.{key}", "must be finite")
            return None
        if positive and val <= 0:
            self.fail(f"{path}.{key}", "must be positive")
            return None
        if minimum is not None and val < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}")
            return None
        return float(val)


@dataclass
class RunConfig:
    """Validated configuration; ``data`` is the canonicalized document."""

    model: str
    seed: int
    data: dict

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def to_dict(self) -> dict:
        return self.data

    def serialize(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=True)

    # -- builders ----------------------------------------------------------

    def scaling_family(self) -> ScalingFamily:
        return build_scaling_family(self.data["scaling"])

    def limit_params(self) -> limit_mod.LimitParams:
        n_x = int(self.data.get("grid", {}).get("n_x", 113))
        return self.scaling_family().limit_params(n_x=n_x)

    def test_fns(self) -> list:
        fns = []
        for spec in self.data.get("experiment", {}).get("test_fns", []):
            prof = spatial_profile_from_params(
                {k: v for k, v in spec.items() if k != "name"}
            )
            fns.append(limit_mod.SpatialTestFn(spec["name"], prof.value))
        return fns


def _profile_fn(params: dict):
    prof = spatial_profile_from_params(params)
    return prof.value


def build_scaling_family(block: dict) -> ScalingFamily:
    book = block["book"]
    kernels = block.get("kernels", {})

    def kv(table_name, entry, wants):
        """Build one kernel table entry from its declaration."""
        time = time_profile_from_params(entry["time"])
        key = (entry["target"], entry["source"])
        if wants == "time":
            return key, time
        if wants == "in":
            return key, (spatial_profile_from_params(entry["in_profile"]), time)
        if wants == "out":
            return key, (spatial_profile_from_params(entry["out_profile"]), time)
        return key, (
            spatial_profile_from_params(entry["out_profile"]),
            spatial_profile_from_params(entry["in_profile"]),
            time,
        )

    tables = {}
    for name, wants in (
        ("act_from_act", "time"), ("drift_from_act", "time"),
        ("act_from_pas", "in"), ("drift_from_pas", "in"),
        ("pas_from_act", "out"), ("pas_from_pas", "outin"),
    ):
        tables[name] = dict(kv(name, e, wants) for e in kernels.get(name, []))

    return ScalingFamily(
        delta_x=float(block["delta_x"]),
        delta_v=float(block["delta_v"]),
        half_width=float(block["half_width"]),
        ask_price0=float(book["ask_price"]),
        bid_price0=float(book["bid_price"]),
        ask_volume0=_profile_fn(book["ask_volume"]),
        bid_volume0=_profile_fn(book["bid_volume"]),
        rates={
            s: ActiveRateFamily(block["rates"][s]["family"], block["rates"][s]["scale"])
            for s in "ab"
        },
        base_active={s: float(block["base_active"][s]) for s in "ab"},
        base_drift={s: float(block.get("base_drift", {}).get(s, 0.0)) for s in "ab"},
        base_passive={
            pt: (float(spec["factor"]), spatial_profile_from_params(spec["profile"]))
            for pt, spec in block["base_passive"].items()
        },
        sizes={
            pt: SizeMeasure(**spec) for pt, spec in block["sizes"].items()
        },
        **tables,
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration.

    The document loads through libyaml's scanner when PyYAML was built with
    it (``CSafeLoader``: same resolver and constructors, so the same data),
    else through PyYAML's pure-Python ``SafeLoader``.  YAML syntax errors
    surface with the parser's line marks; semantic errors carry the key
    path of the offending entry.
    """
    try:
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError([("<document>", f"YAML syntax error: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "top level must be a mapping")])

    chk = _Checker()
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        chk.fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    model = raw.get("model")
    if model not in ("micro", "limit", "converge", "oracle", "resolvent"):
        chk.fail("model", f"unknown model {model!r}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        chk.fail("seed", "must be a nonnegative integer")
        seed = 0

    if model in ("micro", "limit", "converge"):
        _validate_scaling(raw.get("scaling"), chk, on_ticks=model != "limit")
        _validate_grid(raw.get("grid", {}), chk)
    if model == "converge":
        _validate_experiment(raw.get("experiment", {}), chk)
    if model == "oracle":
        _validate_oracle(raw.get("oracle"), chk)
    if model == "resolvent":
        _validate_resolvent(raw.get("resolvent"), chk)

    if chk.errors:
        raise ConfigError(chk.errors)

    cfg = RunConfig(model=model, seed=int(seed), data=raw)
    if model in ("micro", "limit", "converge"):
        try:
            cfg.scaling_family()
        except (ValueError, KeyError) as exc:
            raise ConfigError([("scaling", str(exc))]) from exc
    return cfg


def _validate_scaling(block, chk: _Checker, on_ticks: bool) -> None:
    """Check the scaling block; ``on_ticks`` asks for start prices on the
    level-0 tick grid, which every finer level contains."""
    if not isinstance(block, dict):
        chk.fail("scaling", "missing scaling block")
        return
    dx = chk.number(block, "delta_x", "scaling", positive=True)
    dv = chk.number(block, "delta_v", "scaling", positive=True)
    if dx is not None and dv is not None and dv > dx:
        chk.fail(
            "scaling.delta_v",
            "order size must not exceed the tick size: the proportional "
            "cancellation factor would push volumes negative",
        )
    chk.number(block, "half_width", "scaling", positive=True)

    book = chk.require(block, "book", "scaling", dict)
    if book is not None:
        ask = chk.number(book, "ask_price", "scaling.book")
        bid = chk.number(book, "bid_price", "scaling.book")
        if ask is not None and bid is not None and ask < bid:
            chk.fail("scaling.book.ask_price", "must not be below bid_price: the "
                     "book would start crossed")
        for key, price in (("ask_price", ask), ("bid_price", bid)):
            if on_ticks and price is not None and dx is not None:
                try:
                    TickGrid(dx).to_tick_exact(price)
                except ValueError as exc:
                    chk.fail(f"scaling.book.{key}", str(exc))
        for key in ("ask_volume", "bid_volume"):
            prof = chk.require(book, key, "scaling.book", dict)
            if prof is not None:
                _check_profile(prof, f"scaling.book.{key}", chk)

    rates = chk.require(block, "rates", "scaling", dict)
    if rates is not None:
        for s in "ab":
            spec = chk.require(rates, s, "scaling.rates", dict)
            if spec is not None:
                if spec.get("family") not in ("spread_linear", "constant"):
                    chk.fail(f"scaling.rates.{s}.family",
                             f"unknown rate family {spec.get('family')!r}")
                chk.number(spec, "scale", f"scaling.rates.{s}", minimum=0.0)

    base_act = chk.require(block, "base_active", "scaling", dict)
    if base_act is not None:
        for s in "ab":
            chk.number(base_act, s, "scaling.base_active", minimum=0.0)

    base_pas = chk.require(block, "base_passive", "scaling", dict)
    if base_pas is not None:
        for pt in PASSIVE_TYPES:
            spec = chk.require(base_pas, pt, "scaling.base_passive", dict)
            if spec is not None:
                chk.number(spec, "factor", f"scaling.base_passive.{pt}", minimum=0.0)
                prof = chk.require(spec, "profile", f"scaling.base_passive.{pt}", dict)
                if prof is not None:
                    _check_profile(prof, f"scaling.base_passive.{pt}.profile", chk)

    sizes = chk.require(block, "sizes", "scaling", dict)
    if sizes is not None:
        for pt in PASSIVE_TYPES:
            spec = chk.require(sizes, pt, "scaling.sizes", dict)
            if spec is not None:
                try:
                    SizeMeasure(**spec)
                except (ValueError, TypeError) as exc:
                    chk.fail(f"scaling.sizes.{pt}", str(exc))

    kernels = block.get("kernels", {})
    if not isinstance(kernels, dict):
        chk.fail("scaling.kernels", "must be a mapping of kernel tables")
        return
    known = {"act_from_act", "drift_from_act", "act_from_pas", "drift_from_pas",
             "pas_from_act", "pas_from_pas"}
    for name, entries in kernels.items():
        if name not in known:
            chk.fail(f"scaling.kernels.{name}", "unknown kernel table")
            continue
        if not isinstance(entries, list):
            chk.fail(f"scaling.kernels.{name}", "must be a list of entries")
            continue
        targets = ("ab" if name.startswith(("act", "drift")) else PASSIVE_TYPES)
        sources = (ACTIVE_TYPES if name.endswith("act") else PASSIVE_TYPES)
        for i, e in enumerate(entries):
            path = f"scaling.kernels.{name}[{i}]"
            if not isinstance(e, dict):
                chk.fail(path, "must be a mapping")
                continue
            if e.get("target") not in targets:
                chk.fail(f"{path}.target", f"must be one of {tuple(targets)}")
            if e.get("source") not in sources:
                chk.fail(f"{path}.source", f"must be one of {tuple(sources)}")
            time = chk.require(e, "time", path, dict)
            if time is not None:
                try:
                    time_profile_from_params(time)
                except ValueError as exc:
                    chk.fail(f"{path}.time", str(exc))
            needs = []
            if name in ("act_from_pas", "drift_from_pas"):
                needs = ["in_profile"]
            elif name == "pas_from_act":
                needs = ["out_profile"]
            elif name == "pas_from_pas":
                needs = ["out_profile", "in_profile"]
            for prof_key in needs:
                prof = chk.require(e, prof_key, path, dict)
                if prof is not None:
                    _check_profile(prof, f"{path}.{prof_key}", chk)


def _check_profile(params: dict, path: str, chk: _Checker) -> None:
    try:
        spatial_profile_from_params(params)
    except ValueError as exc:
        chk.fail(path, str(exc))


def _validate_grid(block: dict, chk: _Checker) -> None:
    if not isinstance(block, dict):
        chk.fail("grid", "must be a mapping")
        return
    n_x = block.get("n_x", 113)
    if not isinstance(n_x, int) or n_x < 3 or n_x % 2 == 0:
        chk.fail("grid.n_x", "must be an odd integer >= 3")
    chk.number(block, "dt", "grid", default=1e-3, positive=True)
    chk.number(block, "horizon", "grid", default=1.0, positive=True)


def _validate_experiment(block: dict, chk: _Checker) -> None:
    if not isinstance(block, dict):
        chk.fail("experiment", "must be a mapping")
        return
    levels = block.get("levels", [0, 1, 2, 3])
    if (not isinstance(levels, list) or len(levels) < 3
            or any(not isinstance(k, int) or k < 0 for k in levels)):
        chk.fail("experiment.levels", "need a list of >= 3 nonnegative levels")
    elif any(k >= k_next for k, k_next in zip(levels, levels[1:])):
        chk.fail("experiment.levels", "levels must be strictly increasing")
    reps = block.get("replicates", 400)
    if not isinstance(reps, int) or reps < 100:
        chk.fail("experiment.replicates", "need an integer >= 100")
    lim = block.get("limit_paths", 2000)
    if not isinstance(lim, int) or lim < 100:
        chk.fail("experiment.limit_paths", "need an integer >= 100")
    for i, fn in enumerate(block.get("test_fns", [])):
        if not isinstance(fn, dict) or "name" not in fn:
            chk.fail(f"experiment.test_fns[{i}]", "needs a name and profile params")
            continue
        _check_profile({k: v for k, v in fn.items() if k != "name"},
                       f"experiment.test_fns[{i}]", chk)


def _validate_oracle(block, chk: _Checker) -> None:
    if not isinstance(block, dict):
        chk.fail("oracle", "missing oracle block")
        return
    check = block.get("check")
    if check not in ("cir", "clustering"):
        chk.fail("oracle.check", f"unknown oracle check {check!r}")
        return
    if check == "cir":
        chk.number(block, "x0", "oracle", positive=True)
        chk.number(block, "a", "oracle", default=1.0, minimum=0.0)
        chk.number(block, "b", "oracle", default=0.0)
        chk.number(block, "c", "oracle", default=1.0, minimum=0.0)
        chk.number(block, "horizon", "oracle", default=1.0, positive=True)
        chk.number(block, "dt", "oracle", default=1e-3, positive=True)
        n = block.get("paths", 10000)
        if not isinstance(n, int) or n < 1:
            chk.fail("oracle.paths", "need a positive integer")
    else:
        for key in ("sigma2", "c", "kappa", "p0"):
            chk.number(block, key, "oracle", minimum=0.0)
        chk.number(block, "t0", "oracle", default=1.0, positive=True)
        chk.number(block, "eps", "oracle", default=0.1, positive=True)
        chk.number(block, "lag", "oracle", default=0.1, positive=True)
        n = block.get("replicates", 100000)
        if not isinstance(n, int) or n < 100:
            chk.fail("oracle.replicates", "need an integer >= 100")


def _validate_resolvent(block, chk: _Checker) -> None:
    if not isinstance(block, dict):
        chk.fail("resolvent", "missing resolvent block")
        return
    fam = block.get("family")
    if fam not in ("constant", "exponential", "gamma"):
        chk.fail("resolvent.family", f"no closed forms for family {fam!r}")
    chk.number(block, "c", "resolvent", positive=True)
    if fam in ("exponential", "gamma"):
        chk.number(block, "kappa", "resolvent", positive=True)
    chk.number(block, "horizon", "resolvent", default=1.0, positive=True)
    chk.number(block, "dt", "resolvent", default=1e-3, positive=True)
