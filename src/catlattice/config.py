"""Run configuration: JSON in, validated dataclass out.

A config is one human-editable JSON document.  All energies and rates are
in units of gamma, and every number must be finite (JSON parsers accept
NaN and Infinity).  Validation aggregates every complaint into a single
error instead of failing on the first.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

from .lattice import ModelParams, geometry_from_size

ENV_OUTPUT_DIR = "CATLATTICE_OUTDIR"

_SOLVER_METHODS = ("auto", "direct", "corner")
_KINDS = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false"}
_LISTS = {int: "a list of integers", float: "a list of numbers"}


def _fits(value, default):
    """Whether a JSON value has the type of a field's default; a list
    default's first entry, if any, is the type of every entry."""
    if isinstance(default, list):
        return isinstance(value, list) and (
            not default or all(_fits(v, default[0]) for v in value))
    kind = (int, float) if isinstance(default, float) else type(default)
    return (isinstance(value, kind)
            and isinstance(value, bool) == isinstance(default, bool))


def _kind(default):
    if isinstance(default, list):
        return _LISTS[type(default[0])] if default else "a list"
    return _KINDS[type(default)]


@dataclass
class SolverConfig:
    method: str = "auto"
    exact_dim_cap: int = 130     # largest Hilbert dimension solved exactly


@dataclass
class CornerConfig:
    m_list: list = field(default_factory=lambda: [32, 48, 64])
    leaf_sites_max: int = 2
    drift_tol: float = 1e-3


@dataclass
class RunConfig:
    label: str
    u: float
    j_hop: float
    sizes: list                  # size specs: int, "LxL", or [lx, ly]
    n_max: int
    g_values: list
    gamma: float = 1.0
    eta: float | None = None     # None -> resonant convention eta = gamma
    delta: float | None = None   # None -> resonant convention delta = -|J|
    resonant_convention: bool = True
    solver: SolverConfig = field(default_factory=SolverConfig)
    corner: CornerConfig = field(default_factory=CornerConfig)
    output_dir: str | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(["a config is a JSON object, not %s"
                               % type(d).__name__])
        errors = []
        required = ("label", "u", "j_hop", "sizes", "n_max", "g_values")
        for key in required:
            if key not in d:
                errors.append("missing required field '%s'" % key)
        known = set(required) | {
            "gamma", "eta", "delta", "resonant_convention", "solver", "corner",
            "output_dir",
        }
        for key in d:
            if key not in known:
                errors.append("unknown field '%s'" % key)
        typed = [(key, d[key], default) for key, default in (
            ("label", ""), ("u", 0.0), ("j_hop", 0.0), ("sizes", []),
            ("n_max", 0), ("g_values", [0.0]), ("gamma", 0.0),
            ("eta", 0.0), ("delta", 0.0), ("resonant_convention", True))
            if key in d and not (d[key] is None and key in ("eta", "delta"))]
        for name, sub in (("solver", SolverConfig), ("corner", CornerConfig)):
            given = d.get(name, {})
            if not isinstance(given, dict):
                errors.append("%s must be an object" % name)
                continue
            defaults = asdict(sub())
            errors += ["unknown field '%s.%s'" % (name, key)
                       for key in given if key not in defaults]
            typed += [("%s.%s" % (name, key), value, defaults[key])
                      for key, value in given.items() if key in defaults]
        errors += ["%s must be %s" % (key, _kind(default))
                   for key, value, default in typed
                   if not _fits(value, default)]
        if errors:
            raise ConfigError(errors)

        solver = SolverConfig(**d.get("solver", {}))
        corner = CornerConfig(**d.get("corner", {}))
        cfg = cls(
            label=d["label"],
            u=float(d["u"]),
            j_hop=float(d["j_hop"]),
            sizes=list(d["sizes"]),
            n_max=int(d["n_max"]),
            g_values=[float(g) for g in d["g_values"]],
            gamma=float(d.get("gamma", 1.0)),
            eta=None if d.get("eta") is None else float(d["eta"]),
            delta=None if d.get("delta") is None else float(d["delta"]),
            resonant_convention=d.get("resonant_convention", True),
            solver=solver,
            corner=corner,
            output_dir=d.get("output_dir"),
        )
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path):
        """The config in the JSON file at path; a file that cannot be read
        or parsed is a ConfigError, as is any invalid content."""
        try:
            with open(path) as fh:
                d = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(["cannot read %s: %s" % (path, e)])
        return cls.from_dict(d)

    def validate(self):
        errors = ["%s must be finite" % key for key, value in (
            ("u", self.u), ("j_hop", self.j_hop), ("gamma", self.gamma),
            ("eta", self.eta), ("delta", self.delta),
            ("corner.drift_tol", self.corner.drift_tol))
            if value is not None and not math.isfinite(value)]
        if not all(math.isfinite(g) for g in self.g_values):
            errors.append("g_values must be finite")
        if self.gamma <= 0:
            errors.append("gamma must be > 0")
        if self.u < 0:
            errors.append("u must be >= 0")
        if self.eta is not None and self.eta < 0:
            errors.append("eta must be >= 0")
        if self.n_max < 1:
            errors.append("n_max must be >= 1")
        if not self.g_values:
            errors.append("g_values is empty")
        if any(g < 0 for g in self.g_values):
            errors.append("g_values must be >= 0 (real drive amplitudes)")
        if len(set(self.g_values)) != len(self.g_values):
            errors.append("g_values contains duplicates")
        if not self.sizes:
            errors.append("sizes is empty")
        for s in self.sizes:
            try:
                geometry_from_size(s)
            except ValueError as e:
                errors.append("bad size %r: %s" % (s, e))
        if self.solver.method not in _SOLVER_METHODS:
            errors.append("solver.method must be one of %s"
                          % (_SOLVER_METHODS,))
        if self.solver.exact_dim_cap < 0:
            errors.append("solver.exact_dim_cap must be >= 0")
        if self.corner.drift_tol < 0:
            errors.append("corner.drift_tol must be >= 0")
        if not self.corner.m_list or any(m < 1 for m in self.corner.m_list):
            errors.append("corner.m_list must be nonempty positive")
        m_list = self.corner.m_list
        if any(a >= b for a, b in zip(m_list, m_list[1:])):
            errors.append("corner.m_list must be strictly ascending")
        if self.corner.leaf_sites_max < 1:
            errors.append("corner.leaf_sites_max must be >= 1")
        if not self.resonant_convention and self.delta is None:
            errors.append("delta is required when resonant_convention is off")
        errors += ["%s cannot be set while resonant_convention is on" % key
                   for key in ("eta", "delta") if self.resonant_convention
                   and getattr(self, key) is not None]
        if errors:
            raise ConfigError(errors)

    # -- derived views -----------------------------------------------

    def effective_delta(self):
        if self.resonant_convention or self.delta is None:
            return -abs(self.j_hop)
        return self.delta

    def effective_eta(self):
        if self.resonant_convention or self.eta is None:
            return self.gamma
        return self.eta

    def model_params(self, g):
        return ModelParams(delta=self.effective_delta(), u=self.u, g=g,
                           j_hop=self.j_hop, gamma=self.gamma,
                           eta=self.effective_eta())

    def geometries(self):
        return [geometry_from_size(s) for s in self.sizes]

    def resolved_output_dir(self):
        if self.output_dir:
            return self.output_dir
        return os.environ.get(ENV_OUTPUT_DIR, os.path.join(".", "runs"))

    def to_dict(self):
        return asdict(self)

    def config_hash(self):
        """Hash of the per-point physics: model parameters, truncation and
        solver controls.  Paths, label and the sweep schedule (sizes,
        g_values) do not enter, so a moved store still resumes and a grid
        can be extended without recomputing the points already done."""
        d = self.to_dict()
        for key in ("output_dir", "label", "sizes", "g_values"):
            d.pop(key)
        text = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class ConfigError(ValueError):
    """All validation complaints for a config, aggregated."""

    def __init__(self, problems):
        self.problems = list(problems)
        sep = "\n  - " if len(self.problems) > 1 else " "
        super().__init__("invalid config:" + sep + sep.join(self.problems))


# os.path, not importlib.resources: presets/ ships beside this file, and
# importlib.resources costs a fresh process about 30 ms and 4 MB
_PRESET_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "presets")


def preset_names():
    return sorted(name[:-5] for name in os.listdir(_PRESET_DIR)
                  if name.endswith(".json"))


def load_preset(name):
    path = os.path.join(_PRESET_DIR, name + ".json")
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise KeyError("unknown preset %r; available: %s"
                       % (name, ", ".join(preset_names())))
    return RunConfig.from_dict(json.loads(text))
