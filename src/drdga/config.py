"""Experiment configuration: INI-style files with [experiment], [problem], [graph], [run].

Every validation failure raises ConfigError naming the offending
"section.field" and the violated constraint. See the packaged configs under
drdga/configs/ for complete examples of both problem families.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import RunConfig
from .errors import ConfigError
from .graph import GraphSequence, generate_graph_sequence, parse_edge_list
from .problem import CoupledProblem, make_num_problem, make_quadratic_problem

ALGORITHMS = ("drdga", "cdda")

_KNOWN_KEYS = {
    "experiment": {"algorithm"},
    "problem": {"family", "routing", "capacities", "gammas", "m", "p", "dims", "seed", "tau_min"},
    "graph": {"mode", "window", "pool_size", "seed", "path"},
    "run": {"q", "t_max", "epsilon", "theta0"},
}


@dataclass(frozen=True)
class Experiment:
    """A fully validated experiment: problem, graph schedule, run settings, algorithm."""

    problem: CoupledProblem
    seq: GraphSequence
    run: RunConfig
    algorithm: str


class _Section:
    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else None

    def require_present(self):
        if self.raw is None:
            raise ConfigError(f"{self.name}: missing section")
        return self

    def check_keys(self):
        if self.raw is None:
            return self
        unknown = set(self.raw) - _KNOWN_KEYS[self.name]
        if unknown:
            raise ConfigError(
                f"{self.name}.{sorted(unknown)[0]}: unknown field "
                f"(known: {', '.join(sorted(_KNOWN_KEYS[self.name]))})"
            )
        return self

    def get(self, key: str, default=None):
        if self.raw is None or key not in self.raw:
            return default
        return self.raw[key]

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ConfigError(f"{self.name}.{key}: missing required field")
        return value

    def parse(self, key: str, conv, kind: str, default=None, required: bool = False):
        raw = self.require(key) if required else self.get(key)
        if raw is None:
            return default
        try:
            return conv(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.name}.{key}: expected {kind}, got {raw!r}") from None


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _matrix(text: str) -> np.ndarray:
    rows = [_floats(line) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix")
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ValueError("ragged matrix rows")
    return np.vstack(rows)


def _build_problem(section: _Section) -> CoupledProblem:
    family = section.require("family")
    if family == "num":
        routing = section.parse("routing", _matrix, "a 0/1 matrix (one line per link)", required=True)
        capacities = section.parse("capacities", _floats, "a list of numbers", required=True)
        n_sources = routing.shape[1]
        gammas = section.parse(
            "gammas", _floats, "a list of numbers", default=np.ones(n_sources)
        )
        try:
            return make_num_problem(routing, capacities, gammas)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from None
    if family == "quadratic":
        m = section.parse("m", int, "an integer", required=True)
        p = section.parse("p", int, "an integer", required=True)
        dims = section.parse("dims", _ints, "a list of integers", default=1)
        seed = section.parse("seed", int, "an integer", default=0)
        if seed < 0:
            raise ConfigError(f"problem.seed: must be >= 0, got {seed}")
        tau_min = section.parse("tau_min", float, "a number", default=1.0)
        try:
            return make_quadratic_problem(m=m, p=p, dims=dims, seed=seed, tau_min=tau_min)
        except ValueError as exc:
            raise ConfigError(f"problem: {exc}") from None
    raise ConfigError(f"problem.family: unknown family {family!r} (choose num or quadratic)")


def _build_graph(section: _Section, problem: CoupledProblem, base_dir: Path) -> GraphSequence:
    mode = section.get("mode", "random-pool")
    window = section.parse("window", int, "an integer", default=1)
    if window < 1:
        raise ConfigError(f"graph.window: must be >= 1, got {window}")
    if mode == "random-pool":
        pool_size = section.parse("pool_size", int, "an integer", default=20)
        if pool_size < 1:
            raise ConfigError(f"graph.pool_size: must be >= 1, got {pool_size}")
        seed = section.parse("seed", int, "an integer", default=0)
        if seed < 0:
            raise ConfigError(f"graph.seed: must be >= 0, got {seed}")
        return generate_graph_sequence(m=problem.m, window=window, seed=seed, pool_size=pool_size)
    if mode == "file":
        path = Path(section.require("path"))
        if not path.is_absolute():
            path = base_dir / path
        if not path.is_file():
            raise ConfigError(f"graph.path: {path} is not a file")
        try:
            return parse_edge_list(path.read_text(encoding="utf-8"), m=problem.m, window=window)
        except ValueError as exc:
            raise ConfigError(f"graph.path: {exc}") from None
    raise ConfigError(f"graph.mode: unknown mode {mode!r} (choose random-pool or file)")


def _build_run(section: _Section, problem: CoupledProblem, algorithm: str) -> RunConfig:
    """Run settings; the step-size rule q*gamma/m >= 4 binds DRDGA only."""
    q = section.parse("q", float, "a number", required=True)
    t_max = section.parse("t_max", int, "an integer", default=5000)
    epsilon = section.parse("epsilon", float, "a number", default=0.01)
    theta0 = section.parse("theta0", _matrix, "a matrix (one line per agent)")
    try:
        config = RunConfig(q=q, t_max=t_max, epsilon=epsilon, theta0=theta0)
        config.validate_for(problem, push_sum=algorithm == "drdga")
    except ConfigError as exc:
        raise ConfigError(f"run: {exc}") from None
    return config


def parse_config(
    path,
    *,
    algorithm: str | None = None,
    seed: int | str | None = None,
    t_max: int | str | None = None,
    epsilon: float | str | None = None,
) -> Experiment:
    """Load and validate an experiment file; keyword overrides replace config values.

    An override is written into its field before any section is read, so it
    passes the same checks, and fails with the same messages, as the value
    it replaces. ``seed`` overrides the graph seed (communication
    randomness); the problem seed stays in the file so the instance itself
    is pinned by the config.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config syntax error in {path}: {exc}") from None

    overrides = {
        ("experiment", "algorithm"): algorithm,
        ("graph", "seed"): seed,
        ("run", "t_max"): t_max,
        ("run", "epsilon"): epsilon,
    }
    for (name, key), value in overrides.items():
        if value is not None:
            parser.read_dict({name: {key: str(value)}})

    for name in parser.sections():
        if name not in _KNOWN_KEYS:
            raise ConfigError(
                f"{name}: unknown section (known: {', '.join(sorted(_KNOWN_KEYS))})"
            )
        _Section(parser, name).check_keys()

    algorithm = _Section(parser, "experiment").get("algorithm", "drdga")
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"experiment.algorithm: unknown algorithm {algorithm!r} "
            f"(choose one of: {', '.join(ALGORITHMS)})"
        )

    problem = _build_problem(_Section(parser, "problem").require_present())
    seq = _build_graph(_Section(parser, "graph"), problem, path.parent)
    run = _build_run(_Section(parser, "run").require_present(), problem, algorithm)
    return Experiment(problem=problem, seq=seq, run=run, algorithm=algorithm)
