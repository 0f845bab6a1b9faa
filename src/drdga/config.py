"""Experiment configuration: INI-style files with [experiment], [problem], [graph], [run].

One table, ``_SECTIONS``, lists every key: [problem] has one set per
``family`` and [graph] one per ``mode``, and any other key is an error. Every
validation failure raises ConfigError naming the offending "section.field".
The checked keys go as keywords to the library functions, whose signatures
hold the defaults. Sizes whose arrays would exceed MAX_ARRAY_BYTES are a
ConfigError too, raised from the parsed sizes before those arrays are
allocated. See drdga/configs/ for complete examples.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .engine import RunConfig
from .errors import ConfigError
from .graph import POOL_SIZE, GraphSequence, generate_graph_sequence, parse_edge_list
from .problem import CoupledProblem, make_num_problem, make_quadratic_problem

ALGORITHMS = ("drdga", "cdda")


@dataclass(frozen=True)
class Experiment:
    """A fully validated experiment: problem, graph schedule, run settings, algorithm."""

    problem: CoupledProblem
    seq: GraphSequence
    run: RunConfig
    algorithm: str


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split()])


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _matrix(text: str) -> np.ndarray:
    rows = [_floats(line) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty matrix")
    if any(r.size != rows[0].size for r in rows):
        raise ValueError("ragged matrix rows")
    return np.vstack(rows)


class _Field(NamedTuple):
    """One key: its parser, the value kind a parse error names, and its checks."""

    parse: Callable[[str], Any]
    kind: str
    required: bool = False
    minimum: int | None = None


_INT, _NUMBER = "an integer", "a number"
_WINDOW = _Field(int, _INT, minimum=1)
# Section -> (selector key, its default, variant -> key -> _Field). The
# selector's value picks the variant; a section without one has the variant None.
_SECTIONS = {
    "experiment": ("algorithm", "drdga", {name: {} for name in ALGORITHMS}),
    "problem": ("family", None, {
        "num": {
            "routing": _Field(_matrix, "a 0/1 matrix (one line per link)", required=True),
            "capacities": _Field(_floats, "a list of numbers", required=True),
            "gammas": _Field(_floats, "a list of numbers"),
        },
        "quadratic": {
            "m": _Field(int, _INT, required=True, minimum=1),
            "p": _Field(int, _INT, required=True, minimum=1),
            "dims": _Field(_ints, "a list of integers"),
            "seed": _Field(int, _INT, minimum=0),
            "tau_min": _Field(float, _NUMBER),
        },
    }),
    "graph": ("mode", "random-pool", {
        "random-pool": {"window": _WINDOW, "pool_size": _Field(int, _INT, minimum=1),
                        "seed": _Field(int, _INT, minimum=0)},
        "file": {"window": _WINDOW, "path": _Field(str, "a path", required=True)},
    }),
    "run": (None, None, {None: {
        "q": _Field(float, _NUMBER, required=True),
        "t_max": _Field(int, _INT),
        "epsilon": _Field(float, _NUMBER),
        "theta0": _Field(_matrix, "a matrix (one line per agent)"),
    }}),
}


def _read_section(parser: configparser.ConfigParser, name: str):
    """The variant section ``name`` selects, and a dict of only the keys the
    file gives, parsed and checked against that variant's fields."""
    present = parser.has_section(name)
    raw = dict(parser[name]) if present else {}
    selector, default, variants = _SECTIONS[name]

    def missing(key):
        where = f"{name}.{key}: missing required field" if present else f"{name}: missing section"
        return ConfigError(where)

    variant = raw.pop(selector, default)  # None for [run], which has no selector
    if variant is None and selector:
        raise missing(selector)
    if variant not in variants:
        choices = ", ".join(variants)
        raise ConfigError(f"{name}.{selector}: unknown {selector} {variant!r} "
                          f"(choose one of: {choices})")
    table = variants[variant]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        known = ", ".join(sorted({*table, selector} - {None}))
        within = f" for {selector} = {variant}" if selector else ""
        raise ConfigError(f"{name}.{unknown[0]}: unknown field{within} (known: {known})")
    fields = {}
    for key, field in table.items():
        if key not in raw:
            if field.required:
                raise missing(key)
            continue
        try:
            value = field.parse(raw[key])
        except (TypeError, ValueError):
            raise ConfigError(f"{name}.{key}: expected {field.kind}, got {raw[key]!r}") from None
        if field.minimum is not None and value < field.minimum:
            raise ConfigError(f"{name}.{key}: must be >= {field.minimum}, got {value}")
        fields[key] = value
    return variant, fields


# The most bytes a config may ask one set of arrays to take: the problem's
# (m, p, n_max) coupling array, or the graph pool's (pool, m, m) adjacency
# bools with their float mixing matrices (9 bytes an entry). parse_config
# estimates both from the parsed sizes before either is allocated.
MAX_ARRAY_BYTES = 1 << 30


def _check_size(what: str, fields: tuple[str, ...], shape: tuple[int, ...], item_bytes: int):
    """ConfigError naming the field of the longest axis when ``shape``
    entries of ``item_bytes`` bytes each exceed MAX_ARRAY_BYTES."""
    nbytes = item_bytes * math.prod(shape)
    if nbytes > MAX_ARRAY_BYTES:
        raise ConfigError(f"{fields[shape.index(max(shape))]}: {what} of shape {shape} would "
                          f"take {nbytes:.3g} bytes, over the limit of {MAX_ARRAY_BYTES}")


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
    it replaces. ``seed`` overrides the graph seed, so a file-mode config
    rejects it; the problem seed stays in the file, pinning the instance.
    All four sections, and the estimated sizes of the problem's coupling
    array and of the graph pool, are checked before any library object is
    built (a file-mode pool once its file is read); the DRDGA step-size rule
    q * gamma / m >= 4 needs the problem and comes last.
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

    overrides = {("experiment", "algorithm"): algorithm, ("graph", "seed"): seed,
                 ("run", "t_max"): t_max, ("run", "epsilon"): epsilon}
    for (name, key), value in overrides.items():
        if value is not None:
            parser.read_dict({name: {key: str(value)}})

    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{name}: unknown section (known: {', '.join(sorted(_SECTIONS))})")
    (algorithm, _), (family, problem_fields), (mode, graph_fields), (_, run_fields) = (
        _read_section(parser, name) for name in _SECTIONS
    )

    # Sizes, estimated before anything of that size is allocated. A dims list
    # without one entry per agent is left to the factory, which rejects it first.
    if family == "num":
        m, m_field = problem_fields["routing"].shape[1], "problem.routing"
    else:
        m, m_field = problem_fields["m"], "problem.m"
    dims = problem_fields.get("dims")
    sized = dims is None or len(dims) == m
    if family == "quadratic" and sized:
        _check_size("the coupling array", ("problem.m", "problem.p", "problem.dims"),
                    (m, problem_fields["p"], max(dims or [1])), 8)
    if mode == "random-pool" and sized:
        pool = graph_fields.get("pool_size", POOL_SIZE)
        _check_size("the graph pool", ("graph.pool_size", m_field, m_field), (pool, m, m), 9)

    # The factories are looked up in this module's namespace at call time.
    make_problem = make_num_problem if family == "num" else make_quadratic_problem
    try:
        problem = make_problem(**problem_fields)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None
    if mode == "file":
        edges = path.parent / graph_fields.pop("path")  # an absolute path replaces the parent
        if not edges.is_file():
            raise ConfigError(f"graph.path: {edges} is not a file")
        try:
            text = edges.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"graph.path: {exc}") from None
        _check_size("the graph pool", ("graph.path", m_field, m_field),
                    (len(text.splitlines()), m, m), 9)
        try:
            seq = parse_edge_list(text, m=problem.m, **graph_fields)
        except ValueError as exc:
            raise ConfigError(f"graph.path: {exc}") from None
    else:
        seq = generate_graph_sequence(m=problem.m, **graph_fields)
    try:
        run = RunConfig(**run_fields)
        run.validate_for(problem, push_sum=algorithm == "drdga")
    except ConfigError as exc:
        raise ConfigError(f"run: {exc}") from None
    return Experiment(problem=problem, seq=seq, run=run, algorithm=algorithm)
