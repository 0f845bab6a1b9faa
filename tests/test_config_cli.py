import os
import subprocess
import sys
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import drdga
from drdga import ConfigError, cli, parse_config
from drdga.cli import main, run_experiment
from test_engine import traced_peak

FIG7_CFG = str(files("drdga") / "configs" / "fig7.cfg")
QUAD_CFG = str(files("drdga") / "configs" / "quadratic_m5.cfg")
S20_CFG = str(files("drdga") / "configs" / "num_s20.cfg")
M100_CFG = str(Path(__file__).resolve().parents[1] / "perfbench" / "quad_m100.cfg")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL_QUAD = """
[problem]
family = quadratic
m = 2
p = 1
dims = 1 1
seed = 3
tau_min = 1.0

[graph]
seed = 1

[run]
q = 8
t_max = 20
epsilon = 0.5
"""


def test_bundled_fig7_parses_to_paper_settings():
    exp = parse_config(FIG7_CFG)
    assert exp.algorithm == "drdga"
    assert exp.problem.m == 3 and exp.problem.p == 2
    assert exp.problem.weights.tolist() == [1.0, 1.0, 0.5]
    assert exp.problem.gammas.tolist() == [1.0, 1.0, 1.0]
    assert exp.run.q == 4.0 and exp.run.epsilon == 0.01 and exp.run.t_max == 5000
    assert exp.seq.m == 3 and exp.seq.window == 1 and len(exp.seq.adj) == 20


def test_bundled_quadratic_parses():
    exp = parse_config(QUAD_CFG)
    assert exp.problem.m == 5 and exp.problem.p == 3
    assert exp.run.t_max == 10000


def test_bundled_num_s20_parses():
    exp = parse_config(S20_CFG)
    assert exp.problem.m == 20 and exp.problem.p == 19
    assert exp.problem.gammas.tolist() == [1.0] * 20
    assert exp.seq.m == 20 and len(exp.seq.adj) == 20


def test_bundled_perfbench_quad_m100_parses():
    exp = parse_config(M100_CFG)
    assert exp.problem.m == 100 and exp.problem.p == 10
    assert exp.problem.lower.shape == (100, 2) and (exp.problem.lower < exp.problem.upper).all()
    assert exp.seq.m == 100 and exp.run.t_max == 200


def test_small_q_rejected_with_minimum(tmp_path):
    text = Path(FIG7_CFG).read_text().replace("q = 4", "q = 1")
    path = write_cfg(tmp_path, text, name="fig7_q1.cfg")
    with pytest.raises(ConfigError, match="minimum q = 4"):
        parse_config(path)
    # The step-size rule binds DRDGA only: CDDA parses and runs with q = 1.
    assert parse_config(path, algorithm="cdda").run.q == 1.0
    assert main(["run", "--config", path, "--out", str(tmp_path / "c.csv"),
                 "--algorithm", "cdda", "--tmax", "20"]) == 0


def test_q_rule_rejected_for_quadratic_family(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("q = 8", "q = 1"))
    with pytest.raises(ConfigError, match="minimum q"):
        parse_config(path)


def test_unknown_algorithm_lists_choices(tmp_path):
    path = write_cfg(tmp_path, "[experiment]\nalgorithm = sgd\n" + MINIMAL_QUAD)
    with pytest.raises(ConfigError, match="drdga, cdda"):
        parse_config(path)


def test_unknown_section_and_field_rejected(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_QUAD + "\n[extra]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="extra"):
        parse_config(path)
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("tau_min = 1.0", "tau = 1.0"))
    with pytest.raises(ConfigError, match="problem.tau"):
        parse_config(path)


def test_missing_and_mistyped_fields_are_named(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("family = quadratic", ""))
    with pytest.raises(ConfigError, match="problem.family"):
        parse_config(path)
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("p = 1", "p = one"))
    with pytest.raises(ConfigError, match="problem.p"):
        parse_config(path)
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("[run]\nq = 8", "[run]\n"))
    with pytest.raises(ConfigError, match="run.q"):
        parse_config(path)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


RUN_SECTION = "[run]\nq = 8\nt_max = 20\nepsilon = 0.5\n"


@pytest.mark.parametrize(
    "old, new, extra, field",
    [("seed = 1", "seed = -1", [], "graph.seed: must be >= 0"),
     ("seed = 3", "seed = -3", [], "problem.seed: must be >= 0"),
     (None, None, ["--seed", "-5"], "graph.seed: must be >= 0"),
     ("tau_min = 1.0", "tau_min = 1e308", [], "problem: tau_min"),
     ("[graph]", "[graph]\nwindow = 0", [], "graph.window: must be >= 1"),
     ("[graph]", "[graph]\npool_size = 0", [], "graph.pool_size: must be >= 1"),
     (RUN_SECTION, "", [], "run: missing section"),
     # An override creates only its own section.
     (RUN_SECTION, "", ["--seed", "2"], "run: missing section"),
     (None, None, ["--algorithm", "sgd"], "experiment.algorithm: unknown algorithm 'sgd'"),
     (None, None, ["--tmax", "abc"], "run.t_max: expected an integer, got 'abc'"),
     (None, None, ["--seed", "1.5"], "graph.seed: expected an integer, got '1.5'"),
     (None, None, ["--epsilon", "x"], "run.epsilon: expected a number, got 'x'"),
     # --seed sets graph.seed, which a file schedule does not read; every key
     # is checked before the schedule file is opened.
     ("[graph]\nseed = 1", "[graph]\nmode = file\npath = edges.txt", ["--seed", "2"],
      "graph.seed: unknown field for mode = file"),
     ("family = quadratic", "family = linear", [],
      "problem.family: unknown family 'linear' (choose one of: num, quadratic)"),
     ("[graph]", "[graph]\nmode = ring", [],
      "graph.mode: unknown mode 'ring' (choose one of: random-pool, file)")],
    ids=["graph-seed", "problem-seed", "cli-seed", "tau_min-overflow", "window-0", "pool_size-0",
         "no-run-section", "no-run-section-seed-override", "cli-algorithm", "cli-tmax",
         "cli-seed-float", "cli-epsilon", "cli-seed-file-mode", "family", "mode"],
)
def test_out_of_range_values_are_named(tmp_path, capsys, old, new, extra, field):
    text = MINIMAL_QUAD
    if old is not None:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv"), *extra]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_graph_file_mode(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("1>2\n2>1\n")
    cfg = MINIMAL_QUAD.replace("[graph]\nseed = 1", f"[graph]\nmode = file\npath = {edges.name}\nwindow = 2")
    path = write_cfg(tmp_path, cfg)
    exp = parse_config(path)
    assert np.array_equal(exp.seq.adj[0], [[False, True], [False, False]])
    assert np.array_equal(exp.seq.adj[1], [[False, False], [True, False]])
    assert exp.seq.window == 2


THREE_AGENT_FILE = MINIMAL_QUAD.replace("m = 2", "m = 3").replace(
    "dims = 1 1", "dims = 1 1 1"
).replace("[graph]\nseed = 1", "[graph]\nmode = file\npath = edges.txt\nwindow = {window}")


def test_graph_file_mode_connected_schedule_accepted(tmp_path):
    # Period 3, window 2: the aligned windows cycle through the pool pairs
    # (0, 1), (2, 0), (1, 2), and each union is strongly connected, although
    # pool entries 1 and 2 are not on their own.
    (tmp_path / "edges.txt").write_text("1>2;2>3;3>1\n1>2;2>3\n3>1\n")
    path = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=2))
    exp = parse_config(path)
    assert len(exp.seq.adj) == 3 and exp.seq.window == 2


@pytest.mark.parametrize(
    "schedule, window",
    [("1>2\n2>3\n", 1),  # never strongly connected
     ("1>2\n2>3\n", 2),  # the union 1>2, 2>3 never returns to agent 1
     ("1>2;2>3\n3>1\n3>1\n", 2)],  # only the third window, rounds 4-5, fails
    ids=["window-1", "window-2", "third-window"],
)
def test_graph_file_mode_disconnected_schedule_rejected(tmp_path, capsys, schedule, window):
    (tmp_path / "edges.txt").write_text(schedule)
    path = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=window))
    with pytest.raises(ConfigError, match="graph.path: .*not strongly connected"):
        parse_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert "graph.path" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_graph_file_mode_long_window_checks_one_pool_period(tmp_path):
    # A 10**7-round window over a one-round schedule: the window check ORs
    # the one pool entry, not 10**7 copies of it (162 MiB of bools at m = 3).
    (tmp_path / "edges.txt").write_text("1>2;2>3;3>1\n")
    path = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=10**7))
    tracemalloc.start()
    try:
        exp = parse_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exp.seq.window == 10**7
    assert peak < 2**20


def test_huge_m_with_short_dims_fails_before_allocating(tmp_path, capsys):
    # The dims default is the scalar 1, broadcast only once m is checked, so
    # a 3,000,000-agent config that lists two dims fails on dims without
    # first building a default list of m entries (23 MiB).
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("m = 2", "m = 3000000"))
    tracemalloc.start()
    try:
        code = main(["run", "--config", path, "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "dims must list one positive dimension per agent" in capsys.readouterr().err
    assert peak < 2**20


def test_huge_m_with_run_typo_fails_before_allocating(tmp_path, capsys):
    # Every section is checked before the problem is built, so a typo in
    # [run] is reported without building the 3,000,000-agent problem.
    text = MINIMAL_QUAD.replace("m = 2", "m = 3000000").replace("dims = 1 1\n", "")
    path = write_cfg(tmp_path, text.replace("t_max = 20", "tmax = 20"))
    tracemalloc.start()
    try:
        code = main(["run", "--config", path, "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "run.tmax: unknown field" in capsys.readouterr().err
    assert peak < 2**20


NO_DIMS = MINIMAL_QUAD.replace("dims = 1 1\n", "")
ONE_SOURCE_NUM = """
[problem]
family = num
routing = {row}
capacities = 1

[run]
q = 4
"""


@pytest.mark.parametrize(
    "text, edges, message",
    [  # (20, m, m) adjacency and mixing matrices: 9 bytes an entry, 72 GB at m = 20,000
     (NO_DIMS.replace("m = 2", "m = 20000"), None, "problem.m: the graph pool"),
     (ONE_SOURCE_NUM.format(row=" ".join(["1"] * 12000)), None, "problem.routing: the graph pool"),
     (MINIMAL_QUAD.replace("[graph]\n", "[graph]\npool_size = 1000000000\n"), None,
      "graph.pool_size: the graph pool"),
     # (2, p, n_max) coupling array, 8 bytes an entry
     (MINIMAL_QUAD.replace("p = 1", "p = 100000000000"), None, "problem.p: the coupling array"),
     (MINIMAL_QUAD.replace("dims = 1 1", "dims = 1 100000000000"), None,
      "problem.dims: the coupling array"),
     # 600 rounds of a 500-agent schedule, 1.35 GB, fail before the edges are parsed
     (NO_DIMS.replace("m = 2", "m = 500").replace("[graph]\nseed = 1",
                                                "[graph]\nmode = file\npath = edges.txt"),
      "1>2;2>1\n" * 600, "graph.path: the graph pool")],
    ids=["m", "routing", "pool_size", "p", "dims", "file"],
)
def test_oversized_sizes_fail_before_allocating(tmp_path, capsys, text, edges, message):
    # The estimate comes from the parsed sizes; nothing near the arrays'
    # size (over MAX_ARRAY_BYTES, 1 GiB) is allocated before the error.
    if edges is not None:
        (tmp_path / "edges.txt").write_text(edges)
    path = write_cfg(tmp_path, text)
    tracemalloc.start()
    try:
        code = main(["run", "--config", path, "--out", str(tmp_path / "x.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "over the limit of 1073741824" in err
    assert peak < 2**22
    assert not (tmp_path / "x.csv").exists()


def test_sizes_at_the_limit_still_parse(tmp_path, monkeypatch):
    # The limit is on the estimate alone: with it set to the exact bytes of
    # MINIMAL_QUAD's graph pool (20 entries of 2 x 2 at 9 bytes) the config
    # parses, and one byte less rejects it.
    monkeypatch.setattr(drdga.config, "MAX_ARRAY_BYTES", 20 * 2 * 2 * 9)
    path = write_cfg(tmp_path, MINIMAL_QUAD)
    assert parse_config(path).seq.adj.shape == (20, 2, 2)
    monkeypatch.setattr(drdga.config, "MAX_ARRAY_BYTES", 20 * 2 * 2 * 9 - 1)
    with pytest.raises(ConfigError, match="graph.pool_size: the graph pool of shape"):
        parse_config(path)


@pytest.mark.parametrize(
    "schedule, message",
    [("1>2;2>3;3>1\n1>4\n", r"edge \(1, 4\) references an agent outside \[1, 3\]"),
     ("1>2;2>3;3>1\n2>2\n", r"self-loop \(2, 2\) is implicit"),
     ("1>2;2>3;3>1\n1-2\n", "line 2: expected 'i>j'")],
    ids=["out-of-range", "self-loop", "malformed"],
)
def test_graph_file_mode_bad_edge_rejected(tmp_path, capsys, schedule, message):
    (tmp_path / "edges.txt").write_text(schedule)
    path = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=1))
    with pytest.raises(ConfigError, match="graph.path: " + message):
        parse_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert "graph.path" in capsys.readouterr().err


def test_graph_file_mode_path_must_be_a_file(tmp_path, capsys):
    (tmp_path / "edges.txt").mkdir()
    path = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=1))
    with pytest.raises(ConfigError, match="graph.path: .*edges.txt is not a file"):
        parse_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert "graph.path" in capsys.readouterr().err


FILE_GRAPH = "[graph]\nmode = file\npath = edges.txt"


@pytest.mark.parametrize(
    "base, old, new, field",
    [("quad", "tau_min = 1.0", "tau_min = 1.0\ngammas = 5 5", "problem.gammas"),
     *[("fig7", "gammas = 1 1 1", f"gammas = 1 1 1\n{key} = 1", f"problem.{key}")
       for key in ("m", "p", "dims", "seed", "tau_min")],
     ("quad", "[graph]\nseed = 1", "[graph]\npath = edges.txt", "graph.path"),
     ("quad", "[graph]\nseed = 1", FILE_GRAPH + "\npool_size = 20", "graph.pool_size"),
     ("quad", "[graph]\nseed = 1", FILE_GRAPH + "\nseed = 1", "graph.seed")],
    ids=["quadratic-gammas", "num-m", "num-p", "num-dims", "num-seed", "num-tau_min",
         "random-pool-path", "file-pool_size", "file-seed"],
)
def test_other_variant_field_rejected(tmp_path, base, old, new, field):
    # A key belongs to its family or graph mode; under any other it would be
    # ignored, so it is an error naming the field.
    text = Path(FIG7_CFG).read_text() if base == "fig7" else MINIMAL_QUAD
    assert text.count(old) == 1
    path = write_cfg(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError, match=f"^{field}: unknown field"):
        parse_config(path)


def test_graph_m_mismatch_rejected(tmp_path):
    # The graph's agent count is the problem's; graph.m is not a key.
    path = write_cfg(tmp_path, MINIMAL_QUAD.replace("[graph]\nseed = 1", "[graph]\nm = 5"))
    with pytest.raises(ConfigError, match="graph.m: unknown field"):
        parse_config(path)


def test_overrides_apply(tmp_path):
    path = write_cfg(tmp_path, MINIMAL_QUAD)
    exp = parse_config(path, algorithm="cdda", seed=99, t_max=7, epsilon=0.125)
    assert exp.algorithm == "cdda"
    assert exp.run.t_max == 7 and exp.run.epsilon == 0.125
    # on a larger network the seed override produces a different pool
    base = parse_config(QUAD_CFG)
    reseeded = parse_config(QUAD_CFG, seed=99)
    assert not np.array_equal(base.seq.adj, reseeded.seq.adj)


@pytest.mark.parametrize(
    "base, old, new, field",
    [
        ("fig7", "q = 4", "q = nan", "run: q must be"),
        ("fig7", "q = 4", "q = inf", "run: q must be"),
        ("fig7", "epsilon = 0.01", "epsilon = inf", "run: epsilon must be"),
        ("fig7", "capacities = 1 1", "capacities = 1 nan", "problem: capacities"),
        ("fig7", "capacities = 1 1", "capacities = inf 1", "problem: capacities"),
        ("fig7", "gammas = 1 1 1", "gammas = 1 nan 1", "problem: gammas"),
        ("quad", "tau_min = 1.0", "tau_min = nan", "problem: tau_min"),
        ("quad", "epsilon = 0.5", "epsilon = 0.5\ntheta0 =\n    nan\n    0.5", "run: theta0"),
    ],
    ids=["q-nan", "q-inf", "epsilon-inf", "capacities-nan", "capacities-inf", "gammas-nan", "tau_min-nan",
         "theta0-nan"],
)
def test_non_finite_numbers_rejected_at_load(tmp_path, capsys, base, old, new, field):
    text = Path(FIG7_CFG).read_text() if base == "fig7" else MINIMAL_QUAD
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, new))
    assert main(["run", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_theta0_parsing(tmp_path):
    cfg = MINIMAL_QUAD + "theta0 =\n    0.5\n    -0.5\n"
    exp = parse_config(write_cfg(tmp_path, cfg))
    assert np.array_equal(exp.run.theta0, [[0.5], [-0.5]])
    bad = MINIMAL_QUAD + "theta0 =\n    0.5 1.0\n"
    with pytest.raises(ConfigError, match="theta0"):
        parse_config(write_cfg(tmp_path, bad))


def test_run_experiment_writes_csv_and_summary(tmp_path):
    exp = parse_config(FIG7_CFG, t_max=10)
    out = tmp_path / "run.csv"
    reason, rows = run_experiment(exp, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,objective,gap,violation,violation_inst,disagreement,max_lambda,beta"
    assert len(lines) == 1 + len(rows) == 11
    summary = Path(str(out) + ".summary").read_text()
    assert "stop_reason = t_max" in summary
    assert "terminal_round = 10" in summary
    assert "f_star = " in summary and "empirical_D = " in summary
    assert "theorem2_bound = " in summary and "theorem3_bound = " in summary


def test_cli_tmax_two_rows(tmp_path, capsys):
    out = tmp_path / "two.csv"
    code = main(["run", "--config", FIG7_CFG, "--out", str(out), "--tmax", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 data rows


def test_cli_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", FIG7_CFG, "--out", str(a), "--tmax", "30"]) == 0
    assert main(["run", "--config", FIG7_CFG, "--out", str(b), "--tmax", "30"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert Path(str(a) + ".summary").read_bytes() == Path(str(b) + ".summary").read_bytes()


def test_cli_algorithm_flag_changes_run(tmp_path):
    a, b = tmp_path / "d.csv", tmp_path / "c.csv"
    assert main(["run", "--config", FIG7_CFG, "--out", str(a), "--tmax", "10"]) == 0
    assert main(["run", "--config", FIG7_CFG, "--out", str(b), "--tmax", "10",
                 "--algorithm", "cdda"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert "algorithm = cdda" in Path(str(b) + ".summary").read_text()


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_config_exit_code(tmp_path, capsys, kind):
    config = tmp_path / "exp.cfg"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(MINIMAL_QUAD.encode().replace(b"tau_min", b"tau_\xff"))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 1
    assert str(config) in capsys.readouterr().err


@pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
def test_cli_unusable_out_path_fails_before_running(tmp_path, monkeypatch, capsys, out):
    path = write_cfg(tmp_path, MINIMAL_QUAD)
    monkeypatch.setattr(drdga.cli, "parse_config", None)  # calling it would exit 2
    assert main(["run", "--config", path, "--out", str(tmp_path / out)]) == 1
    assert "config error: --out: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # Reference on an infeasible instance: one source on two links with
    # incompatible capacities forces x = 1 and x = 2 simultaneously.
    cfg = """
[problem]
family = num
routing =
    1
    1
capacities = 1 2

[run]
q = 4
"""
    path = write_cfg(tmp_path, cfg)
    assert main(["reference", "--config", path]) == 2
    assert "error" in capsys.readouterr().err


def test_uncertified_oracle_exits_2_and_leaves_f_star_unavailable(tmp_path, monkeypatch,
                                                                  capsys):
    # No Newton step: the fig7 oracle cannot certify, and fig7 is feasible.
    monkeypatch.setattr(drdga.reference, "MAX_STEPS", 0)
    assert main(["reference", "--config", FIG7_CFG]) == 2
    assert "failed its certificate" in capsys.readouterr().err
    out = tmp_path / "run.csv"
    assert main(["run", "--config", FIG7_CFG, "--out", str(out), "--tmax", "5"]) == 0
    assert "f_star = unavailable\n" in Path(str(out) + ".summary").read_text()
    gap = out.read_text().splitlines()[0].split(",").index("gap")
    assert all(row.split(",")[gap] == "nan" for row in out.read_text().splitlines()[1:])


def test_cli_overflowing_iterates_exit_2_without_output(tmp_path, capsys):
    # theta0 = 1e308 everywhere makes fig7's iterates overflow within a few
    # rounds; solve_local's finiteness check stops the run before any output.
    theta0 = "theta0 =\n" + "    1e308 1e308\n" * 3
    text = Path(FIG7_CFG).read_text().replace("epsilon = 0.01\n", "epsilon = 0.01\n" + theta0)
    path = write_cfg(tmp_path, text)
    code = main(["run", "--config", path, "--out", str(tmp_path / "run.csv")])
    assert code == 2
    assert "lambda must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


@pytest.mark.parametrize("setting", ["warnings-as-errors", "errstate-raise"])
def test_cli_fig7_at_q1280_exits_2_on_the_finiteness_check(tmp_path, capsys, setting):
    # q = 1,280 passes the step rule, and the early rounds amplify the
    # multipliers until they overflow in round 312. The kernel ignores its
    # floating-point errors, so neither a warnings filter nor np.errstate
    # turns them into the run's error: the finiteness check stops it,
    # before any output.
    text = Path(FIG7_CFG).read_text().replace("q = 4\n", "q = 1280\n")
    path = write_cfg(tmp_path, text)
    argv = ["run", "--config", path, "--out", str(tmp_path / "run.csv")]
    if setting == "errstate-raise":
        with np.errstate(all="raise"):
            code = main(argv)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: lambda must be finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_cli_non_finite_final_theta_exits_2_without_output(tmp_path, capsys):
    # At q = 1,280 fig7's theta overflows in round 311, one round before its
    # multiplier: a run capped there fails on theta, before any output.
    path = write_cfg(tmp_path, Path(FIG7_CFG).read_text().replace("q = 4\n", "q = 1280\n"))
    assert main(["run", "--config", path, "--out", str(tmp_path / "run.csv"), "--tmax", "311"]) == 2
    assert capsys.readouterr().err == "error: theta is not finite after round 311\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_cli_reference_prints_solution(capsys):
    assert main(["reference", "--config", FIG7_CFG]) == 0
    out = capsys.readouterr().out
    assert "F* = 43.4588758806" in out
    assert "violation = " in out
    assert out.index("violation = ") < out.index("duality_gap = ")
    # The printout's precision does not leak into the rest of the process.
    assert np.get_printoptions()["precision"] == 8


SMOKE_CASES = {
    "fig7": (FIG7_CFG, []),
    "num_s20": (S20_CFG, []),
    "quadratic_m5": (QUAD_CFG, []),
    "quadratic_m5-cdda": (QUAD_CFG, ["--algorithm", "cdda"]),
    "file-schedule": (None, []),
}


@pytest.mark.parametrize("case", sorted(SMOKE_CASES))
def test_cli_smoke_run_writes_csv_and_summary(tmp_path, capsys, case):
    config, extra = SMOKE_CASES[case]
    if config is None:
        (tmp_path / "edges.txt").write_text("1>2;2>3;3>1\n1>2;2>3\n3>1\n")
        config = write_cfg(tmp_path, THREE_AGENT_FILE.format(window=2))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", config, "--out", str(out), "--tmax", "20", *extra]) == 0
    assert "-> " in capsys.readouterr().out
    rows = out.read_text().splitlines()[1:]
    assert 1 <= len(rows) <= 20
    summary = Path(str(out) + ".summary").read_text()
    assert f"terminal_round = {len(rows)}" in summary
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("run")) == [
        "run.csv", "run.csv.summary"]


def _fail_summary_write(monkeypatch, stage):
    """Make the summary's write die halfway, or its rename fail, or the CSV's
    write die halfway through its second chunk of rows."""
    real_open, real_replace = Path.open, os.replace

    def open_(self, *args, **kwargs):
        out = real_open(self, *args, **kwargs)
        if stage == "write" and ".summary." in self.name:
            real_writelines = out.writelines

            def writelines(lines):
                lines = list(lines)
                real_writelines(lines[: len(lines) // 2])
                raise OSError("disk full")

            out.writelines = writelines
        elif stage == "csv-chunk" and self.name == f".run.csv.{os.getpid()}.tmp":
            real_write = out.write

            def writelines(texts):  # the header, then one text per chunk of rows
                for k, text in enumerate(texts):
                    if k == 2:
                        real_write(text[: len(text) // 2])
                        raise OSError("disk full")
                    real_write(text)

            out.writelines = writelines
        return out

    def replace(src, dst):
        if stage == "replace" and str(dst).endswith(".summary"):
            raise OSError("rename refused")
        return real_replace(src, dst)

    monkeypatch.setattr(Path, "open", open_)
    monkeypatch.setattr(os, "replace", replace)


@pytest.mark.parametrize("stage", ["write", "replace", "csv-chunk"])
def test_failed_summary_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, stage):
    out = tmp_path / "run.csv"
    _fail_summary_write(monkeypatch, stage)
    assert main(["run", "--config", FIG7_CFG, "--out", str(out), "--tmax", "300"]) == 2
    assert "error: " in capsys.readouterr().err
    if stage == "csv-chunk":
        # Neither a partial CSV nor its temporary file is left behind.
        assert list(tmp_path.iterdir()) == []
    else:
        # The CSV is complete; no summary and no temporary file is left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]
        assert len(out.read_text().splitlines()) == 301

    # A summary from an earlier run survives a failed rewrite unchanged, and
    # so does its CSV when the CSV's own write fails.
    monkeypatch.undo()
    assert main(["run", "--config", FIG7_CFG, "--out", str(out), "--tmax", "4"]) == 0
    earlier, earlier_csv = Path(str(out) + ".summary").read_bytes(), out.read_bytes()
    _fail_summary_write(monkeypatch, stage)
    assert main(["run", "--config", FIG7_CFG, "--out", str(out), "--tmax", "300"]) == 2
    assert Path(str(out) + ".summary").read_bytes() == earlier
    if stage == "csv-chunk":
        assert out.read_bytes() == earlier_csv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.summary"]


def fig7_rows(t_max):
    """Every round of a fig7 run to t_max, with f_star: the CSV's rows."""
    exp = parse_config(FIG7_CFG, t_max=str(t_max), epsilon="1e-300")
    f_star = drdga.solve_centralized(exp.problem).objective
    return drdga.run_until(exp.problem, exp.seq, exp.run, f_star=f_star)[1]


def test_write_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # The writer holds one chunk of rows' text at a time: writing 6,000 more
    # rows raises its traced peak by less than 0.1 MiB.
    rows = fig7_rows(8000)
    short, long = (traced_peak(cli.write_csv, rows[:n], tmp_path / f"run{n}.csv")
                   for n in (2000, 8000))
    assert long - short < 0.1 * 2**20


def one_shot_csv(rows):
    """The CSV text as formatted all at once: every column's .tolist(), then every row."""
    columns = [getattr(rows, c).tolist() for c in cli._COLUMNS]
    return cli.CSV_HEADER + "\n" + "".join(map(cli._ROW.__mod__, zip(*columns)))


def test_write_csv_chunks_write_the_one_shot_bytes(tmp_path):
    rows = fig7_rows(513)
    for n in (1, 255, 256, 257, 513):
        cli.write_csv(rows[:n], tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == one_shot_csv(rows[:n]).encode()


def test_import_loads_no_scipy():
    # Every run pays for what `import drdga` and a certified oracle load;
    # scipy stays out of both.
    src = str(Path(drdga.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, drdga\n"
        f"for path in {[FIG7_CFG, QUAD_CFG, S20_CFG]!r}:\n"
        "    drdga.solve_centralized(drdga.parse_config(path).problem)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
