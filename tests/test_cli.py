import json

import numpy as np
import pytest

from cycleclust import io
from cycleclust.cli import _load_weights, build_parser, main
from cycleclust.generate import MultiwayCutInstance
from cycleclust.mip import build_mip, export_model


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_generate_triangle_writes_nine_bin_flow_file(tmp_path):
    out = tmp_path / "tri"
    assert run("generate", "triangle", "--out", out) == 0
    w = io.read_flow_matrix(out / "matrix.fm")
    assert w.n == 9
    manifest = io.read_manifest(out / "manifest.json")
    assert manifest["command"] == "generate"
    assert manifest["tool_version"]


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("generate", "omega3", "--out", out, "--seed", 7,
                   "--drift", 0.1, "--steps", 600, "--bins", 6) == 0
    assert (a / "matrix.tm").read_bytes() == (b / "matrix.tm").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_solve_verify_round_trip(tmp_path):
    out = tmp_path / "tri"
    sol = tmp_path / "sol"
    assert run("generate", "triangle", "--out", out) == 0
    assert run("solve", out / "matrix.fm", "-m", 3, "--out", sol,
               "--emit-lp") == 0
    report = json.loads((sol / "report.json").read_text())
    assert report["status"] == "optimal"
    assert report["gap"] <= 1e-6
    assert report["primal"] == pytest.approx(0.3 / 9 + 0.001 * 8.4 / 9, abs=1e-9)
    assert (sol / "model.lp").read_text().startswith("Maximize")
    assert run("verify", out / "matrix.fm", sol / "clustering.json") == 0


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "tri"
    sol = tmp_path / "sol"
    run("generate", "triangle", "--out", out)
    run("solve", out / "matrix.fm", "-m", 3, "--out", sol)
    doc = json.loads((sol / "clustering.json").read_text())
    doc["objective"]["total"] += 0.01
    (sol / "clustering.json").write_text(json.dumps(doc))
    assert run("verify", out / "matrix.fm", sol / "clustering.json") == 1


@pytest.mark.parametrize("m", [0, 2, 10])
@pytest.mark.parametrize("command", ["solve", "oracle", "export-lp"])
def test_invalid_cluster_count_is_usage_error(tmp_path, command, m):
    # the triangle fixture has 9 bins, so only 3 <= m <= 9 is valid
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    extra = [] if command == "oracle" else ["--out", tmp_path / "x"]
    assert run(command, out / "matrix.fm", "-m", m, *extra) == 2


def test_oracle_agrees_with_solve(tmp_path, capsys):
    out = tmp_path / "tri"
    sol = tmp_path / "sol"
    run("generate", "triangle", "--out", out)
    run("solve", out / "matrix.fm", "-m", 3, "--out", sol)
    capsys.readouterr()
    assert run("oracle", out / "matrix.fm", "-m", 3) == 0
    doc = json.loads(capsys.readouterr().out)
    stored = json.loads((sol / "clustering.json").read_text())
    assert doc["assignment"] == stored["assignment"]
    assert doc["objective"]["total"] == pytest.approx(
        stored["objective"]["total"], abs=1e-9)


def test_oracle_guard_is_usage_error(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.random((30, 30)) + 0.2
    from cycleclust.markov import validate_stochastic
    io.write_transition_matrix(
        tmp_path / "big.tm",
        validate_stochastic(raw / raw.sum(axis=1, keepdims=True)))
    assert run("oracle", tmp_path / "big.tm", "-m", 3) == 2


def test_export_lp_contains_symmetry_fix(tmp_path):
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    lp = tmp_path / "model.lp"
    assert run("export-lp", out / "matrix.fm", "-m", 3, "--out", lp) == 0
    assert " x_1_1 = 1" in lp.read_text().splitlines()


def test_written_model_lp_is_the_exported_text(tmp_path, monkeypatch):
    """solve --emit-lp and export-lp write export_model's text byte for
    byte, also when it spans several write slices."""
    import cycleclust.cli as cli

    monkeypatch.setattr(cli, "LP_WRITE_SLICE", 1000)
    run("generate", "omega3", "--out", tmp_path / "in", "--seed", 3,
        "--steps", 600, "--bins", 7)
    matrix = tmp_path / "in" / "matrix.tm"
    expected = export_model(build_mip(_load_weights(str(matrix))[0], 3, 0.001)).encode()
    assert len(expected) > 10 * cli.LP_WRITE_SLICE
    assert run("solve", matrix, "-m", 3, "--out", tmp_path / "sol", "--emit-lp",
               "--node-limit", 0) == 0
    assert run("export-lp", matrix, "-m", 3, "--out", tmp_path / "model.lp") == 0
    assert (tmp_path / "sol" / "model.lp").read_bytes() == expected
    assert (tmp_path / "model.lp").read_bytes() == expected


def test_multiway_cut_generation(tmp_path):
    mc = MultiwayCutInstance(4, ((1, 4, 3.0), (2, 4, 1.0), (3, 4, 1.0)),
                             (1, 2, 3))
    graph = tmp_path / "graph.txt"
    io.write_multiway_cut(graph, mc)
    out = tmp_path / "mcut"
    assert run("generate", "multiway-cut", "--graph", graph, "--out", out) == 0
    w = io.read_flow_matrix(out / "matrix.fm")
    assert w.n == 4
    manifest = io.read_manifest(out / "manifest.json")
    assert manifest["arguments"]["big_m"] == pytest.approx(0.001 * 5.0 + 1.0)


def test_missing_graph_argument(tmp_path):
    assert run("generate", "multiway-cut", "--out", tmp_path / "x") == 2


def test_periodic_chain_is_a_runtime_error(tmp_path):
    from cycleclust.markov import validate_stochastic

    cycle = validate_stochastic(np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]))
    io.write_transition_matrix(tmp_path / "cycle.tm", cycle)
    assert run("solve", tmp_path / "cycle.tm", "-m", 3,
               "--out", tmp_path / "sol") == 1


def test_generate_solve_verify_round_trip_omega3(tmp_path):
    inst = tmp_path / "inst"
    sol = tmp_path / "sol"
    assert run("generate", "omega3", "--out", inst, "--seed", 3,
               "--steps", 1500, "--bins", 8) == 0
    assert run("solve", inst / "matrix.tm", "-m", 3, "--out", sol) == 0
    assert run("verify", inst / "matrix.tm", sol / "clustering.json") == 0


def test_generate_repressilator_default_size(tmp_path):
    inst = tmp_path / "inst"
    assert run("generate", "repressilator", "--out", inst) == 0
    tm = io.read_transition_matrix(inst / "matrix.tm")
    assert tm.n == 200
    starts = (inst / "starts.csv").read_text().splitlines()
    assert starts[0] == "step,m_a,p_a,m_b,p_b,m_c,p_c"
    assert len(starts) == 201


def test_generate_solve_verify_round_trip_repressilator(tmp_path):
    inst = tmp_path / "inst"
    sol = tmp_path / "sol"
    assert run("generate", "repressilator", "--out", inst, "--count", 12,
               "--t-final", 0.25) == 0
    assert run("solve", inst / "matrix.tm", "-m", 3, "--out", sol,
               "--time-limit", 30) == 0
    assert run("verify", inst / "matrix.tm", sol / "clustering.json") == 0


def test_solve_reports_anytime_bounds_under_time_limit(tmp_path):
    inst = tmp_path / "inst"
    sol = tmp_path / "sol"
    assert run("generate", "repressilator", "--out", inst, "--count", 40,
               "--t-final", 0.25) == 0
    assert run("solve", inst / "matrix.tm", "-m", 3, "--out", sol,
               "--time-limit", 1) == 0
    report = json.loads((sol / "report.json").read_text())
    assert report["status"] in ("time-limit", "optimal")
    assert report["primal"] is not None
    assert report["dual_bound"] >= report["primal"] - 1e-12


def test_multiway_cut_full_round_trip(tmp_path):
    mc = MultiwayCutInstance(5, ((1, 4, 2.0), (2, 4, 1.0), (3, 5, 1.0),
                                 (4, 5, 0.5)), (1, 2, 3))
    graph = tmp_path / "graph.txt"
    io.write_multiway_cut(graph, mc)
    inst = tmp_path / "mcut"
    sol = tmp_path / "sol"
    assert run("generate", "multiway-cut", "--graph", graph, "--out", inst) == 0
    assert run("solve", inst / "matrix.fm", "-m", 3, "--out", sol) == 0
    assert run("verify", inst / "matrix.fm", sol / "clustering.json") == 0


@pytest.mark.parametrize("kind", ["omega4", "omega6"])
def test_generate_solve_verify_round_trip_other_landscapes(tmp_path, kind):
    inst = tmp_path / "inst"
    sol = tmp_path / "sol"
    assert run("generate", kind, "--out", inst, "--seed", 5,
               "--steps", 1200, "--bins", 8) == 0
    assert run("solve", inst / "matrix.tm", "-m", 3, "--out", sol) == 0
    assert run("verify", inst / "matrix.tm", sol / "clustering.json") == 0


def test_config_file_drives_solver(tmp_path):
    out = tmp_path / "tri"
    sol = tmp_path / "sol"
    run("generate", "triangle", "--out", out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"node_selection": "dfs", "gap_tol": 1e-7, '
                   '"heuristics": {"greedy": true, "rounding": false, '
                   '"exchange": true}}')
    assert run("solve", out / "matrix.fm", "-m", 3, "--out", sol,
               "--config", cfg) == 0
    report = json.loads((sol / "report.json").read_text())
    assert report["status"] == "optimal"
    manifest = io.read_manifest(sol / "manifest.json")
    assert manifest["config"] == str(cfg)


def test_config_with_unknown_node_selection_is_a_usage_error(tmp_path):
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"node_selection": "DFS"}')
    assert run("solve", out / "matrix.fm", "-m", 3, "--out", tmp_path / "sol",
               "--config", cfg) == 2
    assert not (tmp_path / "sol" / "report.json").exists()


def test_manifest_reproducibility(tmp_path):
    reports = []
    for sub in ("one", "two"):
        inst = tmp_path / sub / "inst"
        sol = tmp_path / sub / "sol"
        run("generate", "omega3", "--out", inst, "--seed", 11,
            "--steps", 900, "--bins", 6)
        run("solve", inst / "matrix.tm", "-m", 3, "--out", sol)
        doc = json.loads((sol / "report.json").read_text())
        doc.pop("wall_time")
        reports.append(doc)
        clusterings = (sol / "clustering.json").read_bytes()
        if sub == "one":
            first_clustering = clusterings
    assert reports[0] == reports[1]
    assert clusterings == first_clustering


@pytest.mark.parametrize("command", ["omega3", "omega4", "omega6", "repressilator",
                                     "triangle", "multiway-cut", "solve"])
def test_manifest_records_every_parsed_option(tmp_path, command):
    """Every option argparse parsed, apart from --out, is in the manifest's
    arguments with its parsed value; every option here is given a value
    other than its default."""
    graph = tmp_path / "graph.txt"
    io.write_multiway_cut(graph, MultiwayCutInstance(
        4, ((1, 4, 3.0), (2, 4, 1.0), (3, 4, 1.0)), (1, 2, 3)))
    run("generate", "triangle", "--out", tmp_path / "tri")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gap_tol": 1e-5}')
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", tmp_path / "tri" / "matrix.fm", "-m", 3, "--alpha", 0.002,
                "--config", cfg, "--time-limit", 30, "--gap-tol", 1e-7,
                "--node-limit", 50, "--node-selection", "dfs", "--emit-lp"]
    else:
        argv = ["generate", command, "--seed", 4, "--drift", 0.2, "--beta", 0.6,
                "--steps", 600, "--bins", 6, "--lag", 2, "--count", 8,
                "--t-final", 0.05, "--dt", 0.01, "--graph", graph, "--alpha", 0.002]
    argv = [str(a) for a in [*argv, "--out", out]]
    parsed = vars(build_parser().parse_args(argv))
    assert run(*argv) == 0
    manifest = io.read_manifest(out / "manifest.json")
    assert manifest["command"] == parsed.pop("command")
    for key in parsed.keys() - {"func", "out"}:
        assert manifest["arguments"][key] == parsed[key], key


def test_bad_number_in_a_matrix_is_a_format_error(tmp_path, capsys):
    matrix = tmp_path / "bad.tm"
    matrix.write_text("2\n0.5 0.5\n0.5 abc\n")
    assert run("solve", matrix, "-m", 3, "--out", tmp_path / "sol") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3" in err and str(matrix) in err


def test_bad_number_in_a_multiway_cut_graph_is_a_format_error(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("4 3\n1 2 3\n\n1 4 x\n")
    assert run("generate", "multiway-cut", "--graph", graph,
               "--out", tmp_path / "x") == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"gap_tol": 1e-7,',  # malformed JSON
    '[1, 2]',  # not an object
    '{"heuristics": {"greedy": "false"}}',  # a string, not a JSON boolean
    '{"heuristics": [true]}',
])
def test_bad_config_is_a_format_error(tmp_path, capsys, text):
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    capsys.readouterr()
    assert run("solve", out / "matrix.fm", "-m", 3, "--out", tmp_path / "sol",
               "--config", cfg) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "sol" / "report.json").exists()


NOT_NEGATIVE, POSITIVE = "must be finite and not negative", "must be finite and positive"


@pytest.mark.parametrize("command,option,message", [
    *[pytest.param("solve", option, NOT_NEGATIVE, id=option)
      for option in ("--node-limit=-1", "--gap-tol=-0.5", "--gap-tol=nan",
                     "--time-limit=-5", "--time-limit=inf")],
    # every command that takes --alpha
    *[pytest.param(command, f"--alpha={value}", POSITIVE, id=f"{command}--alpha={value}")
      for command, value in (("solve", "0"), ("solve", "nan"), ("oracle", "-1"),
                             ("oracle", "nan"), ("export-lp", "0"), ("export-lp", "-inf"),
                             ("generate", "-1"), ("generate", "inf"))],
    # generate's sampling, binning and integration options
    *[pytest.param("generate", option, message, id=f"generate{option}")
      for option, message in (("--steps=1", "must be finite and above 1"),
                              ("--beta=0", POSITIVE), ("--lag=0", POSITIVE),
                              ("--count=0", POSITIVE), ("--dt=0", POSITIVE),
                              ("--t-final=0", POSITIVE), ("--bins=0", POSITIVE),
                              ("--bins=-2", POSITIVE), ("--drift=nan", NOT_NEGATIVE),
                              ("--seed=-1", NOT_NEGATIVE),
                              ("--t-final=0.0005", "is below --dt"),
                              ("--bins=many", "invalid int value: 'many'"))],
])
def test_negative_or_non_finite_solver_limit_is_a_usage_error(tmp_path, capsys, command,
                                                              option, message):
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    matrix, sol = out / "matrix.fm", tmp_path / "sol"
    argv = {
        "solve": ["solve", matrix, "-m", 3, "--out", sol],
        "oracle": ["oracle", matrix, "-m", 3],
        "export-lp": ["export-lp", matrix, "-m", 3, "--out", sol],
        "generate": ["generate", "multiway-cut", "--graph", tmp_path / "graph", "--out", sol],
    }[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(*argv, option)
    assert exc.value.code == 2
    printed = capsys.readouterr()
    assert message in printed.err
    assert not printed.out
    assert not sol.exists()


VALID_CLUSTERING = {"n": 9, "m": 3, "alpha": 0.001,
                    "assignment": [1, 2, 3, 1, 2, 3, 1, 2, 3],
                    "objective": {"total": 0.1, "flow": 0.1, "coherence": 0.0}}


def _clustering_with(**changes) -> str:
    return json.dumps({**VALID_CLUSTERING, **changes})


@pytest.mark.parametrize("text", [
    '{"n": 9,', '"n"', '{"n": "nine", "m": 3, "assignment": [], "alpha": 0, "objective": {}}',
    _clustering_with(objective={"total": 0.1, "flow": 0.1}),  # no coherence
    _clustering_with(objective={"total": "high", "flow": 0.1, "coherence": 0.0}),
    _clustering_with(objective={"total": None, "flow": 0.1, "coherence": 0.0}),
    _clustering_with(objective=[0.1, 0.1, 0.0]),
    _clustering_with(alpha=0),
    _clustering_with(alpha=-0.001),
    # labels and counts must be JSON integers, not numbers that truncate to one
    _clustering_with(assignment=[k + 0.5 for k in VALID_CLUSTERING["assignment"]]),
    _clustering_with(n=9.7),
    _clustering_with(assignment=[True] + VALID_CLUSTERING["assignment"][1:]),
    _clustering_with(assignment=[10 ** 30] + VALID_CLUSTERING["assignment"][1:]),
])
def test_verify_of_a_malformed_clustering_is_a_format_error(tmp_path, text):
    out = tmp_path / "tri"
    run("generate", "triangle", "--out", out)
    clustering = tmp_path / "clustering.json"
    clustering.write_text(text)
    assert run("verify", out / "matrix.fm", clustering) == 2
