import re

import numpy as np
import pytest

from cycleclust import io
from cycleclust.bnb import SolverConfig
from cycleclust.clustering import CycleClustering, objective
from cycleclust.errors import FileFormatError
from cycleclust.generate import MultiwayCutInstance
from cycleclust.generate.triangle import triangle_fixture
from cycleclust.markov import FlowMatrix, TransitionMatrix

from util import random_chain


def test_transition_matrix_round_trip(tmp_path):
    P, _, _ = random_chain(6, 0)
    path = tmp_path / "m.tm"
    io.write_transition_matrix(path, P)
    again = io.read_transition_matrix(path)
    assert np.array_equal(P.entries, again.entries)


def test_flow_matrix_round_trip(tmp_path):
    w = triangle_fixture()
    path = tmp_path / "m.fm"
    io.write_flow_matrix(path, w)
    again = io.read_flow_matrix(path)
    assert np.array_equal(w.entries, again.entries)


def test_mixed_formats_rejected(tmp_path):
    P, _, w = random_chain(4, 1)
    tm_path = tmp_path / "a.tm"
    fm_path = tmp_path / "b.fm"
    io.write_transition_matrix(tm_path, P)
    io.write_flow_matrix(fm_path, w)
    with pytest.raises(FileFormatError):
        io.read_transition_matrix(fm_path)
    with pytest.raises(FileFormatError):
        io.read_flow_matrix(tm_path)


def test_read_matrix_dispatches_on_header(tmp_path):
    P, _, w = random_chain(4, 2)
    io.write_transition_matrix(tmp_path / "a.tm", P)
    io.write_flow_matrix(tmp_path / "b.fm", w)
    assert isinstance(io.read_matrix(tmp_path / "a.tm"), TransitionMatrix)
    assert isinstance(io.read_matrix(tmp_path / "b.fm"), FlowMatrix)


def test_truncated_matrix_rejected(tmp_path):
    path = tmp_path / "bad.tm"
    path.write_text("3\n0.5 0.5 0.0\n")
    with pytest.raises(FileFormatError):
        io.read_transition_matrix(path)


def test_clustering_round_trip(tmp_path):
    w = triangle_fixture()
    c = CycleClustering(n=9, m=3,
                        assignment=np.array([1, 2, 3, 1, 1, 2, 2, 3, 3]))
    value = objective(w, c, 0.001)
    path = tmp_path / "c.json"
    io.write_clustering(path, c, value)
    again, alpha, stored = io.read_clustering(path)
    assert again.assignment.tolist() == c.assignment.tolist()
    assert alpha == 0.001
    assert stored["flow"] == value.flow_part
    assert stored["total"] == value.total


def test_solver_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"gap_tol": 1e-5, "time_limit_s": 2.5, '
                    '"node_selection": "dfs", '
                    '"heuristics": {"greedy": false, "rounding": true, '
                    '"exchange": false}}')
    cfg = io.read_solver_config(path)
    assert cfg.gap_tol == 1e-5
    assert cfg.time_limit_s == 2.5
    assert cfg.node_selection == "dfs"
    assert cfg.heuristics.greedy is False
    assert cfg.heuristics.rounding is True
    assert cfg.heuristics.exchange is False


def test_default_config_from_empty_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert io.read_solver_config(path) == SolverConfig()


def test_multiway_cut_round_trip(tmp_path):
    mc = MultiwayCutInstance(5, ((1, 4, 1.5), (2, 5, 0.25), (4, 5, 2.0)),
                             (1, 2, 3))
    path = tmp_path / "graph.txt"
    io.write_multiway_cut(path, mc)
    again = io.read_multiway_cut(path)
    assert again == mc


def test_points_csv_headers(tmp_path):
    path2 = tmp_path / "two.csv"
    io.write_points_csv(path2, np.zeros((3, 2)))
    assert path2.read_text().splitlines()[0] == "step,x,y"
    path6 = tmp_path / "six.csv"
    io.write_points_csv(path6, np.zeros((3, 6)))
    assert path6.read_text().splitlines()[0] == "step,x1,x2,x3,x4,x5,x6"


def test_manifest_round_trip(tmp_path):
    doc = {"command": "generate", "seed": 7, "tool_version": "0.1.0"}
    path = tmp_path / "manifest.json"
    io.write_manifest(path, doc)
    assert io.read_manifest(path) == doc


@pytest.mark.parametrize("doc", [
    '{"node_selection": "DFS"}',
    '{"node_selection": "breadth_first"}',
    '{"gap_tol": "tight"}',
    '{"time_limit_s": "60"}',
    '{"node_limit": true}',
    '{"node_limit": 2.5}',
    '{"node_limit": 2.0}',
    '{"node_limit": -1}',
    '{"gap_tol": -1}',
    '{"gap_tol": NaN}',
    '{"gap_tol": Infinity}',
    '{"time_limit_s": -5}',
    '{"time_limit_s": Infinity}',
    '{"gap_tol": null}',
    '{"time_limit": 0.001}',  # misspelt keys
    '{"heuristics": {"greedy": false, "exchnage": false}}',
])
def test_solver_config_rejects_unknown_values(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    with pytest.raises(FileFormatError):
        io.read_solver_config(path)


@pytest.mark.parametrize("doc,key", [
    ('{"time_limit": 0.001, "gap_tol": 0.1}', "'time_limit'"),
    ('{"heuristics": {"greedy": false, "exchnage": false}}', "'heuristics.exchnage'"),
])
def test_unknown_solver_config_key_is_named(tmp_path, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    with pytest.raises(FileFormatError, match=re.escape(f"unknown key {key}")):
        io.read_solver_config(path)
