"""The benchmark's three workloads: input set-up and output checks.

Every request is one `cycleclust solve` run in process on a tm-v1 file that
set-up wrote. Set-up builds its inputs only through `cycleclust.generate`
and numpy, from the workload seed. Checks run after the timed request and
raise `CheckFailed` when an output is wrong.

Why these three (see README.md for the layer each one loads):
- landscape: the paper's sampled multi-well chains, solved to optimality;
  the crash-started primal simplex and a few dual re-solves dominate.
- random-dense: unstructured chains with a weak relaxation and a deep
  tree; dual warm-start re-solves and branching dominate.
- ring-oscillator: the 200-state ring oscillator with `--node-limit 0`;
  model build, standard form and LP export dominate, the simplex is idle.
"""

from __future__ import annotations

import contextlib
import io as textio
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cycleclust.cli as cli
import cycleclust.generate as generate
from cycleclust import io
from cycleclust.clustering import objective, reflect
from cycleclust.heuristics import exchange_improvement, greedy_heuristic
from cycleclust.markov import flow_matrix, project, stationary_distribution, validate_stochastic
from cycleclust.mip import build_mip

ALPHA = 0.001
GAP_TOL = 1e-6
# The landscape and random-dense inputs are a fixed test set, as in the
# paper; the workload seed relabels only the ring oscillator, whose cost
# does not depend on labels. Drawing the landscape chains from the workload
# seed made the median request time of a 30 s run range from 2.2 to 3.5 s
# over five seeds: hardness varies between inputs far more than ~10
# requests can average out.
SAMPLE_SEED = 20260808


class CheckFailed(Exception):
    pass


@dataclass
class Request:
    matrix: Path
    out: Path
    argv: list
    m: int
    base: int  # index of the chain the input relabels


def run_cli(argv) -> tuple[int, str]:
    """`cycleclust <argv>` in process; returns (exit code, captured stdout)."""
    buf = textio.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _solve_argv(matrix: Path, out: Path, m: int, *extra) -> list:
    return ["solve", matrix, "-m", m, "--alpha", ALPHA, "--out", out, *extra]


def _relabeled_requests(chains, relabelings: int, seed: int, workdir: Path,
                        *extra) -> list:
    """Requests on seeded relabellings of each (chain, m): chain-major, so
    that a run touches every chain before it repeats one."""
    rng = np.random.default_rng(seed)
    requests = []
    for r in range(relabelings):
        for base, (tm, m) in enumerate(chains):
            perm = rng.permutation(tm.n)
            k = len(requests)
            matrix = workdir / f"input-{k}.tm"
            io.write_transition_matrix(
                matrix, validate_stochastic(tm.entries[np.ix_(perm, perm)]))
            out = workdir / f"out-{k}"
            requests.append(Request(matrix, out, _solve_argv(matrix, out, m, *extra),
                                    m, base))
    return requests


def _weights(matrix: Path):
    tm = io.read_matrix(matrix)
    return flow_matrix(tm, stationary_distribution(tm))


def _admissible(W, c) -> bool:
    """Every consecutive net flow nonnegative: the model's feasible set."""
    d = project(W, c).delta()
    k = np.arange(c.m)
    return bool(np.all(d[k, (k + 1) % c.m] >= -1e-12))


def _best_admissible(W, c) -> float:
    values = [objective(W, x, ALPHA).total for x in (c, reflect(c)) if _admissible(W, x)]
    return max(values) if values else -math.inf


def _read_outputs(req: Request, rc: int) -> tuple[dict, dict]:
    if rc != 0:
        raise CheckFailed(f"solve exited with code {rc}")
    report = json.loads((req.out / "report.json").read_text())
    path = req.out / "clustering.json"
    if not path.is_file():
        raise CheckFailed("no incumbent clustering written")
    clustering = json.loads(path.read_text())
    vrc, text = run_cli(["verify", req.matrix, path])
    if vrc != 0:
        raise CheckFailed(f"verify disagrees with the stored objective:\n{text}")
    if abs(clustering["objective"]["total"] - report["primal"]) > 1e-12:
        raise CheckFailed("report primal differs from the clustering objective")
    return report, clustering


def _time_limited(report: dict) -> bool:
    """False for a proven optimum, True for a solve stopped by its time
    limit with a dual bound at or above its primal; anything else fails."""
    if report["status"] == "optimal" and report["gap"] <= GAP_TOL:
        return False
    if report["status"] == "time-limit" and report["dual_bound"] is not None \
            and report["dual_bound"] >= report["primal"]:
        return True
    raise CheckFailed(f"neither optimal nor validly time-limited: {report}")


def exhaustive_optimum(W, m: int) -> float:
    """Best objective over all surjective labelings with bin 1 in cluster 1.

    Vectorized over every labeling at once; written apart from the
    package's `brute_force` so that the check shares no code with it.
    """
    n = W.n
    tails = np.array(list(itertools.product(range(m), repeat=n - 1)), dtype=np.int64)
    labels = np.concatenate([np.zeros((len(tails), 1), dtype=np.int64), tails], axis=1)
    surjective = np.all(np.stack([(labels == k).any(axis=1) for k in range(m)]), axis=0)
    labels = labels[surjective]
    onehot = (labels[:, :, None] == np.arange(m)).astype(float)
    agg = (onehot.transpose(0, 2, 1) @ W.entries) @ onehot
    k = np.arange(m)
    nxt = (k + 1) % m
    flow = agg[:, k, nxt].sum(axis=1) - agg[:, nxt, k].sum(axis=1)
    coherence = np.trace(agg, axis1=1, axis2=2)
    return float((flow + ALPHA * coherence).max())


class Landscape:
    """Metropolis trajectories over omega3 (m=3) and omega4 (m=4)."""

    name = "landscape"
    # a request whose LP falls back to a cold conservative solve can run
    # for minutes; the limit bounds it and the trace counts it in
    # bnb.time_limited_fraction (README.md, "The time limits")
    TIME_LIMIT_S = 6.0

    def __init__(self, smoke: bool):
        self.bins = 6 if smoke else 16
        self.steps = 2_000 if smoke else 10_000
        self.bases = 2 if smoke else 6
        self.relabelings = 1 if smoke else 2

    def setup(self, seed: int, workdir: Path) -> list:
        chains = []
        for k in range(self.bases):
            kind, m = (("omega3", 3), ("omega4", 4))[k % 2]
            pot = generate.BY_NAME[kind]
            drift = 0.1 + 0.1 * (k // 2) / max(self.bases // 2 - 1, 1)
            traj = generate.hmc_with_drift(pot, pot.minima[0], beta=0.5,
                                           n_steps=self.steps, drift_mag=drift,
                                           seed=SAMPLE_SEED + k)
            centers = generate.select_bin_centers(traj, self.bins)
            chains.append((generate.hmc_transition_matrix(traj, centers), m))
        # relabelled by a fixed seed, not the workload seed: about one
        # relabelling in five sends a solve into the fallback, and with the
        # workload seed choosing them the median of a run ranged from 2.4 to
        # 5.6 s over six seeds; fixed ones keep that count the same per run
        return _relabeled_requests(chains, self.relabelings, SAMPLE_SEED, workdir,
                                   "--time-limit", self.TIME_LIMIT_S)

    def check(self, req: Request, rc: int) -> dict:
        report, clustering = _read_outputs(req, rc)
        limited = _time_limited(report)
        W = _weights(req.matrix)
        greedy = greedy_heuristic(W, req.m, ALPHA)
        floor = _best_admissible(W, greedy)
        if not limited:
            floor = max(floor, _best_admissible(
                W, exchange_improvement(W, greedy, ALPHA)))
        if report["primal"] < floor - 1e-12:
            raise CheckFailed(f"primal {report['primal']} below heuristic {floor}")
        return {"objective": clustering["objective"]["total"], "time_limited": limited}


class RandomDense:
    """Dense random chains: uniform entries plus a 0.05 floor, m=3."""

    name = "random-dense"
    # same fallback as on landscape, rarer; typical solves take 0.2-1.7 s
    TIME_LIMIT_S = 3.0

    def __init__(self, smoke: bool):
        self.n = 6 if smoke else 10
        self.bases = 2 if smoke else 16
        self.relabelings = 2 if smoke else 6
        self._optimum = {}

    def setup(self, seed: int, workdir: Path) -> list:
        chains = []
        for k in range(self.bases):
            raw = np.random.default_rng([SAMPLE_SEED, k]).random((self.n, self.n)) + 0.05
            chains.append((validate_stochastic(raw / raw.sum(axis=1, keepdims=True)), 3))
        # fixed relabellings, as on landscape: with the workload seed
        # choosing them the median of a run differed by 10 to 30 % between seeds
        return _relabeled_requests(chains, self.relabelings, SAMPLE_SEED, workdir,
                                   "--time-limit", self.TIME_LIMIT_S)

    def check(self, req: Request, rc: int) -> dict:
        report, clustering = _read_outputs(req, rc)
        limited = _time_limited(report)
        # relabelling leaves the optimum unchanged: one search per base chain
        if req.base not in self._optimum:
            self._optimum[req.base] = exhaustive_optimum(_weights(req.matrix), req.m)
        optimum = self._optimum[req.base]
        if limited:
            if not report["primal"] - 1e-9 <= optimum <= report["dual_bound"] + 1e-9:
                raise CheckFailed(f"exhaustive optimum {optimum} outside {report}")
        elif abs(report["primal"] - optimum) > 1e-9:
            raise CheckFailed(f"primal {report['primal']} != exhaustive {optimum}")
        return {"objective": clustering["objective"]["total"], "time_limited": limited}


class RingOscillator:
    """The ring-oscillator chain, relabelled by the seed; heuristics only."""

    name = "ring-oscillator"

    def __init__(self, smoke: bool):
        self.count = 20 if smoke else 200
        self.relabelings = 2 if smoke else 4
        self.min_flow = 0.0 if smoke else 0.05
        self.min_coherence = 0.0 if smoke else 0.25
        self._rows = None

    def setup(self, seed: int, workdir: Path) -> list:
        tm, _, _ = generate.generate_repressilator_instance(count=self.count)
        return _relabeled_requests([(tm, 3)], self.relabelings, seed, workdir,
                                   "--emit-lp", "--node-limit", 0)

    def check(self, req: Request, rc: int) -> dict:
        report, clustering = _read_outputs(req, rc)
        if report["status"] != "node-limit":
            raise CheckFailed(f"unexpected status {report['status']!r}")
        value = clustering["objective"]
        if value["flow"] < self.min_flow or value["coherence"] < self.min_coherence:
            raise CheckFailed(f"weak clustering: {value}")
        if self._rows is None:
            # relabelling permutes rows but keeps their number
            self._rows = build_mip(_weights(req.matrix), 3, ALPHA).nrows
        lines = 0
        with open(req.out / "model.lp") as fh:
            for line in fh:
                if line.startswith("Subject To"):
                    break
            for line in fh:
                if line.startswith("Bounds"):
                    break
                lines += 1
        if lines != self._rows:
            raise CheckFailed(f"model.lp has {lines} constraint lines, model {self._rows} rows")
        return {"objective": value["total"], "time_limited": False}


WORKLOADS = {w.name: w for w in (Landscape, RandomDense, RingOscillator)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
