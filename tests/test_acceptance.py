"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them inline).

Criteria 1-4 and 11 are property/oracle checks; 5-10 re-run the benchmark
experiments at their benchmark parameters. The rate and network-size sweeps
(9, 10) use the documented sweep profile (small initial stepsize, capped
inequality window) so the measured gaps sit above machine precision; all other
runs use the package defaults.

Criterion 5's DGD consensus clause and criterion 8's long-horizon triangle
clause are asserted exactly as stated. Both are below the structural floor of
the method on that problem (the stepsize corridor keeps per-round motion of
order alpha0/sqrt(k), and the agents' gradients at an interior optimum do not
vanish individually, leaving a consensus error of about 2.8 * alpha_k), so
they are expected to fail; see the criterion docstrings for the arithmetic.
"""

import math

import numpy as np
import pytest

from dpsla.engine import Dgd, Dpsla, NaivePolyak, run, run_speedup_sweep, sweep_algorithm
from dpsla.feasibility import InequalitySystem
from dpsla.metrics import csv_header, write_csv
from dpsla.numerics import Rng
from dpsla.problem import gen_paper_instance, gen_triangle_demo
from dpsla.topology import build_graph, metropolis_weights

from .util import brute_force_margin, random_halfspace_system

SEEDS = list(range(10))


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def paper_instances():
    out = []
    for seed in SEEDS:
        inst = gen_paper_instance(rng=Rng(seed))
        inst.ensure_optimum(1e-10)
        out.append(inst)
    return out


@pytest.fixture(scope="module")
def triangle():
    inst = gen_triangle_demo()
    inst.ensure_optimum(1e-11)
    return inst


def test_criterion_01_mixing_matrix_correctness():
    """Metropolis matrices: symmetric, nonnegative, doubly stochastic to 1e-12;
    triangle weights exactly 1/3."""
    graphs = [build_graph("triangle", 3)]
    graphs += [build_graph("ring", n) for n in range(5, 51, 5)]
    graphs += [build_graph("random", n, edge_prob=0.4, rng=Rng(n))
               for n in (10, 25, 50)]
    ok = True
    for g in graphs:
        W = metropolis_weights(g)
        ones = np.ones(g.n_agents)
        ok &= bool(np.all(W >= 0))
        ok &= bool(np.allclose(W, W.T, atol=1e-15))
        ok &= float(np.max(np.abs(W @ ones - ones))) <= 1e-12
        ok &= float(np.max(np.abs(W.T @ ones - ones))) <= 1e-12
    tri = metropolis_weights(build_graph("triangle", 3))
    # every edge weight is exactly 1/3; the diagonal (1 - sum of the row's
    # edge weights) may differ from fl(1/3) by one rounding of that sum
    off = ~np.eye(3, dtype=bool)
    ok &= bool(np.all(tri[off] == 1 / 3))
    ok &= float(np.max(np.abs(np.diag(tri) - 1 / 3))) <= 1e-16
    _report("criterion 1: mixing-matrix correctness", ok)
    assert ok


def test_criterion_02_stepsize_corridor(paper_instances):
    """On 20 random benchmark instances x 500 iterations every stepsize obeys
    c0*a0/(2c_k) <= alpha <= c0*a0/c_k and alpha is non-increasing, exactly."""
    cfg = Dpsla().stepsize
    ok = True
    insts = list(paper_instances)
    for seed in range(10, 20):
        inst = gen_paper_instance(rng=Rng(seed))
        inst.ensure_optimum(1e-10)
        insts.append(inst)
    for seed, inst in enumerate(insts):
        trace = run(inst, Dpsla(), 500, seed=seed)
        prev = None
        for k in range(1, 501):
            ck = cfg.c_value(k - 1)
            lower = (cfg.c0 * cfg.alpha0 / 2) / ck
            upper = (cfg.c0 * cfg.alpha0) / ck
            for i, a in enumerate(trace.records[k].alpha):
                ok &= lower <= a <= upper
                if prev is not None:
                    ok &= a <= prev[i]
            prev = trace.records[k].alpha
    _report("criterion 2: stepsize corridor bounds", ok)
    assert ok


def test_criterion_03_level_soundness(paper_instances):
    """Levels are non-decreasing, end below f_i(x*) + 1e-6(1+|f_i(x*)|), and on
    the main instance each agent updates at least once within 300 rounds."""
    ok = True
    for seed, inst in enumerate(paper_instances):
        trace = run(inst, Dpsla(), 500, seed=seed)
        for i in range(inst.n_agents):
            seq = [r.level[i] for r in trace.records]
            ok &= all(a <= b for a, b in zip(seq, seq[1:]))
            fi = inst.optimum.local_values[i]
            ok &= seq[-1] <= fi + 1e-6 * (1 + abs(fi))
    main_inst = paper_instances[0]
    trace = run(main_inst, Dpsla(), 300, seed=0)
    for i in range(main_inst.n_agents):
        ok &= any(r.level_updated[i] for r in trace.records)
    _report("criterion 3: level soundness and liveness", ok)
    assert ok


def test_criterion_04_feasibility_oracle_equivalence():
    """>= 1000 random 2-D systems: simplex verdict matches the grid+vertex
    brute-force oracle on every non-marginal case."""
    gen = np.random.default_rng(2024)
    checked = 0
    agree = 0
    trials = 0
    while checked < 1000 and trials < 4000:
        trials += 1
        halfspaces = random_halfspace_system(gen, int(gen.integers(1, 11)))
        margin = brute_force_margin(halfspaces)
        if abs(margin) < 1e-5:
            continue
        sys_ = InequalitySystem(2)
        for h in halfspaces:
            sys_.add_constraint(h)
        verdict = sys_.check_feasible()
        agree += verdict.feasible == (margin <= 1e-6)
        checked += 1
    ok = checked >= 1000 and agree == checked
    _report("criterion 4: feasibility solver vs brute force",
            ok, f"{agree}/{checked} agree")
    assert ok


def test_criterion_05_divergence_reproduction(triangle):
    """Naive Polyak stays non-consensual on the triangle demo while DGD with
    the diminishing rule converges.

    The DGD consensus threshold (1e-3 at k=500) sits below the shared-schedule
    floor: with identical aggregated states, per-agent iterates differ by
    alpha_k * (grad spread) ~ 2.82 * 2/(k+1) ~ 1.1e-2 at k=500, so that clause
    cannot hold for this rule on this problem; it is asserted as written."""
    naive = run(triangle, NaivePolyak(target="local_min"), 500, seed=0)
    nc = [r.consensus_error for r in naive.records]
    naive_ok = naive.records[-1].diverged or min(nc[100:]) >= 1e-2

    dgd = run(triangle, Dgd(scale=2.0), 500, seed=0)
    res = [r.residual for r in dgd.records]
    ce = [r.consensus_error for r in dgd.records]
    dgd_residual_ok = res[500] <= 0.05 * res[0]
    dgd_consensus_ok = ce[500] <= 1e-3

    _report("criterion 5a: naive Polyak non-consensus", naive_ok,
            f"min consensus after k=100 is {min(nc[100:]):.3g}")
    _report("criterion 5b: dgd residual drop", dgd_residual_ok,
            f"res500/res0 = {res[500] / res[0]:.3g}")
    _report("criterion 5c: dgd consensus 1e-3", dgd_consensus_ok,
            f"consensus(500) = {ce[500]:.3g}, structural floor ~2.8*alpha_500")
    assert naive_ok and dgd_residual_ok
    assert dgd_consensus_ok, (
        "consensus floor: alpha_500 * mean gradient spread = "
        f"{2 / 501 * 2.82:.3g} > 1e-3 for the prescribed diminishing rule")


def test_criterion_06_main_comparison(paper_instances):
    """For >= 8 of 10 seeds the adaptive method beats DGD at k=300 and drops
    its residual below 5% of the initial value within 50 iterations."""
    good = 0
    details = []
    for seed, inst in enumerate(paper_instances):
        trd = run(inst, Dpsla(), 300, seed=seed)
        trg = run(inst, Dgd(scale=2.0), 300, seed=seed)
        rd = [r.residual for r in trd.records]
        rg = [r.residual for r in trg.records]
        beats = rd[300] < rg[300]
        fast = rd[50] <= 0.05 * rd[0]
        good += beats and fast
        details.append(f"{seed}:{'BF'[beats]}{'SD'[fast]}")
    ok = good >= 8
    _report("criterion 6: main comparison", ok, f"{good}/10 seeds")
    assert ok


def test_criterion_07_level_accuracy(paper_instances):
    """Seed-median relative level gap at k=300 is at most 5% for every agent."""
    rel_gaps = {i: [] for i in range(4)}
    for seed, inst in enumerate(paper_instances):
        trace = run(inst, Dpsla(), 300, seed=seed)
        levels = trace.records[300].level
        for i in range(4):
            fi = inst.optimum.local_values[i]
            rel_gaps[i].append(abs(levels[i] - fi) / (1 + abs(fi)))
    medians = [float(np.median(rel_gaps[i])) for i in range(4)]
    ok = all(m <= 0.05 for m in medians)
    _report("criterion 7: level accuracy", ok,
            "medians " + ", ".join(f"{m:.2e}" for m in medians))
    assert ok


def test_criterion_08_consensus(paper_instances, triangle):
    """Consensus error at k=300 on the main instance <= 1e-3, and <= 1e-5 at
    k=2000 on the triangle demo.

    The triangle clause is below the structural floor: the stepsize corridor
    keeps alpha_2000 >= c0*a0/(2*c_2000) and the agents' gradients at the
    interior optimum have mean spread ~2.8, so consensus error at k=2000 is
    ~2.8/sqrt(2001) * a0/2 (~0.06 at the default a0=2; reaching 1e-5 would
    need a0 <= 3e-4, which cannot move the iterates anywhere). Asserted as
    written."""
    tr_main = run(paper_instances[0], Dpsla(), 300, seed=0)
    main_ce = tr_main.records[300].consensus_error
    main_ok = main_ce <= 1e-3
    _report("criterion 8a: main-instance consensus", main_ok, f"ce(300) = {main_ce:.3g}")

    tr_tri = run(triangle, Dpsla(), 2000, seed=0)
    tri_ce = tr_tri.records[2000].consensus_error
    tri_ok = tri_ce <= 1e-5
    _report("criterion 8b: triangle consensus at k=2000", tri_ok,
            f"ce(2000) = {tri_ce:.3g}, structural floor ~2.8*alpha_2000")
    assert main_ok
    assert tri_ok, (
        f"consensus floor 2.82 * alpha_2000 = {2.82 * tr_tri.records[2000].alpha[0]:.3g} "
        "exceeds 1e-5 for any stepsize scale that also satisfies criterion 6")


def test_criterion_09_rate_check():
    """gap(T) * sqrt(T) stays within a factor 10 across T in {200, 800, 3200}
    (n=4, 10 seeds, sweep profile)."""
    alg = sweep_algorithm()
    Q = {}
    for T in (200, 800, 3200):
        gaps = []
        for seed in SEEDS:
            rng = Rng((seed << 16) ^ 4)
            inst = gen_paper_instance(rng=rng)
            inst.ensure_optimum(1e-10)
            trace = run(inst, alg, T, seed=seed)
            window = [r.residual for r in trace.records[T // 2:T + 1]]
            gaps.append(max(min(window), 0.0) / 4)
        Q[T] = (sum(gaps) / len(gaps)) * math.sqrt(T)
    ratio = max(Q.values()) / min(Q.values())
    ok = ratio <= 10.0
    _report("criterion 9: rate non-explosion", ok,
            "Q=" + ", ".join(f"{t}:{q:.1f}" for t, q in Q.items()) + f"; ratio {ratio:.2f}")
    assert ok


def test_criterion_10_linear_speedup():
    """Seed-averaged gap at T=600 non-increasing over n in {4, 8, 16} within a
    10% slack factor (sweep profile)."""
    result = run_speedup_sweep([4, 8, 16], 600, SEEDS, alg=sweep_algorithm())
    means = result.means
    ok = all(means[b] <= 1.1 * means[a] for a, b in ((4, 8), (8, 16)))
    _report("criterion 10: linear speedup", ok,
            "means " + ", ".join(f"n={n}:{v:.3f}" for n, v in sorted(means.items())))
    assert ok


def test_criterion_11_determinism_and_schema(tmp_path, paper_instances):
    """Byte-identical traces for identical config+seed; exact CSV header."""
    inst = paper_instances[0]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run(inst, Dpsla(), 120, seed=7), p1)
    write_csv(run(inst, Dpsla(), 120, seed=7), p2)
    identical = p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    expected = ("k,residual,consensus_error,alpha_0,alpha_1,alpha_2,alpha_3,"
                "level_0,level_1,level_2,level_3,diverged")
    schema_ok = header == expected == csv_header(4)
    ok = identical and schema_ok
    _report("criterion 11: determinism and schema", ok)
    assert ok
