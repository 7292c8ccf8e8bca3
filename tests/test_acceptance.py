"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; run with
``pytest -v`` (the summary shows the captured lines via ``-rP``).
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from envelofit.baseline import default_baselines, lti_smooth_estimate
from envelofit.bench import run_scaling
from envelofit.cli import main as cli_main
from envelofit.core import BoxConstraint, Signal, mse
from envelofit.kernel import (
    KernelSpec,
    apply_resolvent,
    band_half_width,
    build_band,
    embed_circulant,
)
from envelofit.pipeline import PipelineParams, decompose_debiased
from envelofit.prox import ProxParams
from envelofit.solver import SolveParams, solve_constrained_filter
from envelofit.synth import TrialSpec, generate_trial

from oracles import (
    apply_circulant,
    circulant_row,
    dense_toeplitz,
    prox_r,
    prox_scalar_q,
    solve_reference_dense,
)
from test_prox import brute_prox_q, brute_prox_r, random_bounds
from test_solver import pd_instance


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def experiment():
    """20-trial desk-scale experiment shared by criteria 5, 6 and 7."""
    pipeline = PipelineParams()
    baselines = default_baselines(10.0)

    def one(i):
        trial = generate_trial(TrialSpec(seed=1 + i))
        dec = decompose_debiased(trial.observation, pipeline)
        proposed = mse(trial.smooth, dec.smooth)
        base = [mse(trial.smooth, lti_smooth_estimate(trial.observation, f)[0])
                for f in baselines]
        return trial, dec, proposed, base

    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=4) as ex:
        rows = list(ex.map(one, range(20)))
    elapsed = time.monotonic() - start
    return {"rows": rows, "elapsed_s": elapsed, "pipeline": pipeline}


def test_criterion_1_prox_oracle():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    n_cases = 0
    for _ in range(600):
        a, b = random_bounds(rng)
        alpha = float(rng.uniform(0.05, 5.0))
        s = float(rng.normal(scale=5.0))
        got = prox_scalar_q(s, a, b, alpha)
        worst = max(worst, abs(got - brute_prox_q(s, a, b, alpha)))
        n_cases += 1
    for _ in range(30):
        n = 16
        y = rng.normal(scale=2.0, size=n)
        pairs = [random_bounds(rng) for _ in range(n)]
        a = np.array([p[0] for p in pairs])
        b = np.array([p[1] for p in pairs])
        lam = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 5.0))
        p = ProxParams(lam=lam, alpha=alpha, y=y, box=BoxConstraint(a, b))
        t = rng.normal(scale=5.0, size=n)
        got = prox_r(t, p)
        for i in range(n):
            worst = max(worst, abs(
                got[i] - brute_prox_r(t[i], y[i], a[i], b[i], alpha, lam)
            ))
            n_cases += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and n_cases >= 1000 and elapsed < 10.0
    report(1, "prox oracle", ok,
           f"{n_cases} cases, worst gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_solver_oracle():
    import dataclasses
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        # residual tolerance amplifies ~3x into solution error, so solve
        # well past the 1e-5 comparison threshold
        p = dataclasses.replace(pd_instance(rng), tol=1e-8, max_iters=60000)
        fast = solve_constrained_filter(p)
        ref = solve_reference_dense(p)
        worst = max(worst, float(np.max(np.abs(
            fast.x_hat.samples - ref.x_hat.samples
        ))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 60.0
    report(2, "solver oracle", ok,
           f"50 instances, worst sup gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_optimality_residual():
    rng = np.random.default_rng(33)
    checked = 0
    ok = True
    worst_ratio = 0.0
    for _ in range(12):
        p = pd_instance(rng, n_range=(64, 256))
        res = solve_constrained_filter(p)
        if not res.converged:
            continue
        checked += 1
        scale = max(float(np.max(np.abs(p.y.samples))), 1.0)
        ratio = res.residual_inf / (1e-6 * scale)
        worst_ratio = max(worst_ratio, ratio)
        ok = ok and res.residual_inf < 1e-6 * scale
    ok = ok and checked >= 8
    report(3, "optimality residual", ok,
           f"{checked} converged solves, worst residual/tol {worst_ratio:.3f}")


def test_criterion_4_circulant_embedding():
    rng = np.random.default_rng(4)
    worst_rel = 0.0
    for _ in range(20):
        sigma = float(rng.uniform(0.5, 8.0))
        tau = 10.0 ** float(rng.uniform(-5, -0.5))
        spec = KernelSpec(sigma=sigma, tau=tau)
        k = band_half_width(spec)
        n = int(rng.integers(max(k + 1, 4), 400))
        band = build_band(spec, n)
        op = embed_circulant(band)
        row = circulant_row(band, op.size)  # straight from the band, no FFT round trip
        dense_circ = scipy.linalg.circulant(row).T
        np.testing.assert_array_equal(dense_circ[:n, :n], dense_toeplitz(band))
        if op.size <= 512:
            v = rng.standard_normal(op.size)
            want_mul = dense_circ @ v
            got_mul = apply_circulant(op, v)
            worst_rel = max(worst_rel, float(
                np.linalg.norm(got_mul - want_mul) / np.linalg.norm(want_mul)
            ))
            want_res = np.linalg.solve(
                np.eye(op.size) + op.alpha * dense_circ, v
            )
            got_res = apply_resolvent(op, v)
            worst_rel = max(worst_rel, float(
                np.linalg.norm(got_res - want_res) / np.linalg.norm(want_res)
            ))
    ok = worst_rel < 1e-8
    report(4, "circulant embedding", ok,
           f"20 embeddings exact, worst FFT-vs-dense rel err {worst_rel:.2e}")


def test_criterion_5_mse_experiment(experiment):
    rows = experiment["rows"]
    wins = sum(1 for _, _, prop, base in rows if prop < min(base))
    elapsed = experiment["elapsed_s"]
    ok = wins >= 18 and elapsed < 600.0
    proposed = np.median([prop for _, _, prop, _ in rows])
    best_fir = np.median([min(base) for _, _, _, base in rows])
    # the identity estimate (smooth = y) is a reference beside the gate
    identity_mse = [mse(trial.smooth, trial.observation) for trial, _, _, _ in rows]
    identity_wins = sum(1 for (_, _, prop, _), ident in zip(rows, identity_mse) if prop < ident)
    identity = np.median(identity_mse)
    report(5, "20-trial MSE experiment", ok,
           f"proposed beats best LTI baseline in {wins}/20 trials and the identity in "
           f"{identity_wins}/20; median smooth MSE proposed {proposed:.4f}, best FIR "
           f"{best_fir:.4f}, identity {identity:.4f}; {elapsed:.0f} s")


def test_criterion_6_sandwich_invariants(experiment):
    ok = True
    worst = 0.0
    for trial, dec, _, _ in experiment["rows"]:
        y = trial.observation.samples
        slack = 10.0 * 1e-6 * float(np.max(np.abs(y)))
        lo, hi = dec.lower_env.samples, dec.upper_env.samples
        gaps = [np.max(lo - y), np.max(y - hi),
                np.max(lo - dec.smooth.samples),
                np.max(dec.smooth.samples - hi)]
        worst = max(worst, float(max(gaps)))
        ok = ok and max(gaps) <= slack
        exact = np.array_equal(dec.transient.samples, y - dec.smooth.samples)
        ok = ok and exact
    report(6, "sandwich invariants", ok,
           f"20 trials, worst constraint violation {worst:.2e}, "
           f"additivity bitwise")


def test_criterion_7_mse_symmetry(experiment):
    ok = True
    worst = 0.0
    for trial, dec, _, _ in experiment["rows"]:
        m_smooth = mse(trial.smooth, dec.smooth)
        m_trans = mse(trial.transient, dec.transient)
        gap = abs(m_smooth - m_trans)
        worst = max(worst, gap / (1.0 + m_smooth))
        ok = ok and gap < 1e-12 * (1.0 + m_smooth)
    report(7, "MSE symmetry", ok, f"worst relative asymmetry {worst:.2e}")


def test_criterion_8_scaling():
    sizes = [2 ** k for k in range(12, 17)]
    # the median over 31 repeats of each repeat's own doubling ratios: the
    # sizes of one repeat are timed within about 0.15 s of each other, while
    # per-size medians taken across the host's speed phases swung past the bound
    times = run_scaling(sizes, iters=20, repeats=31)
    ratios = np.median(times[:, 1:] / times[:, :-1], axis=0)
    ok = all(r < 2.6 for r in ratios)
    report(8, "per-iteration scaling", ok,
           "doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_9_determinism(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_cli")
    ok = True

    s1, s2 = base / "s1", base / "s2"
    for d in (s1, s2):
        assert cli_main(["synth", "--seed", "7", "--duration", "30",
                         "--output-dir", str(d), "--quiet"]) == 0
    for name in ("observation.csv", "smooth_truth.csv",
                 "transient_truth.csv", "spec.json"):
        ok = ok and (s1 / name).read_bytes() == (s2 / name).read_bytes()

    fast = ["--max-iters", "2000"]
    b1, b2 = base / "b1", base / "b2"
    for d in (b1, b2):
        assert cli_main(["bench", "--trials", "2", "--duration", "120",
                         "--seed", "3", "--output-dir", str(d), "--quiet",
                         *fast]) == 0
    for name in ("mse.csv", "traces.csv", "meta.json"):
        ok = ok and (b1 / name).read_bytes() == (b2 / name).read_bytes()

    # round trip: rebuild the bench invocation from its own metadata
    import json
    meta = json.loads((b1 / "meta.json").read_text())
    p = meta["parameters"]
    b3 = base / "b3"
    argv = ["bench", "--trials", str(meta["trials"]), "--seed", str(meta["seed"]),
            "--fs", str(meta["fs_hz"]), "--duration", str(meta["duration_s"]),
            "--baseline-lengths", *[str(v) for v in meta["baseline_lengths"]],
            "--lambda0", str(p["lambda0"]), "--lambda1", str(p["lambda1"]),
            "--sigma0", str(p["sigma0"]), "--sigma1", str(p["sigma1"]),
            "--coarse-lambda", str(p["coarse_lambda"]),
            "--coarse-sigma", str(p["coarse_sigma"]),
            "--tol", str(p["tol"]),
            "--max-iters", str(p["max_iters"]), "--tau", str(p["tau"]),
            "--output-dir", str(b3), "--quiet"]
    assert cli_main(argv) == 0
    ok = ok and (b1 / "mse.csv").read_bytes() == (b3 / "mse.csv").read_bytes()

    report(9, "determinism", ok,
           "synth and bench bitwise reproducible, metadata round-trip exact")
