"""Acceptance suite: every headline quantitative claim of the library, one
test per claim, each at its stated tolerance and time budget.

Run with ``pytest -v`` to get one pass/fail line per claim.  The sizing and
stopping-bound claims are evaluated at the solved symmetric operating point
of the pair alpha = 0.05 / 0.15, K = 6 (q = 0.0960914, i_tilde = 62.3254),
which is the point every code path runs at.  One claim is known not to hold
as stated and is asserted faithfully anyway (no xfail): the ceiling of the
impostor stopping-time bound, 28.2293 at that point, which ceils to 29
against the announced 28.  The failure message carries the analysis; the
companion tests pin the values the library actually produces.

Seeded Monte Carlo checks that draw point-pair bayes records, and the
probability that each fails although the code implements its law (a re-draw
of the records fails it by chance this often).  The exact law is the walk's
exit law (``SequentialPlan.exit_law``): P(reject) 5.2272e-5, T 61.934 ±
13.752 for the honest user, P(accept) 7.4515e-11, T 18.841 ± 9.114 for an
impostor.  Means are compared by a normal approximation of the sample mean;
band walks, which have no exact law here, by 20,000 per-round sessions
(T 45.27 ± 7.85).

==================================================  ========================
check                                               false-failure
                                                    probability
==================================================  ========================
``test_stopped_walk_means_respect_bounds``          3e-18 (honest mean above
                                                    its bound 63.227 plus 2
                                                    standard errors); the
                                                    impostor's, 18.84 against
                                                    28.23, below 1e-300
``test_band_distribution_speeds_up_honest_sessions``  below 1e-300 (the pair's
                                                    mean is 57.7 standard
                                                    errors above the bands')
``test_drift_rate_bounds``                          0.0013 on each side (one
                                                    sided 3 sigma: the drift
                                                    the exact law gives is
                                                    the bound itself)
``test_relaxed_error_targets_empirically_met``      2.6e-4 (more than 353 of
                                                    400,000 impostor sessions
                                                    accepted, each with
                                                    7.3102e-4) and 9e-221
                                                    (more than 3853 honest
                                                    failures, each with
                                                    5.5258e-3)
==================================================  ========================

``test_odds_martingale_under_all_subjects`` walks round by round through the
martingale diagnostics, whose records no exact-law draw touches.
"""

import math
import time

import numpy as np
import pytest
from conftest import make_rng
from martingale import martingale_diagnostics
from scipy import stats as scistats

from retinasim import (
    AliceSubject,
    FixedP,
    Outcome,
    PointPair,
    RunConfig,
    SequentialPlan,
    UniformBands,
    drift_bounds,
    false_positive_rate,
    gk,
    montecarlo,
    optimality_lower_bound,
    optimize_intensity,
    parse_eve_strategy,
    prob_see,
    required_nu,
    run_sequential,
    solve_q_intensity,
    solve_w_N,
    stopping_time_bounds,
    dipole_attenuation,
    magnetic_energy_resolution,
    temperature_resolution,
    thermal_energy_resolution,
)

# The one-digit rounding of the solved operating point; only the optimality
# floor is announced at it (see test_mean_length_optimality_floor).
NOMINAL_Q = 0.1
PAIR = PointPair(0.05, 0.15)
BANDS = UniformBands((0.02, 0.05), (0.15, 0.18))


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label} — {detail}")


def _operating_point() -> tuple[float, float, float]:
    """``(q, i_tilde, q_min)`` at the solved symmetric operating point of
    ``PAIR``, with ``q_min`` the seeing probability of the 0.02 map floor."""
    q, i_tilde = solve_q_intensity(0.05, 0.15, 6)
    return q, i_tilde, gk(6, 0.02 * i_tilde)


def _run_walks(plan, subject, trials, rng):
    rounds = np.empty(trials)
    accepted = 0
    for i in range(trials):
        result = run_sequential(subject, plan, rng, max_rounds=100_000)
        rounds[i] = result.rounds
        accepted += result.outcome.value == "accept"
    mean = float(rounds.mean())
    se = float(rounds.std(ddof=1) / math.sqrt(trials))
    return mean, se, accepted


def test_symmetric_operating_point_solver():
    start = time.perf_counter()
    q, i_tilde = solve_q_intensity(0.05, 0.15, 6)
    elapsed = time.perf_counter() - start
    ok = abs(q - 0.096) <= 0.001 and abs(i_tilde - 62.4) <= 0.3 and elapsed < 1.0
    _report(
        "operating-point solver",
        ok,
        f"q={q:.6f} (target 0.096±0.001), i_tilde={i_tilde:.4f} "
        f"(target 62.4±0.3), {elapsed * 1e3:.0f} ms",
    )
    assert abs(q - 0.096) <= 0.001
    assert abs(i_tilde - 62.4) <= 0.3
    assert elapsed < 1.0


def test_fixed_length_decision_fraction():
    q, _i_tilde, _q_min = _operating_point()
    start = time.perf_counter()
    w, _n = solve_w_N(q, 1e-10, 1e-4)
    elapsed = time.perf_counter() - start
    ok = 0.21 <= w <= 0.23 and elapsed < 1.0
    _report(
        "fixed-length decision fraction",
        ok,
        f"w={w:.6f} (target [0.21, 0.23]), {elapsed * 1e3:.0f} ms",
    )
    assert 0.21 <= w <= 0.23
    assert elapsed < 1.0


def test_fixed_length_round_count():
    q, _i_tilde, _q_min = _operating_point()
    _w, n_rounds = solve_w_N(q, 1e-10, 1e-4)
    ok = abs(n_rounds - 138) <= 2
    _report(
        "fixed-length round count",
        ok,
        f"N={n_rounds} at q={q:.6g} (target 138±2)",
    )
    assert abs(n_rounds - 138) <= 2


def test_honest_stopping_bound_ceiling():
    q, _i_tilde, q_min = _operating_point()
    bound_alice, _bound_eve = stopping_time_bounds(q, q_min, 1e-10, 1e-4)
    ok = math.ceil(bound_alice) <= 65
    _report(
        "honest stopping-time bound",
        ok,
        f"E[T] <= {bound_alice:.4f}, ceil {math.ceil(bound_alice)} (target <= 65)",
    )
    assert math.ceil(bound_alice) <= 65


def test_impostor_stopping_bound_ceiling():
    q, i_tilde, q_min = _operating_point()
    _bound_alice, bound_eve = stopping_time_bounds(q, q_min, 1e-10, 1e-4)
    ok = math.ceil(bound_eve) <= 28
    _report(
        "impostor stopping-time bound",
        ok,
        f"E[T] <= {bound_eve:.4f}, ceil {math.ceil(bound_eve)} (target <= 28)",
    )
    assert math.ceil(bound_eve) <= 28, (
        f"the impostor bound evaluates to {bound_eve:.4f} (ceil "
        f"{math.ceil(bound_eve)}) at the solved operating point q={q:.6g}, "
        f"i_tilde={i_tilde:.6g}, q_min=G6(0.02*i_tilde)={q_min:.6g}, "
        f"p_fn=1e-4: 2*ln(2*q_min*p_fn/(1+q))/ln(4*q*(1-q)).  That is "
        f"{bound_eve - 28:.2f} rounds above the announced ceiling of 28, and "
        f"the rounded point q=0.1 only widens the gap (29.21, ceil 30)."
    )


def test_stopped_walk_means_respect_bounds():
    q, i_tilde, q_min = _operating_point()
    start = time.perf_counter()
    plan = SequentialPlan.design(PAIR, 1e-10, 1e-4, i_tilde=i_tilde, k=6)
    bound_alice, bound_eve = stopping_time_bounds(q, q_min, 1e-10, 1e-4)

    alice = AliceSubject(k=6)
    mean_a, se_a, accepted_a = _run_walks(plan, alice, 5000, make_rng(4701))
    eve = FixedP(0.5)
    mean_e, se_e, accepted_e = _run_walks(plan, eve, 5000, make_rng(4702))
    elapsed = time.perf_counter() - start

    ok = (
        mean_a <= bound_alice + 2 * se_a
        and mean_e <= bound_eve + 2 * se_e
        and elapsed < 60.0
    )
    _report(
        "stopped-walk means vs bounds",
        ok,
        f"honest {mean_a:.2f}±{se_a:.2f} vs {bound_alice:.2f}; impostor "
        f"{mean_e:.2f}±{se_e:.2f} vs {bound_eve:.2f}; "
        f"{accepted_a}/5000 and {accepted_e}/5000 accepted; {elapsed:.1f} s",
    )
    assert mean_a <= bound_alice + 2 * se_a
    assert mean_e <= bound_eve + 2 * se_e
    assert elapsed < 60.0


def test_band_distribution_speeds_up_honest_sessions():
    pair_plan = SequentialPlan.design(PAIR, 1e-10, 1e-4, k=6)
    band_plan = SequentialPlan.design(BANDS, 1e-10, 1e-4, k=6)
    alice = AliceSubject(k=6)
    mean_pair, se_pair, _ = _run_walks(pair_plan, alice, 3000, make_rng(4703))
    mean_band, se_band, _ = _run_walks(band_plan, alice, 3000, make_rng(4704))
    gap_se = math.hypot(se_pair, se_band)
    ok = mean_band < mean_pair - 2 * gap_se
    _report(
        "band interrogation speedup",
        ok,
        f"two-point mean T {mean_pair:.2f}±{se_pair:.2f}, banded "
        f"{mean_band:.2f}±{se_band:.2f} ({(mean_pair - mean_band) / gap_se:.1f} "
        f"sigma faster)",
    )
    assert mean_band < mean_pair - 2 * gap_se


def test_mean_length_optimality_floor():
    floor = optimality_lower_bound(NOMINAL_Q, 1e-10)
    ok = floor == 57
    _report("mean-length optimality floor", ok, f"floor={floor} (target 57)")
    assert floor == 57


def test_per_spot_budget():
    start = time.perf_counter()
    nu = required_nu(1e-10, 1e-4, 50, 0.5)
    elapsed = time.perf_counter() - start
    total = nu * 50
    ok = 2300 <= total <= 2800 and elapsed < 10.0
    _report(
        "per-spot pulse budget",
        ok,
        f"nu={nu}, total={total} (target [2300, 2800]), {elapsed * 1e3:.0f} ms",
    )
    assert 2300 <= total <= 2800
    assert elapsed < 10.0


def test_pattern_rates_and_optimum():
    p40 = float(false_positive_rate(40, 6))
    p18 = float(false_positive_rate(18, 8))
    i_star, p_fn_star = optimize_intensity(25, 75, 5, 5, 0.02, 0.18, 6, 6)
    ok = (
        2.4e-10 <= p40 <= 2.5e-10
        and 9.0e-11 <= p18 <= 9.2e-11
        and abs(i_star - 72.0) <= 5.0
        and 5e-5 <= p_fn_star <= 5e-3
    )
    _report(
        "pattern rates and intensity optimum",
        ok,
        f"(1/40)^6={p40:.4e}, (1/18)^8={p18:.4e}, i*={i_star:.1f} "
        f"(target 72±5), p_fn*={p_fn_star:.3e} (decade of 5e-4)",
    )
    assert 2.4e-10 <= p40 <= 2.5e-10
    assert 9.0e-11 <= p18 <= 9.2e-11
    assert abs(i_star - 72.0) <= 5.0
    assert 5e-5 <= p_fn_star <= 5e-3


def test_odds_martingale_under_all_subjects():
    plan = SequentialPlan.design(PAIR, 1e-10, 1e-4, k=6)
    # Horizon 8 keeps the reciprocal statistic's sample standard error
    # trustworthy at this trial count: its per-round second moment under the
    # honest subject is ~2.9, so much deeper checkpoints put most of the
    # variance into events too rare to show up in 1e4 sessions.
    horizon, trials = 8, 10_000

    coin = martingale_diagnostics(
        plan, FixedP(0.5), trials, horizon, make_rng(4730)
    )
    echo = martingale_diagnostics(
        plan, parse_eve_strategy("echo", 6), trials, horizon, make_rng(4731)
    )
    alice = martingale_diagnostics(
        plan, AliceSubject(k=6), trials, horizon, make_rng(4732)
    )
    worst = {
        "coin R_n": coin.max_sigma_deviation(),
        "echo R_n": echo.max_sigma_deviation(),
        "honest 1/R_n": alice.max_sigma_deviation(),
    }
    ok = all(v <= 3.0 for v in worst.values())
    _report(
        "odds-ratio martingale",
        ok,
        "; ".join(f"{k}: {v:.2f} sigma" for k, v in worst.items())
        + f" (checkpoints {coin.checkpoints}, {trials} sessions each)",
    )
    assert coin.statistic == "R_n"
    assert alice.statistic == "1/R_n"
    for name, sigma in worst.items():
        assert sigma <= 3.0, f"{name} deviates {sigma:.2f} sigma from 1"


def test_drift_rate_bounds():
    q_star, _i_tilde, _q_min = _operating_point()
    mu_alice_min, mu_eve_max = drift_bounds(q_star)

    honest = montecarlo(
        RunConfig(strategy="bayes", trials=3000, master_seed=4708, walk_trace_limit=0)
    )[0]
    impostor = montecarlo(
        RunConfig(
            strategy="bayes", subject="eve:faircoin", trials=3000,
            master_seed=4709, walk_trace_limit=0,
        )
    )[0]
    ok = (
        honest.drift_mean >= mu_alice_min - 3 * honest.drift_stderr
        and impostor.drift_mean <= mu_eve_max + 3 * impostor.drift_stderr
    )
    _report(
        "log-odds drift bounds",
        ok,
        f"honest {honest.drift_mean:+.4f}±{honest.drift_stderr:.4f} vs floor "
        f"{mu_alice_min:+.4f}; impostor {impostor.drift_mean:+.4f}"
        f"±{impostor.drift_stderr:.4f} vs cap {mu_eve_max:+.4f}",
    )
    assert honest.drift_mean >= mu_alice_min - 3 * honest.drift_stderr
    assert impostor.drift_mean <= mu_eve_max + 3 * impostor.drift_stderr


def test_relaxed_error_targets_empirically_met():
    """The exact error rates at the relaxed targets meet them, and so do
    the 99% Clopper-Pearson upper bounds of 400,000 sessions a side.
    False-failure probability of the Monte Carlo half under a
    law-preserving re-draw of the records: 2.6e-4 on the impostor side (the
    bound stays at or below 1e-3 only with at most 353 accepts, where 292.4
    are expected) and 9e-221 on the honest side (at most 3853 failures,
    where 2210.3 are expected).  At 100,000 sessions the impostor side
    failed with probability 0.298."""
    start = time.perf_counter()
    p_fp, p_fn, trials = 1e-3, 1e-2, 400_000
    plan = SequentialPlan.design(PAIR, p_fp, p_fn, k=6)
    exact_fp = plan.exit_law(0.5).probability(Outcome.ACCEPT)
    honest_law = plan.exit_law(AliceSubject(k=6).p_wrong(PAIR, plan.i_tilde))
    exact_fn = honest_law.probability(Outcome.REJECT) + honest_law.probability(
        Outcome.TIMEOUT)
    base = dict(
        strategy="bayes", p_fp=p_fp, p_fn=p_fn, trials=trials, walk_trace_limit=0
    )
    impostor = montecarlo(
        RunConfig(subject="eve:faircoin", master_seed=4741, **base)
    )[0]
    honest = montecarlo(RunConfig(subject="alice", master_seed=4711, **base))[0]
    elapsed = time.perf_counter() - start

    false_accepts = impostor.accepted
    false_rejects = honest.rejected + honest.timed_out
    # one-sided 99% Clopper-Pearson upper bounds on the true rates
    fp_upper = float(scistats.beta.ppf(0.99, false_accepts + 1, trials - false_accepts))
    fn_upper = float(scistats.beta.ppf(0.99, false_rejects + 1, trials - false_rejects))
    ok = (exact_fp <= p_fp and exact_fn <= p_fn and fp_upper <= p_fp
          and fn_upper <= p_fn and elapsed < 300.0)
    _report(
        "relaxed error targets",
        ok,
        f"exact rates {exact_fp:.4e} vs {p_fp} and {exact_fn:.4e} vs {p_fn}; "
        f"impostor accepts {false_accepts}/{trials} (99% upper {fp_upper:.2e} "
        f"vs {p_fp}); honest failures {false_rejects}/{trials} (99% upper "
        f"{fn_upper:.2e} vs {p_fn}); {elapsed:.0f} s",
    )
    assert exact_fp == pytest.approx(7.3102e-4, rel=1e-4)
    assert exact_fn == pytest.approx(5.5258e-3, rel=1e-4)
    assert exact_fp <= p_fp
    assert exact_fn <= p_fn
    assert fp_upper <= p_fp
    assert fn_upper <= p_fn
    assert elapsed < 300.0


def test_seeing_probability_engine():
    rng = make_rng(4712)
    worst_gap = 0.0
    for _ in range(40):
        lam = float(rng.uniform(0.5, 20.0))
        k = int(rng.integers(1, 11))
        head = sum(
            math.exp(-lam + j * math.log(lam) - math.lgamma(j + 1)) for j in range(k)
        )
        worst_gap = max(worst_gap, abs(gk(k, lam) - (1.0 - head)))

    mc_ok = True
    details = []
    for _ in range(20):
        alpha = float(rng.uniform(0.02, 0.2))
        i_tilde = float(rng.uniform(30.0, 90.0))
        k = int(rng.integers(4, 9))
        p = prob_see(alpha, i_tilde, k)
        draws = rng.poisson(alpha * i_tilde, size=20_000)
        rate = float(np.mean(draws >= k))
        sigma = math.sqrt(p * (1.0 - p) / 20_000)
        if abs(rate - p) > 3.0 * sigma:
            mc_ok = False
            details.append(f"alpha={alpha:.3f} i={i_tilde:.1f} k={k}")
    ok = worst_gap <= 1e-10 and mc_ok
    _report(
        "seeing-probability engine",
        ok,
        f"max |tail - direct sum| = {worst_gap:.2e} (target <= 1e-10); "
        f"20 Monte Carlo configurations within 3 sigma"
        + (f"; violations: {details}" if details else ""),
    )
    assert worst_gap <= 1e-10
    assert mc_ok, details


def test_side_channel_decades():
    channels = {
        "bulk heating (K)": (temperature_resolution(), 5e-19),
        "thermal detectability": (thermal_energy_resolution(), 6e-9),
        "magnetic detectability": (magnetic_energy_resolution(1e-19, 1.0), 9e-9),
        "dipole falloff": (dipole_attenuation(0.01, 0.1), 1000.0),
    }
    gaps = {
        name: abs(math.log10(value) - math.log10(ref))
        for name, (value, ref) in channels.items()
    }
    ok = all(gap <= 1.0 for gap in gaps.values())
    _report(
        "side-channel decades",
        ok,
        "; ".join(
            f"{name} {value:.3e} (ref {ref:.0e}, {gaps[name]:.2f} decades off)"
            for name, (value, ref) in channels.items()
        ),
    )
    for name, gap in gaps.items():
        assert gap <= 1.0, f"{name} is {gap:.2f} decades from its reference"
