"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one `ACCEPTANCE n: ...` line (visible with pytest -s).

The coefficient-sum clause of criterion 2 at alpha = 0.5 checks the partial
sum S_J = sum_{j<=1e6} c_j + c_0/2 against its exact closed form R_J (the
series tail, asymptotically 0.2821/sqrt(J) = 2.82e-4 at J = 1e6), since the
raw bound |S_J| <= 1e-4 is unattainable for correct coefficients; see the
test's docstring for the analysis.
"""

import math
import time

import numpy as np

from alphasine.cli import gaussian_noise
from alphasine.direct_inv import DirectConfig, invert_direct, mu
from alphasine.errors import EvenIntegerAlpha
from alphasine.examples import shifted_sine_density, vonmises4_density, watson_density
from alphasine.forward import t_sine
from alphasine.fourier_inv import MollifierKind, invert_fourier, solve_xi
from alphasine.grid import SampledFunction, UniformGrid
from alphasine.quad import QuadSpec
from alphasine.sas import SasParams, f0_from_scale, g_from_codifference
from alphasine.specfun import cosine_coeffs, lambda_alpha, sine_coeffs
from alphasine.sphere import invert_sphere, k_sphere_grid

from conftest import (
    EXAMPLES,
    F1_MASS,
    circle_fourier_coeffs,
    codifference_forward,
    dense_system_matrix,
    f1,
    k_sphere_grid_quad,
    rel_l2,
    sample,
    sine_partial_sum,
    t2_f1,
    t2_f2,
    t2_f3,
)

OUT_GRID = UniformGrid(0.0, 0.01, 301)  # [0, 3]


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.1f} s / budget {budget:.0f} s)")


def _forward_curve(fn, alpha, ys, tail_cut=30.0) -> np.ndarray:
    return t_sine(fn, alpha, ys, QuadSpec(tail_cut=tail_cut))


def test_criterion_1_closed_form_forward():
    budget, start = 10.0, time.perf_counter()
    ys = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    worst = 0.0
    cases = [
        (EXAMPLES["f1"][0], t2_f1, 30.0),
        (EXAMPLES["f2"][0], t2_f2, 30.0),
        (EXAMPLES["f3"][0], t2_f3, 150.0),
    ]
    for fn, closed, cut in cases:
        err = np.abs(t_sine(fn, 2.0, ys, QuadSpec(tail_cut=cut)) - closed(ys))
        worst = max(worst, float(np.max(err)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= budget
    _report(1, ok, f"max abs err {worst:.2e} vs closed forms", elapsed, budget)
    assert worst <= 1e-6
    assert elapsed <= budget


def test_criterion_2_coefficient_identities():
    budget, start = 5.0, time.perf_counter()
    # partial-sum identity at J = 1e6 (alpha = 0.5 is covered by the
    # tail-corrected test below; its tail is too fat for this J)
    defects = {}
    for alpha in (1.0, 1.5):
        c = sine_coeffs(alpha, 10**6).coeffs
        defects[alpha] = abs(float(np.sum(c[1:]) + 0.5 * c[0]))
    # absolute sums converge to c_0/2 within 1e-4 on (0, 2]
    abs_defects = {}
    for alpha in (0.5, 1.0, 1.5, 2.0):
        c = sine_coeffs(alpha, 10**7).coeffs
        abs_defects[alpha] = abs(float(np.sum(np.abs(c[1:])) - 0.5 * c[0]))
    # divergence below zero
    c = sine_coeffs(-0.5, 10**5).coeffs
    ratio = float(np.sum(c[1:]) / np.sum(c[1 : 10**3 + 1]))
    elapsed = time.perf_counter() - start
    ok = (
        all(d <= 1e-4 for d in defects.values())
        and all(d <= 1e-4 for d in abs_defects.values())
        and ratio >= 2.0
        and elapsed <= budget
    )
    _report(
        2,
        ok,
        f"sum defects {max(defects.values()):.1e}, abs-sum defects "
        f"{max(abs_defects.values()):.1e}, divergence ratio {ratio:.1f}",
        elapsed,
        budget,
    )
    assert all(d <= 1e-4 for d in defects.values())
    assert all(d <= 1e-4 for d in abs_defects.values())
    assert ratio >= 2.0
    assert elapsed <= budget


def test_criterion_2_alpha_half_partial_sum():
    """Partial-sum identity at alpha = 0.5, with the exact series tail.

    The coefficients satisfy |c_j| = A j^{-3/2} (1 + O(1/j)) with
    A = c_0 (a/(a+2)) Gamma(a/2+2)/Gamma(1-a/2) = 0.14106 at a = 0.5, so the
    raw defect S_J = sum_{j<=J} c_j + c_0/2 at J = 1e6 is 2A/sqrt(J) =
    2.82e-4 > 1e-4 for any correct table.  The sum telescopes to the closed
    form R_J (see `conftest.sine_partial_sum`), built from lgamma alone, so
    the test asserts |S_J - R_J| <= 1e-4 and, to catch coefficient drift
    that the absolute bound would miss, |S_J/R_J - 1| <= 1e-6.
    """
    budget, start = 5.0, time.perf_counter()
    count = 10**6
    c = sine_coeffs(0.5, count).coeffs
    partial = float(np.sum(c[1:]) + 0.5 * c[0])
    tail = sine_partial_sum(0.5, count)
    residual = abs(partial - tail)
    rel = abs(partial / tail - 1.0)
    elapsed = time.perf_counter() - start
    ok = residual <= 1e-4 and rel <= 1e-6 and elapsed <= budget
    _report(
        2,
        ok,
        f"alpha=0.5 partial sum {partial:.6e} vs exact tail {tail:.6e}: "
        f"residual {residual:.1e}, rel {rel:.1e}",
        elapsed,
        budget,
    )
    assert residual <= 1e-4
    assert rel <= 1e-6
    assert elapsed <= budget


def test_criterion_3_alpha_two_exactness():
    budget, start = 5.0, time.perf_counter()
    coeffs_ok = sine_coeffs(2.0, 3).coeffs.tolist() == [0.5, -0.25, 0.0, 0.0]
    rng = np.random.default_rng(23)
    eta = rng.standard_normal(64)
    xi = solve_xi(sine_coeffs(2.0, 64), eta)
    solve_ok = np.array_equal(xi, -4.0 * eta)
    g = sample(t2_f1, 0.0, 20.0, 1601)
    rec = invert_fourier(g, 2.0, 100, 10.0, OUT_GRID)
    err = rel_l2(rec.values, f1(OUT_GRID.points()))
    elapsed = time.perf_counter() - start
    ok = coeffs_ok and solve_ok and err <= 1e-4 and elapsed <= budget
    _report(3, ok, f"coeffs exact, solve exact, end-to-end rel L2 {err:.2e}", elapsed, budget)
    assert coeffs_ok and solve_ok
    assert err <= 1e-4
    assert elapsed <= budget


def test_criterion_4_triangular_solve_oracle():
    budget, start = 2.0, time.perf_counter()
    worst = 0.0
    for alpha in (-0.5, 0.5, 1.5, 3.0):
        for n in (8, 64, 256):
            rng = np.random.default_rng(abs(hash((alpha, n))) % 2**32)
            xi_true = rng.standard_normal(n)
            coeffs = sine_coeffs(alpha, n)
            eta = dense_system_matrix(coeffs, n) @ xi_true
            err = np.max(np.abs(solve_xi(coeffs, eta) - xi_true)) / np.max(np.abs(xi_true))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= budget
    _report(4, ok, f"worst round-trip error {worst:.2e}", elapsed, budget)
    assert worst <= 1e-9
    assert elapsed <= budget


Y_SAMPLES = np.arange(1, 401) * 0.05  # [0.05, 20]
G_GRID = UniformGrid(0.05, 0.05, 400)


def test_criterion_5_fourier_inversion_reference_parameters():
    budget, start = 60.0, time.perf_counter()
    truth_x = OUT_GRID.points()
    errs = {}
    for name in ("f1", "f2", "f3"):
        fn = EXAMPLES[name][0]
        g = SampledFunction(G_GRID, _forward_curve(fn, 1.5, Y_SAMPLES))
        rec = invert_fourier(g, 1.5, 100, 10.0, OUT_GRID)
        errs[name] = rel_l2(rec.values, fn(truth_x))
    elapsed = time.perf_counter() - start
    ok = all(e <= 0.05 for e in errs.values()) and elapsed <= budget
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    _report(5, ok, f"alpha=1.5 N=100 R=10 rel L2: {detail}", elapsed, budget)
    assert all(e <= 0.05 for e in errs.values())
    assert elapsed <= budget


def test_criterion_6_negative_alpha_inversion():
    budget, start = 120.0, time.perf_counter()
    truth_x = OUT_GRID.points()
    errs = {}
    for name in ("f1", "f2", "f3"):
        fn = EXAMPLES[name][0]
        g = SampledFunction(G_GRID, _forward_curve(fn, -0.5, Y_SAMPLES))
        rec = invert_fourier(g, -0.5, 100, 10.0, OUT_GRID)
        errs[name] = rel_l2(rec.values, fn(truth_x))
    fn = EXAMPLES["f2"][0]
    g = SampledFunction(G_GRID, _forward_curve(fn, -0.9, Y_SAMPLES))
    rec = invert_fourier(g, -0.9, 100, 10.0, OUT_GRID)
    err_09 = rel_l2(rec.values, fn(truth_x))
    elapsed = time.perf_counter() - start
    ok = all(e <= 0.1 for e in errs.values()) and err_09 <= 0.3 and elapsed <= budget
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
    _report(6, ok, f"alpha=-0.5: {detail}; alpha=-0.9 f2={err_09:.2e}", elapsed, budget)
    assert all(e <= 0.1 for e in errs.values())
    assert err_09 <= 0.3
    assert elapsed <= budget


def test_criterion_7_noisy_smoothing():
    budget, start = 120.0, time.perf_counter()
    seeds = (101, 102, 103, 104, 105)
    noisy_grid = UniformGrid(0.0, 20.0 / 399.0, 400)
    ys = noisy_grid.points()
    truth_x = OUT_GRID.points()
    f0_true = {"f1": math.sqrt(math.pi), "f2": 4.0, "f3": math.pi / 2.0}
    kernel = MollifierKind("triangle", 0.5)
    improvements = []
    for name in ("f1", "f2", "f3"):
        fn = EXAMPLES[name][0]
        clean = np.concatenate(([0.0], _forward_curve(fn, 1.5, ys[1:])))
        truth = fn(truth_x)
        for seed in seeds:
            noisy = clean + 0.1 * gaussian_noise(seed, 400)
            g = SampledFunction(noisy_grid, noisy)
            plain = invert_fourier(g, 1.5, 400, 20.0, OUT_GRID, f0_override=f0_true[name])
            smooth = invert_fourier(
                g, 1.5, 400, 20.0, OUT_GRID, f0_override=f0_true[name], mollifier=kernel
            )
            e_plain = rel_l2(plain.values, truth)
            e_smooth = rel_l2(smooth.values, truth)
            improvements.append((name, seed, e_plain, e_smooth))
    elapsed = time.perf_counter() - start
    strictly_better = all(s < p for (_, _, p, s) in improvements)
    ok = strictly_better and elapsed <= budget
    worst = max(improvements, key=lambda t: t[3] / t[2])
    _report(
        7,
        ok,
        f"smoothed < unsmoothed on 15/15 runs; tightest {worst[0]} seed {worst[1]}: "
        f"{worst[3]:.3f} vs {worst[2]:.3f}",
        elapsed,
        budget,
    )
    assert strictly_better
    assert elapsed <= budget


def test_criterion_8_direct_inversion():
    budget, start = 1800.0, time.perf_counter()
    cfg = DirectConfig(alpha=2.0, epsilon=0.025)
    mu_err = abs(mu(1.0, cfg) - math.pi / 2.0)
    g = sample(t2_f1, 0.0, 20.0, 20001)  # step 1e-3
    out = UniformGrid(0.2, 0.01, 281)
    truth = f1(out.points())
    errs = {}
    for eps in (0.025, 0.05, 0.1):
        rec = invert_direct(g, DirectConfig(alpha=2.0, epsilon=eps), out)
        errs[eps] = rel_l2(rec.values, truth)
    elapsed = time.perf_counter() - start
    monotone = errs[0.1] >= errs[0.05] >= errs[0.025]
    ok = (
        mu_err <= 1e-6
        and errs[0.025] <= 0.1
        and errs[0.1] > errs[0.025]
        and monotone
        and elapsed <= budget
    )
    _report(
        8,
        ok,
        f"mu(1) err {mu_err:.1e}; rel L2 eps=0.025: {errs[0.025]:.2e}, "
        f"eps=0.05: {errs[0.05]:.2e}, eps=0.1: {errs[0.1]:.2e}",
        elapsed,
        budget,
    )
    assert mu_err <= 1e-6
    assert errs[0.025] <= 0.1
    assert errs[0.1] > errs[0.025]
    assert monotone
    assert elapsed <= budget


def test_criterion_9_spherical_inversion():
    budget, start = 30.0, time.perf_counter()
    densities = {
        "shifted_sine": shifted_sine_density(1.0),
        "vonmises4": vonmises4_density(-0.5),
        "watson": watson_density(-2.5, 1.0),
    }
    worst_linf = 0.0
    for alpha in (-0.5, 0.5, 1.5, 5.0):
        for f in densities.values():
            rec = invert_sphere(k_sphere_grid(f, alpha), alpha, 10)
            err = float(np.max(np.abs(rec.values.values - f.values.values)))
            worst_linf = max(worst_linf, err)
    raised = 0
    for alpha in (0.0, 2.0, 4.0):
        try:
            invert_sphere(k_sphere_grid(densities["watson"], 1.5), alpha, 10)
        except EvenIntegerAlpha:
            raised += 1
    worst_conv = 0.0
    for alpha in (-0.5, 0.5, 1.5, 5.0):
        f = densities["watson"]
        # K f from the quadrature reference: k_sphere_grid uses the closed
        # form the gap is measured against
        kf = k_sphere_grid_quad(f, alpha)
        hk = circle_fourier_coeffs(kf, 22)
        fh = circle_fourier_coeffs(f.values, 22)
        ct = cosine_coeffs(alpha, 11).coeffs
        for n in range(-10, 11):
            gap = abs(hk[2 * n + 22] - 2.0 * math.pi * ct[abs(n)] * fh[2 * n + 22])
            worst_conv = max(worst_conv, float(gap))
    elapsed = time.perf_counter() - start
    ok = worst_linf <= 0.02 and raised == 3 and worst_conv <= 1e-6 and elapsed <= budget
    _report(
        9,
        ok,
        f"worst Linf {worst_linf:.3f}, EvenIntegerAlpha 3/3, convolution gap {worst_conv:.1e}",
        elapsed,
        budget,
    )
    assert worst_linf <= 0.02
    assert raised == 3
    assert worst_conv <= 1e-6
    assert elapsed <= budget


def test_criterion_10_sas_bridge():
    budget, start = 60.0, time.perf_counter()
    f0_check = abs(f0_from_scale(SasParams(1.0, 1.0)) - math.pi / 2.0)
    alpha = 1.5
    spec = QuadSpec()
    sigma_a = lambda_alpha(alpha) * 2.0 * F1_MASS
    p = SasParams(sigma_a ** (1.0 / alpha), alpha)

    def tau(t):
        return codifference_forward(f1, p, t, spec)

    g_vals = np.array([g_from_codifference(tau, p, float(t)) for t in Y_SAMPLES])
    direct = _forward_curve(f1, 1.5, Y_SAMPLES[:10])
    bridge_gap = float(np.max(np.abs(g_vals[:10] - direct)))
    g = SampledFunction(G_GRID, g_vals)
    rec = invert_fourier(g, alpha, 100, 10.0, OUT_GRID, f0_override=f0_from_scale(p))
    err = rel_l2(rec.values, f1(OUT_GRID.points()))
    elapsed = time.perf_counter() - start
    ok = f0_check <= 1e-10 and bridge_gap <= 1e-10 and err <= 0.05 and elapsed <= budget
    _report(
        10,
        ok,
        f"f0 err {f0_check:.1e}, bridge gap {bridge_gap:.1e}, inversion rel L2 {err:.2e}",
        elapsed,
        budget,
    )
    assert f0_check <= 1e-10
    assert bridge_gap <= 1e-10
    assert err <= 0.05
    assert elapsed <= budget
