"""Acceptance gate: one test per acceptance criterion.

Each test prints the measured quantities before asserting, so a failure
report carries the full evidence.  Budgets are wall-clock seconds for
the whole criterion.
"""
import math
import time

import numpy as np

from conftest import exact_starting_values, pde_residual
from fracadi.basis import build_basis, from_eigen
from fracadi.cli import convergence_rates
from fracadi.oracle import (
    dense_kronecker_solve,
    history_quadratic_form,
    quadrature_matrix_check,
    sweep_kronecker_gap,
    weight_identity_residual,
)
from fracadi.problems import (
    PROBLEM_IDS,
    Rectangle,
    SeparableTerm,
    SpatialProfile,
    get_problem,
)
from fracadi.solver import AdiSolver, TransformedProblem, reduce_order, run
from fracadi.weights import apply_gl, default_sigmas

TEMPORAL_LEVELS = (10, 20, 40, 80, 160, 320)


def test_criterion_1_smooth_temporal_rate_window():
    t0 = time.perf_counter()
    spec = get_problem("compatible_smooth")
    finals, maxes = [], []
    for steps in TEMPORAL_LEVELS:
        res = run(spec, 64, steps, 1.0)
        finals.append(res.error_final)
        maxes.append(res.error_max)
    taus = [1.0 / steps for steps in TEMPORAL_LEVELS]
    final_rates = convergence_rates(finals, taus)[1:]
    max_rates = convergence_rates(maxes, taus)[1:]
    elapsed = time.perf_counter() - t0

    print(f"criterion 1: N = 64, M = {TEMPORAL_LEVELS}, {elapsed:.1f}s")
    print("  final errors:", " ".join(f"{e:.4e}" for e in finals))
    print("  max errors:  ", " ".join(f"{e:.4e}" for e in maxes))
    print("  final rates: ", " ".join(f"{r:.4f}" for r in final_rates))
    print("  max rates:   ", " ".join(f"{r:.4f}" for r in max_rates))

    assert elapsed <= 120.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    assert finals[0] <= 1e-2 and maxes[0] <= 1e-2
    assert finals[-1] <= 1e-5 and maxes[-1] <= 1e-5
    out_of_window = [
        r for r in final_rates + max_rates if not 1.85 <= r <= 2.15
    ]
    assert not out_of_window, (
        "temporal rates outside [1.85, 2.15]: "
        f"final {[f'{r:.4f}' for r in final_rates]}, "
        f"max {[f'{r:.4f}' for r in max_rates]}"
    )


def test_criterion_2_spectral_spatial_decay():
    t0 = time.perf_counter()
    spec = get_problem("compatible_smooth")
    degrees = (4, 8, 12, 16, 20)
    errors = [run(spec, degree, 2000, 1.0).error_final for degree in degrees]
    elapsed = time.perf_counter() - t0

    print(f"criterion 2: M = 2000, N = {degrees}, {elapsed:.1f}s")
    print("  errors:", " ".join(f"{e:.6e}" for e in errors))

    assert elapsed <= 180.0, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    e_min = min(errors)
    floor_index = next(i for i, e in enumerate(errors) if e <= 10.0 * e_min)
    assert floor_index >= 1, "no decaying levels before the temporal floor"
    # at least tenfold per +4 in degree until the floor
    for i in range(floor_index):
        assert errors[i] / errors[i + 1] >= 10.0, (
            f"drop N={degrees[i]} -> {degrees[i + 1]} only "
            f"{errors[i] / errors[i + 1]:.2f}x"
        )
    # log-error concave down to the floor: later drops at least as large
    log_drops = [
        math.log(errors[i] / errors[i + 1]) for i in range(floor_index)
    ]
    for earlier, later in zip(log_drops, log_drops[1:]):
        assert later >= earlier - 1e-9, f"log drops not concave: {log_drops}"
    # past the floor nothing degrades
    for i in range(floor_index, len(errors)):
        assert errors[i] <= 3.0 * e_min


def test_criterion_3_nonsmooth_corrections():
    t0 = time.perf_counter()
    spec = get_problem("compatible_nonsmooth")
    tp = reduce_order(spec)
    bx = build_basis(32, tp.domain.x_interval)
    by = build_basis(32, tp.domain.y_interval)

    errs = {m: {} for m in range(4)}
    for steps in TEMPORAL_LEVELS:
        tau = 1.0 / steps
        errs[0][steps] = run(tp, 32, steps, 1.0).error_max
        for m in (1, 2, 3):
            seed = exact_starting_values(tp, bx, by, tau, m)
            res = run(
                tp, 32, steps, 1.0,
                correction_terms=m, exponents=default_sigmas(m),
                starting_values=seed,
            )
            errs[m][steps] = res.error_max
    taus = [1.0 / steps for steps in TEMPORAL_LEVELS]
    base_rates = convergence_rates([errs[0][s] for s in TEMPORAL_LEVELS], taus)[1:]
    elapsed = time.perf_counter() - t0

    print(f"criterion 3: N = 32, M = {TEMPORAL_LEVELS}, {elapsed:.1f}s")
    for m in range(4):
        print(f"  m={m} max errors:", " ".join(f"{errs[m][s]:.4e}" for s in TEMPORAL_LEVELS))
    print("  m=0 rates:", " ".join(f"{r:.4f}" for r in base_rates))
    gain = errs[0][80] / errs[3][80]
    print(f"  m=3 gain at M=80: {gain:.1f}x")

    assert elapsed <= 300.0, f"criterion 3 exceeded budget: {elapsed:.1f}s"
    for r in base_rates:
        assert 1.0 <= r <= 1.6, f"uncorrected rates {base_rates} leave [1.0, 1.6]"
    assert gain >= 100.0, f"three corrections gain only {gain:.1f}x at M = 80"
    for steps in TEMPORAL_LEVELS:
        assert errs[0][steps] >= 2.0 * errs[1][steps], (
            f"first correction too weak at M={steps}: "
            f"{errs[0][steps]:.3e} vs {errs[1][steps]:.3e}"
        )
        assert errs[1][steps] > errs[2][steps] > errs[3][steps], (
            f"correction ladder breaks at M={steps}"
        )


def test_criterion_4_adi_matches_dense():
    t0 = time.perf_counter()
    worst = sweep_kronecker_gap(np.random.default_rng(20240817), 50)

    # a few live marches: factored step against the dense Kronecker solve.
    # Steps taken with step_once stay in eigen-coordinates; the right side
    # E_x^T r E_y is mapped back to r with S_x E_x . E_y^T S_y
    for name in ("compatible_smooth", "compatible_nonsmooth"):
        tp = reduce_order(get_problem(name))
        bx = build_basis(8, tp.domain.x_interval)
        by = build_basis(8, tp.domain.y_interval)
        solver = AdiSolver(tp, bx, by, 0.125, 8)
        for _ in range(solver.steps):
            solver.step_once()
        sx = np.diag(bx.stiffness)[:, None]
        sy = np.diag(by.stiffness)[None, :]
        for k in (0, 3, 7):
            rhs = (sx * bx.eigenvectors) @ solver.assemble_rhs(k, 1)[0] @ (by.eigenvectors.T * sy)
            dense = dense_kronecker_solve(solver.coeffs, bx, by, rhs)
            step = from_eigen(solver.u[k + 1], bx, by)
            gap = float(np.abs(dense - step).max() / np.abs(step).max())
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0

    print(f"criterion 4: worst sweep-vs-dense relative gap {worst:.3e}, {elapsed:.1f}s")
    assert elapsed <= 60.0, f"criterion 4 exceeded budget: {elapsed:.1f}s"
    assert worst <= 1e-10


def test_criterion_5_weight_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for order in (-0.9, -0.1, 0.1, 0.9):
        for m in (1, 2, 3, 4):
            defects = weight_identity_residual(order, default_sigmas(m), 201)
            worst = max(worst, float(defects[1:].max()))

    errs = []
    for steps in (64, 128):
        tau = 1.0 / steps
        t = tau * np.arange(steps + 1)
        got = apply_gl(0.5, tau, t**2)
        errs.append(abs(got - 2.0 / math.gamma(2.5)))
    order_t2 = math.log2(errs[0] / errs[1])
    elapsed = time.perf_counter() - t0

    print(
        f"criterion 5: worst identity residual {worst:.3e}, "
        f"t^2 half-derivative order {order_t2:.2f}, {elapsed:.1f}s"
    )
    assert elapsed <= 30.0, f"criterion 5 exceeded budget: {elapsed:.1f}s"
    assert worst <= 1e-12
    assert order_t2 >= 1.9


def test_criterion_6_stability_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    domain = Rectangle(-1.0, 1.0, -1.0, 1.0)
    worst_ratio = 0.0
    for i in range(20):
        beta = float(rng.uniform(0.05, 0.95))
        extra = int(rng.integers(1, 4))
        betas = tuple(float(b) for b in rng.uniform(-1.0, 1.0, extra))
        coeffs = tuple(float(c) for c in rng.uniform(0.0, 2.0, extra))
        mu = float(rng.uniform(0.5, 3.0))
        amp = rng.uniform(-2.0, 2.0, 4)

        lobe = SpatialProfile(values=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        hump = SpatialProfile(
            values=lambda x, y: np.cos(0.5 * np.pi * x) * np.cos(0.5 * np.pi * y)
        )
        g = (
            SeparableTerm(amp[0], 0.0, lobe),
            SeparableTerm(amp[1], 1.0, lobe),
            SeparableTerm(amp[2], 2.0, lobe),
            SeparableTerm(amp[3], 1.0, hump),
        )

        tp = TransformedProblem(
            name=f"random_{i}", beta=beta, betas=betas, coeffs=coeffs,
            mu=mu, domain=domain, g=g,
        )
        for steps in (10, 40):
            res = run(tp, 12, steps, 1.0)
            worst_ratio = max(worst_ratio, res.stability_ratio)

    worst_qf = math.inf
    for order in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 1.0):
        for _ in range(100):
            v = rng.standard_normal(int(rng.integers(2, 80)))
            ratio = history_quadratic_form(order, v) / float(v @ v)
            worst_qf = min(worst_qf, ratio)
    elapsed = time.perf_counter() - t0

    print(
        f"criterion 6: worst energy ratio {worst_ratio:.3e}, "
        f"worst quadratic form {worst_qf:.3e}, {elapsed:.1f}s"
    )
    assert elapsed <= 60.0, f"criterion 6 exceeded budget: {elapsed:.1f}s"
    assert 0.0 < worst_ratio <= 1.0
    assert worst_qf >= -1e-12


def test_criterion_7_matrices_and_residuals():
    t0 = time.perf_counter()
    worst_matrix = 0.0
    for degree in range(4, 25):
        worst_matrix = max(worst_matrix, quadrature_matrix_check(build_basis(degree, (-1.0, 1.0))))

    rng = np.random.default_rng(20240817)
    worst_residual = 0.0
    for name in PROBLEM_IDS:
        spec = get_problem(name)
        for _ in range(50):
            x = float(rng.uniform(spec.domain.ax, spec.domain.bx))
            y = float(rng.uniform(spec.domain.ay, spec.domain.by))
            t = float(rng.uniform(0.05, 1.0))
            worst_residual = max(worst_residual, abs(pde_residual(spec, x, y, t)))
    elapsed = time.perf_counter() - t0

    print(
        f"criterion 7: worst matrix deviation {worst_matrix:.3e}, "
        f"worst residual {worst_residual:.3e}, {elapsed:.1f}s"
    )
    assert elapsed <= 30.0, f"criterion 7 exceeded budget: {elapsed:.1f}s"
    assert worst_matrix <= 1e-11
    assert worst_residual <= 1e-9
