"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line (run `pytest -s tests/test_acceptance.py`
to see them all). The standard runs behind the simulation criteria are the
session fixtures from conftest: f_c = 1, m = 1, x0 = 0, v0 = 0.5, twelve
completed reversals. Criteria 01-12 run the shared checks of
presliding.validation, which `presliding validate` reports too, and pin
the tolerance each criterion states.
"""

import math

from presliding import FrictionParams, potential_energy, validation
from presliding.cli import config_from_dict, default_config, run_experiment


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def report_checks(num: int, results, tolerances, ok: bool = True) -> None:
    """Report shared validation checks, each judged at the stated tolerance.

    A tolerance of None marks a check whose threshold is measured, not
    stated (for example "better than the other form").
    """
    ok = ok and all(
        r.passed and (tol is None or r.tolerance == tol)
        for r, tol in zip(results, tolerances, strict=True)
    )
    detail = "; ".join(f"{r.name} {r.measured:.4g} vs {r.tolerance:.4g}" for r in results)
    report(num, ok, detail)


def test_c01_max_potential_energy():
    """E_p at a saturated reversal equals 0.3069*f_c^2/sigma to 5e-4 relative."""
    result = validation.check_max_potential_energy()
    # one more grid point than the shared check, at a large stiffness ratio
    p = FrictionParams(f_c=1.5, sigma=1500.0)
    stated = 0.3069 * p.f_c**2 / p.sigma
    extra = abs(potential_energy(-p.f_c, p) - stated) / stated
    report_checks(1, [result], [5e-4], ok=extra < 5e-4)


def test_c02_quadrature_equivalence(monkeypatch):
    """Closed-form E_p vs adaptive quadrature of the branch, 40-point grid, 1e-8."""
    integrate = validation.integrate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(validation, "integrate", counted)
    result = validation.check_quadrature_equivalence()
    report_checks(2, [result], [1e-8], ok=len(calls) == 40)


def test_c03_form_consistency():
    """Finite-difference slope of the branch matches the differential form, 1e-6."""
    report_checks(3, [validation.check_form_consistency()], [1e-6])


def test_c04_stop_spring_zero_dissipation():
    """Closed unsaturated linear-spring cycle dissipates nothing."""
    result = validation.check_stop_spring_conservative()
    report_checks(4, [result], [1e-10 * 2.0 * 0.35**2])


def test_c05_clockwise_dissipation():
    """24 admissible (closed) Dahl cycles on a fixed corner grid all have positive area."""
    report_checks(5, [validation.check_clockwise_dissipation()], [0.0])


def test_c05_grid_holds_the_corners_and_a_negative_area_fails(monkeypatch):
    loop_dissipation = validation.loop_dissipation
    cycles = []

    def recorded(b_up, b_down, x_lo, x_hi, force, p):
        cycles.append((-b_up.f_rev / p.f_c, p.sigma / p.f_c))
        return loop_dissipation(b_up, b_down, x_lo, x_hi, force, p)

    monkeypatch.setattr(validation, "loop_dissipation", recorded)
    assert validation.check_clockwise_dissipation().passed
    assert len(cycles) >= 20
    cs, ratios = {round(c, 12) for c, _ in cycles}, {round(r, 12) for _, r in cycles}
    assert {0.1, 0.95} <= cs and {1.0, 100.0} <= ratios
    # a check that cannot fail shows nothing: counterclockwise loops must fail it
    monkeypatch.setattr(validation, "loop_dissipation", lambda *args: -loop_dissipation(*args))
    assert validation.check_clockwise_dissipation().passed is False


def test_c06_simulation_energy_balance(traj10, traj100):
    """Energy drift < 1e-6 relative over 10+ reversals; |v| < 1e-9 at reversals."""
    results = validation.check_energy_balance(traj10, "r10")
    results += validation.check_energy_balance(traj100, "r100")
    ok = all(len(t.reversals) >= 10 for t in (traj10, traj100))
    report_checks(6, results, [1e-6, 1e-9] * 2, ok=ok)


def test_c07_equal_areas(traj10, traj100):
    """Work integrals split at the force zero crossing cancel to 1e-5 of E_p."""
    results = [validation.check_equal_areas(t) for t in (traj10, traj100)]
    report_checks(7, results, [1e-5] * 2)


def test_c08_recursion_matches_simulation(traj10):
    """Exact-mode chain forces match simulated reversal forces, 1e-3, 10 reversals."""
    report_checks(8, [validation.check_chain_vs_simulation(traj10)], [1e-3])


def test_c09_series_convergence():
    """Dissipation partial sums: monotone, bounded by E_p(0), 99% by N=18."""
    results = validation.check_series_convergence()
    report_checks(9, results, [1.0, 0.99], ok=validation.SERIES_99PCT_STEPS == 18)


def test_c10_monotone_decay_and_positivity(traj10, traj100, traj1000):
    """E_p(i+1) < E_p(i), |F_(i+1)| < |F_i|, E_p(i) > 0 in chains and simulations."""
    result = validation.check_monotone_decay([traj10, traj100, traj1000])
    report_checks(10, [result], [0.0])


def test_c11_reversal_frequency_trend(traj10, traj100, traj1000):
    """Mean inter-reversal time strictly decreases across sigma/f_c 10 -> 1000."""
    result = validation.check_reversal_frequency_trend([traj10, traj100, traj1000])
    report_checks(11, [result], [None])


def test_c12_approximation_audit():
    """Both predictor forms audited against the exact root; rederived bounded."""
    results, rows = validation.check_approx_forms()
    ok = len(rows) == 30 and math.isfinite(results[1].measured)
    report_checks(12, results, [validation.APPROX_REDERIVED_BOUND, None, None], ok=ok)


def test_c13_determinism(tmp_path):
    """Two runs of a figure config produce byte-identical CSVs."""
    ok = True
    for kind in ("fig3", "fig7"):
        contents = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}_{run}"
            data = default_config(kind)
            data["output_dir"] = str(out)
            code, paths = run_experiment(config_from_dict(data))
            ok = ok and code == 0
            contents.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        ok = ok and contents[0] == contents[1]
    report(13, ok, "fig3 and fig7 outputs byte-identical across two runs")
