"""Tests of the validate checks themselves: the work they do and the defects they catch."""

import pytest

from presliding import hysteresis, reversal, validation


def test_quadrature_work_is_pinned(monkeypatch):
    # a faster validate must not come from a shorter quadrature: the count
    # of integrals and of integrand calls of each quadrature check is fixed
    integrate = validation.integrate
    evaluations = []

    def counted(*args, **kwargs):
        result = integrate(*args, **kwargs)
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(validation, "integrate", counted)
    monkeypatch.setattr(hysteresis, "integrate", counted)
    validation.check_quadrature_equivalence()
    assert (len(evaluations), sum(evaluations)) == (40, 7860)
    evaluations.clear()
    validation.check_clockwise_dissipation()
    validation.check_stop_spring_conservative()
    assert (len(evaluations), sum(evaluations)) == (25, 7117)


def failing_checks_without_trajectories() -> set[str]:
    """Names of the failed results among the checks that read no trajectory."""
    results = [
        validation.check_max_potential_energy(),
        validation.check_quadrature_equivalence(),
        validation.check_form_consistency(),
        validation.check_stop_spring_conservative(),
        validation.check_clockwise_dissipation(),
        validation.check_exact_predictor_vs_oracle(),
        *validation.check_series_convergence(),
        *validation.check_approx_forms()[0],
        validation.check_omega_envelope(),
        validation.check_determinism(),
    ]
    return {r.name for r in results if not r.passed}


def scale_branch_map(monkeypatch):
    dahl_branch = validation.dahl_branch

    def scaled(b, p):
        force = dahl_branch(b, p)
        return lambda x: force(x) * (1 + 1e-6)

    monkeypatch.setattr(validation, "dahl_branch", scaled)


def scale(name):
    """Injection that multiplies reversal.<name>'s result by 1 + 1e-6."""
    def inject(monkeypatch):
        original = getattr(reversal, name)
        monkeypatch.setattr(reversal, name, lambda *args: original(*args) * (1 + 1e-6))
    return inject


# one row per injected defect: the injection and the exact set of checks it
# must fail, so that a loosened check breaks its row
MUTATIONS = {
    "branch_map_times_1_plus_1e-6": (
        scale_branch_map, {"quadrature-equivalence", "form-consistency"},
    ),
    "slope_exponent_0.75": (
        lambda monkeypatch: monkeypatch.setattr(validation, "SLOPE_EXPONENT", 0.75),
        {"omega-envelope"},
    ),
    "energy_times_1_plus_1e-6": (scale("_energy"), {"quadrature-equivalence"}),
    "branch_x_times_1_plus_1e-6": (scale("_branch_x"), {"exact-predictor-vs-oracle"}),
}


@pytest.mark.parametrize("inject, failing", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_each_defect_fails_exactly_its_checks(monkeypatch, inject, failing):
    inject(monkeypatch)
    assert failing_checks_without_trajectories() == failing
