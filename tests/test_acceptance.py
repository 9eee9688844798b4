"""Acceptance gate: runs every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the suite mirrors what
`regimehedge selftest` executes.  Criteria that share scenario bundles
reuse the module-level cache, so the whole gate runs at desk scale.
"""

import numpy as np
import pytest

from regimehedge import acceptance


def _run(fn, profile="full"):
    result = fn(profile)
    status = "PASS" if result.passed else "FAIL"
    detail_keys = ("max_sum_error", "max_identity_error", "max_mean_rel_error",
                   "max_envelope_gap", "sup_gap_scaled", "max_phi_gap_scaled",
                   "abs_diff", "rel_se", "max_rel_error", "ratio", "fine_max")
    shown = {k: v for k, v in result.details.items() if k in detail_keys}
    print(f"[{status}] C{result.cid:02d} {result.name} {shown}")
    return result


def test_criterion_01_competing_jump_identities():
    r = _run(acceptance.criterion_1)
    assert r.passed, r.details


def test_criterion_02_kernel_moments():
    r = _run(acceptance.criterion_2)
    assert r.passed, r.details


def test_criterion_03_terminal_and_envelope():
    r = _run(acceptance.criterion_3)
    assert r.passed, r.details


def test_criterion_04_degenerate_regime():
    r = _run(acceptance.criterion_4)
    assert r.passed, r.details


def test_criterion_05_linear_claim_exactness():
    r = _run(acceptance.criterion_5)
    assert r.passed, r.details


def test_criterion_06_cross_method_agreement():
    r = _run(acceptance.criterion_6)
    assert r.passed, r.details


def test_criterion_07_hedge_vs_finite_difference():
    r = _run(acceptance.criterion_7)
    assert r.passed, r.details


def test_criterion_08_contraction_certificates():
    r = _run(acceptance.criterion_8)
    assert r.passed, r.details


def test_criterion_09_pde_residual_refinement():
    r = _run(acceptance.criterion_9)
    assert r.passed, r.details


def test_criterion_10_hazard_perturbation_bound():
    r = _run(acceptance.criterion_10)
    assert r.passed, r.details


def test_criterion_11_selftest_determinism():
    r = _run(acceptance.criterion_11)
    assert r.passed, r.details
