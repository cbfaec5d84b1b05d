"""End-to-end verification suite.

Each test runs one of the numbered verification checks from
tidaldisk.verify and asserts that it passed, surfacing the recorded
details on failure.  The same checks back the `tidaldisk verify`
subcommand.
"""

import pytest

from tidaldisk import verify


def _run(fn, **kw):
    res = fn(**kw)
    assert res["passed"], f"{res['name']} failed: {res['details']}"
    return res


def test_criterion_1_closed_forms():
    _run(verify.criterion_1_closed_forms)


def test_criterion_2_rigid_mode_derivatives():
    _run(verify.criterion_2_rigid_mode_derivatives)


def test_criterion_3_mode_derivative_asymptotics():
    _run(verify.criterion_3_mode_derivative_asymptotics)


def test_criterion_4_coefficient_asymptotics():
    _run(verify.criterion_4_coefficient_asymptotics)


def test_criterion_5_linear_round_trip():
    _run(verify.criterion_5_linear_round_trip, seed=0)


def test_criterion_6_multiplier_consistency():
    _run(verify.criterion_6_multiplier_consistency)


def test_criterion_7_first_order_scaling():
    _run(verify.criterion_7_first_order_scaling)


def test_criterion_8_continuation_quality():
    _run(verify.criterion_8_continuation_quality)


def test_criterion_9_potential_properties():
    _run(verify.criterion_9_potential_properties)


def test_criterion_10_conformal_certification():
    _run(verify.criterion_10_conformal_certification, seed=0)


def test_criterion_11_linear_response():
    _run(verify.criterion_11_linear_response)


def test_criterion_12_discrete_jacobian():
    _run(verify.criterion_12_discrete_jacobian)
