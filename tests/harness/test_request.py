"""Grouped ProfileRequest sub-configs."""

import warnings

import pytest

from repro.apps import registry
from repro.core.config import CozConfig
from repro.harness import (
    ExecutionConfig,
    ProfileRequest,
    ResilienceConfig,
    session_fingerprint,
)
from repro.plan import PlanConfig
from repro.sim.faults import FaultPlan


def _fingerprint(request):
    spec = registry.build("example")
    return session_fingerprint(
        spec, request, request.coz_config or CozConfig(scope=spec.scope)
    )


def test_grouped_construction_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        request = ProfileRequest(
            runs=4,
            execution=ExecutionConfig(jobs=2, batch_runs=2),
            resilience=ResilienceConfig(stop_after_runs=1),
            plan=PlanConfig(planner="adaptive", budget=3),
        )
    assert request.execution.jobs == 2
    assert request.execution.batch_runs == 2
    assert request.resilience.stop_after_runs == 1
    assert request.plan.planner == "adaptive"
    assert request.plan.budget == 3


def test_omitted_groups_take_their_defaults():
    plan = FaultPlan(seed=1)
    request = ProfileRequest(runs=4, resilience=ResilienceConfig(faults=plan))
    assert request == ProfileRequest(
        runs=4,
        execution=ExecutionConfig(),
        resilience=ResilienceConfig(faults=plan),
        plan=PlanConfig(),
    )
    assert ProfileRequest(plan=None).plan == PlanConfig()


def test_unknown_kwargs_still_raise():
    with pytest.raises(TypeError, match="unexpected keyword"):
        ProfileRequest(workers=3)


def test_fingerprint_ignores_execution_but_not_plan():
    base = _fingerprint(ProfileRequest(runs=3))
    assert _fingerprint(
        ProfileRequest(runs=3, execution=ExecutionConfig(jobs=8, checkpoint=False))
    ) == base
    assert _fingerprint(
        ProfileRequest(runs=3, plan=PlanConfig(planner="adaptive"))
    ) != base
    assert _fingerprint(
        ProfileRequest(runs=3, plan=PlanConfig(budget=2))
    ) != base
