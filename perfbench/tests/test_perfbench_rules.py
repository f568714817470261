"""The benchmark's own rules: names, the tail percentile, failure
counting and the traced run's self-time arithmetic."""

import json
import os

import pytest

import measure
import run
import workloads
from measure import OpRecord

ROOT = os.path.dirname(run.HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ names


@pytest.mark.parametrize("name,ok", [
    ("op_p50_s", True), ("sim.run_s", True), ("cold-profile", True), ("9x", True),
    ("_lead", False), (".lead", False), ("a b", False), ("a/b", False), ("", False),
    ("x" * 64, True), ("x" * 65, False),
])
def test_name_rule(name, ok):
    assert measure.valid_name(name) is ok


def test_every_printed_name_is_valid_and_declared():
    bench = load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(measure.valid_name(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# --------------------------------------------------------- tail percentile


@pytest.mark.parametrize("n,cap,expected", [
    (19, 99, None),   # the median needs 10 values beyond it
    (20, 99, 50),
    (39, 99, 50),
    (40, 99, 75),
    (99, 99, 75),
    (100, 99, 90),
    (200, 99, 95),
    (1000, 99, 99),
    (1000, 75, 75),   # the cap holds however many ops ran
    (100, 75, 75),
])
def test_tail_percentile(n, cap, expected):
    assert measure.tail_percentile(n, cap) == expected
    if expected is not None:
        assert measure.beyond(n, expected) >= measure.MIN_BEYOND


def test_summary_uses_nearest_rank_and_refuses_small_samples():
    vals = [float(i) for i in range(1, 41)]  # 1..40
    s = measure.summarize_latencies(vals, cap=99)
    assert (s.n, s.p50, s.tail_pct, s.tail) == (40, 20.0, 75, 30.0)
    assert len([v for v in vals if v > s.tail]) == 10
    small = measure.summarize_latencies(vals[:19], cap=99)
    assert small.p50 is None and small.tail is None


# ------------------------------------------------------- failure counting


def test_failures_count_against_attempts():
    recs = [
        OpRecord("op", 0.1, True),
        OpRecord("op", 0.2, False, "check"),
        OpRecord("hit", 0.01, False, "shed"),
        OpRecord("hit", 0.01, True),
        OpRecord("op", 0.3, False),
    ]
    attempted, failed, reasons = measure.count_outcomes(recs)
    assert (attempted, failed) == (5, 3)
    assert reasons == {"check": 1, "shed": 1, "error": 1}
    assert measure.ok_latencies(recs, "op") == [0.1]


def test_failed_output_checks():
    from repro.core.profile_data import ProfileData, RunFailure

    data = ProfileData()
    failure, text = workloads.check_profile(data)
    assert failure is None
    assert workloads.check_profile(data, ref_json=text)[0] is None
    assert workloads.check_profile(data, ref_json=text + " ")[0] == "check"
    data.add_failure(RunFailure(index=0, seed=0, error_type="DeadlockError", message="x"))
    assert workloads.check_profile(data)[0] == "check"


class FakeClient:
    """Answers every submit with a fixed response document."""

    def __init__(self, response):
        self.response = response

    def submit(self, spec):
        return self.response


def service(tmp_path, response):
    mix = workloads.ServiceMix(1, workloads.Sizing(), str(tmp_path))
    mix.client = FakeClient(response)
    mix.done = [[] for _ in range(mix.clients)]
    return mix


def test_shed_submits_are_failed_ops(tmp_path):
    shed = {"ok": False, "error": "ServiceOverloadError", "reason": "quota"}
    mix = service(tmp_path, shed)
    rec = mix.write(0, workloads.SeedPlan(mix.rngs[0]))
    assert (rec.kind, rec.ok, rec.failure) == ("op", False, "shed")
    mix.done[0].append((mix.jobspec(0, 1), "{}"))
    rec = mix.read(0)
    assert (rec.kind, rec.ok, rec.failure) == ("hit", False, "shed")


def test_a_write_served_from_cache_fails_its_check(tmp_path):
    mix = service(tmp_path, {"ok": True, "cached": True, "result": {}})
    rec = mix.write(0, workloads.SeedPlan(mix.rngs[0]))
    assert (rec.ok, rec.failure) == (False, "check")


def test_a_read_that_executes_fails_its_check(tmp_path):
    mix = service(tmp_path, {"ok": True, "job_id": "j1", "state": "queued"})
    mix.done[0].append((mix.jobspec(0, 1), "{}"))
    rec = mix.read(0)
    assert (rec.ok, rec.failure) == (False, "check")


# ------------------------------------------------------- span arithmetic


def span(sid, start, end, parent=None, layer="x", name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "layer": layer, "name": name, "attrs": {}}


def test_covered_is_the_union_clipped_to_the_parent():
    assert measure.covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert measure.covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert measure.covered([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("a", 0.0, 10.0, layer="parallel"),
        # two workers overlapping under one dispatch span
        span("b", 1.0, 6.0, "a", layer="sim"),
        span("c", 2.0, 8.0, "a", layer="sim"),
        span("d", 3.0, 4.0, "c", layer="wire"),
        span("e", 20.0, 21.0, layer="wire"),
    ]
    got = measure.self_times(spans)
    assert got == {"a": 3.0, "b": 5.0, "c": 5.0, "d": 1.0, "e": 1.0}
    assert measure.layer_self_times(spans) == {"parallel": 3.0, "sim": 10.0, "wire": 2.0}


def test_dispatch_reads_zero_for_in_process_sessions():
    serial = span("s", 0.0, 1.0, name="parallel.execute_tasks", layer="parallel")
    serial["attrs"] = {"tasks": 2, "jobs": 1, "worker_s": 0.0}
    pooled = span("p", 2.0, 3.0, name="parallel.execute_tasks", layer="parallel")
    pooled["attrs"] = {"tasks": 4, "jobs": 2, "worker_s": 1.6}
    assert workloads.layer_metrics([serial], ops=1)["parallel.dispatch_s"] == 0.0
    got = workloads.layer_metrics([pooled], ops=1)["parallel.dispatch_s"]
    assert got == pytest.approx(1.0 - 1.6 / 2)


def test_uninstall_puts_every_original_back(tmp_path):
    import warnings

    import spans
    from repro.apps import registry
    from repro.harness import runner
    from repro.sim.program import Program

    def current():
        return (Program.__dict__["run"], runner.run_profile_session, warnings.showwarning)

    before = current()
    tracer = spans.Tracer(str(tmp_path), in_memory=True)
    spans.install(tracer)
    try:
        assert all(a is not b for a, b in zip(current(), before))
        registry.build("example").build(1).run()
        assert [s["name"] for s in tracer.spans] == ["sim.run"]
    finally:
        spans.uninstall()
    assert current() == before
    registry.build("example").build(1).run()
    assert len(tracer.spans) == 1
