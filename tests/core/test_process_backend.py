"""The process backend: equivalence with threads, shipping rules, failures.

``ExecConfig(workers="process")`` must be a drop-in swap for the thread
backend: same outputs, same stage-metrics totals, same trace track
structure — for flat pipelines and farm-of-pipelines alike.  Stages that
cannot cross the process boundary must fail fast (named, before any
process spawns) or stay home (``pinned``); everything else is plumbing
that these tests pin down.
"""

import pickle

import pytest

from repro.core.config import WORKER_BACKENDS, ExecConfig
from repro.core.graph import Farm, Pipe, StageSpec, linear_graph
from repro.core.plan import build_plan, plan_process_placement
from repro.core.run import execute
from repro.core.stage import (
    FunctionStage,
    IterSource,
    Stage,
    UnpicklableStageError,
    register_stage,
    registered,
)
from repro.obs.tracer import CAT_STAGE, SpanRecorder

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="process backend requires the fork start method",
)


class _Square(Stage):
    def process(self, item, ctx):
        return item * item


class _OddFilter(Stage):
    def process(self, item, ctx):
        return item if item % 2 else None


class _AddN(Stage):
    def __init__(self, n):
        self.n = n

    def process(self, item, ctx):
        return item + self.n


class _BoomAt(Stage):
    def __init__(self, bad):
        self.bad = bad

    def process(self, item, ctx):
        if item == self.bad:
            raise ValueError(f"boom at {item}")
        return item


def _identity(x):
    return x


def _boom_at_7():
    return _BoomAt(7)


def _run_both(build, **cfg):
    out = {}
    for workers in ("thread", "process"):
        out[workers] = execute(build(), ExecConfig(workers=workers, **cfg))
    return out["thread"], out["process"]


def _metric_totals(result):
    return {name: (m.items_in, m.items_out)
            for name, m in result.stage_metrics.items()}


# -- the workers knob itself -------------------------------------------------

def test_workers_knob_validated():
    for accepted in WORKER_BACKENDS:
        assert ExecConfig(workers=accepted).workers == accepted
    with pytest.raises(ValueError) as err:
        ExecConfig(workers="gevent")
    msg = str(err.value)
    assert "gevent" in msg
    for accepted in WORKER_BACKENDS:
        assert accepted in msg


# -- backend equivalence -----------------------------------------------------

def _flat():
    return linear_graph(
        IterSource(range(60)),
        StageSpec(_Square, "sq", replicas=3),
        StageSpec(FunctionStage(_identity), "sink"),
    )


def test_flat_pipeline_equivalence():
    t, p = _run_both(_flat)
    assert p.outputs == t.outputs == [i * i for i in range(60)]
    assert p.items_emitted == t.items_emitted
    assert _metric_totals(p) == _metric_totals(t)
    assert p.details.get("workers") == "process"
    assert sorted(p.details["process_groups"]) == ["sq#0", "sq#1", "sq#2"]


def _farm_of_pipelines_over(n):
    worker = Pipe([
        StageSpec(_Square, "fp.sq"),
        StageSpec(_AddN(1), "fp.add"),
    ], name="fp")
    return linear_graph(
        IterSource(range(n)),
        Farm(worker=worker, replicas=2, ordered=True, name="fp"),
        StageSpec(FunctionStage(_identity), "sink"),
    )


def _farm_of_pipelines():
    return _farm_of_pipelines_over(48)


def test_farm_of_pipelines_equivalence():
    t, p = _run_both(_farm_of_pipelines)
    assert p.outputs == t.outputs == [i * i + 1 for i in range(48)]
    assert _metric_totals(p) == _metric_totals(t)
    # Each shipped group is one replica's whole chain, not one stage.
    assert len(p.details["process_groups"]) == 2


@pytest.mark.parametrize("ordered", [True, False])
def test_filtering_farm_under_token_gate(ordered):
    def build():
        return linear_graph(
            IterSource(range(40)),
            StageSpec(_OddFilter, "odd", replicas=3, ordered=ordered),
            StageSpec(FunctionStage(_identity), "sink"),
        )

    t, p = _run_both(build, max_tokens=4, queue_capacity=4)
    expected = [i for i in range(40) if i % 2]
    if ordered:
        assert p.outputs == t.outputs == expected
    else:
        assert sorted(p.outputs) == sorted(t.outputs) == expected


def test_trace_structure_backend_invariant():
    def stage_spans(result_tracer):
        return sorted((s.track, s.name) for s in result_tracer.spans
                      if s.cat == CAT_STAGE)

    traces = {}
    for workers in ("thread", "process"):
        rec = SpanRecorder()
        execute(_flat(), ExecConfig(workers=workers, tracer=rec))
        traces[workers] = stage_spans(rec)
    assert traces["process"] == traces["thread"]
    assert traces["process"]  # non-empty: spans actually crossed back


# -- shipping rules ----------------------------------------------------------

def test_unpicklable_stage_fails_fast_with_name():
    g = linear_graph(
        IterSource(range(10)),
        StageSpec(lambda: FunctionStage(lambda x: x), "lam", replicas=2),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    with pytest.raises(UnpicklableStageError) as err:
        execute(g, ExecConfig(workers="process"))
    assert "'lam'" in str(err.value)
    assert "workers='process'" in str(err.value)


def test_registered_factory_ships_by_key():
    register_stage("test_process_backend.square", _Square)
    g = linear_graph(
        IterSource(range(20)),
        StageSpec(registered("test_process_backend.square"), "sq", replicas=2),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    r = execute(g, ExecConfig(workers="process"))
    assert r.outputs == [i * i for i in range(20)]
    assert r.details.get("workers") == "process"


def test_unpicklable_factory_ships_materialized_instance():
    # A closure factory does not pickle, but the instance it builds does:
    # the parent constructs it (plan order, thread-backend semantics) and
    # ships the instance instead.
    g = linear_graph(
        IterSource(range(20)),
        StageSpec(lambda: _AddN(7), "add", replicas=2),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    r = execute(g, ExecConfig(workers="process"))
    assert r.outputs == [i + 7 for i in range(20)]
    assert r.details.get("workers") == "process"


def test_pinned_farm_stays_on_threads():
    g = linear_graph(
        IterSource(range(30)),
        StageSpec(_Square, "sq", replicas=3, pinned=True),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    r = execute(g, ExecConfig(workers="process"))
    assert r.outputs == [i * i for i in range(30)]
    assert r.details.get("workers") != "process"


def test_serial_plan_falls_back_to_threads():
    g = linear_graph(
        IterSource(range(15)),
        StageSpec(_Square, "sq"),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    r = execute(g, ExecConfig(workers="process"))
    assert r.outputs == [i * i for i in range(15)]
    assert r.details.get("workers") != "process"


def test_placement_classifies_channels():
    plan = build_plan(_farm_of_pipelines(), ExecConfig())
    placement = plan_process_placement(plan)
    assert sorted(placement.groups) == ["fp.sq#0", "fp.sq#1"]
    # One intra-chain hop per replica stays group-local.
    assert sorted(placement.local_channels.values()) == ["fp.sq#0", "fp.sq#1"]
    # Boundary edges: into the farm and out of it.
    assert len(placement.boundary_channels) == 2
    for unit in plan.stages:
        side = placement.side_of(unit)
        assert side == (unit.group if unit.group in placement.groups
                        else "parent")


def test_shipped_units_pickle_roundtrip():
    from repro.core.executor_process import ProcessExecutor

    ex = ProcessExecutor(_farm_of_pipelines(), ExecConfig(workers="process"))
    materialized = ex._materialize_factories()
    for group, units in ex.placement.groups.items():
        blob = ex._pickle_group(group, units, materialized)
        clones = pickle.loads(blob)
        assert [u.track for u in clones] == [u.track for u in units]


# -- failure propagation -----------------------------------------------------

def test_worker_exception_propagates_to_parent():
    g = linear_graph(
        IterSource(range(30)),
        StageSpec(_boom_at_7, "boom", replicas=2),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    with pytest.raises(ValueError, match="boom at 7"):
        execute(g, ExecConfig(workers="process"))


def test_parent_source_exception_unwinds_workers():
    def bad_gen():
        yield from range(5)
        raise RuntimeError("source died")

    g = linear_graph(
        IterSource(bad_gen()),
        StageSpec(_Square, "sq", replicas=2),
        StageSpec(FunctionStage(_identity), "sink"),
    )
    with pytest.raises(RuntimeError, match="source died"):
        execute(g, ExecConfig(workers="process"))


# -- worker exit and reporting -----------------------------------------------

def test_monitor_polling_never_races_the_join(monkeypatch):
    """The monitor's exit-code poll reaps children; the join must not lose
    a worker to it and report a spurious "failed to exit"."""
    from repro.core import executor_process

    monkeypatch.setattr(executor_process, "_POLL", 0.0)
    for _ in range(150):
        g = linear_graph(
            IterSource(range(4)),
            StageSpec(_Square, "sq", replicas=2),
            StageSpec(FunctionStage(_identity), "sink"),
        )
        result = execute(g, ExecConfig(workers="process"))
        assert result.outputs == [0, 1, 4, 9]


def test_traced_run_with_large_worker_reports_finishes():
    """Each worker's spans exceed the pipe buffer: the parent must read
    the reports before it joins, or the workers can never exit."""
    import threading

    n = 2000
    rec = SpanRecorder()
    done = {}

    def run():
        done["result"] = execute(
            _farm_of_pipelines_over(n), ExecConfig(workers="process",
                                                   tracer=rec))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=20.0)
    assert not t.is_alive(), "traced process run hung"
    assert done["result"].outputs == [i * i + 1 for i in range(n)]
    for replica in (0, 1):
        tracks = {f"fp.sq[{replica}]", f"fp.add[{replica}]"}
        shipped = [s for s in rec.spans if s.track in tracks]
        assert len(pickle.dumps(shipped)) > 1 << 16
        assert sum(s.cat == CAT_STAGE for s in shipped) == n
