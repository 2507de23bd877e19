"""Process-parallel executor: farm replicas on real cores, not one GIL.

Selected by ``ExecConfig(workers="process")``.  The plan is unchanged —
this executor runs the *same* :class:`~repro.core.plan.ExecutionPlan` as
the thread backend, but hosts every process-eligible placement group
(one farm replica's whole worker chain, see
:func:`~repro.core.plan.plan_process_placement`) in its own forked
worker process.  The source, sink, sequencers and pinned stages stay in
the parent, exactly where the thread backend runs them.

Topology:

* **parent-local edges** keep PR 3's in-process rings untouched;
* **group-local edges** (a shipped chain's private hops) are rebuilt as
  ordinary in-process rings *inside* the worker;
* **boundary edges** are lowered onto
  :class:`~repro.core.channel.ShmChannel` byte rings — one SPSC ring per
  consumer for per-consumer fan-out, one shared ring with an inherited
  ``multiprocessing.Lock`` on the contended side otherwise.  Envelopes
  travel as pickled batches sized by ``ExecConfig.batch_size``.

Semantics preserved against the thread backend:

* **units and loops** — workers execute the unmodified
  :class:`~repro.core.executor_native.UnitRunner` loop bodies, so
  ordering, sequence numbering and EOS aggregation are defined once;
* **tokens** — the token pool is parent-side state; worker processes
  never touch it.  Under a token gate shipped units run with
  ``forward_empty`` so filtered items flow back as empty envelopes and
  release their token in the parent;
* **metrics and traces** — each worker accumulates its own
  :class:`StageMetrics` and (when tracing) a child-local
  :class:`~repro.obs.tracer.SpanRecorder` whose clock shares the
  parent's origin (``perf_counter`` is system-wide monotonic); both are
  shipped once at EOS over the result queue and merged, so ``--trace``
  output is backend-invariant; boundary shm edges additionally sample
  queue-occupancy counter events from the ring item counters, so the
  ``q:{name}`` occupancy tracks match the thread backend's;
* **live telemetry** — when metrics are on, each worker runs its own
  :class:`~repro.obs.metrics.MetricsRegistry` and ships cumulative
  counter payloads every sampler interval over a dedicated per-group
  :class:`~repro.core.channel.ShmChannel`; the parent folds them in via
  ``apply_remote`` so ``workers="process"`` publishes the same live
  snapshots as the thread backend;
* **failures** — a :class:`ShmAbortFlag` byte mirrors the parent's
  event-driven error box across the boundary: any side's failure flips
  it, shm waiters poll it on their slow path, and a per-worker watchdog
  thread folds it into the worker's local abort signal.

Stages cross the boundary by pickling: a picklable factory ships as-is
(the worker constructs lazily); an unpicklable factory (a front-end's
closure, typically) is called parent-side in plan order and the
resulting *instance* ships instead.  When neither pickles,
:class:`UnpicklableStageError` names the stage *before* any process is
spawned.  Plans with no eligible group —
or platforms without the ``fork`` start method — fall back to the
thread backend silently.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import threading
import time
from collections import deque
from dataclasses import replace
from multiprocessing.connection import wait as mp_wait
from typing import Any, Dict, List, Optional, Sequence

from repro.control.controller import Controller
from repro.core.channel import ShmAbortFlag, ShmChannel
from repro.core.config import ExecConfig
from repro.core.executor_native import (
    Edge,
    NativeExecutor,
    PipelineAborted,
    UnitRunner,
    _env_weight,
    _ErrorBox,
    _NativeActuator,
    _TokenPool,
)
from repro.core.graph import PipelineGraph
from repro.core.items import EOS, RETIRE
from repro.core.metrics import RunResult, StageMetrics
from repro.core.plan import (
    ChannelSpec,
    ProcessPlacement,
    StageUnit,
    clone_replica_units,
    plan_process_placement,
)
from repro.core.stage import InstanceFactory, UnpicklableStageError
from repro.obs.clock import WallClock
from repro.obs.metrics import LiveTelemetry, MetricsRegistry
from repro.obs.tracer import SpanRecorder, use_tracer

#: byte capacity of one shared-memory ring (item capacity is then
#: data-dependent; backpressure still bounds memory per edge)
_SHM_RING_BYTES = 1 << 20

#: byte capacity of the per-group telemetry delta channel (payloads are
#: a few KB of pickled cumulative counters; the parent drains eagerly)
_TELE_RING_BYTES = 1 << 16

#: worker watchdog / parent monitor poll period (seconds); bounds how
#: long a cross-process abort takes to reach threads parked in-process
_POLL = 0.02

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class _ProcErrorBox(_ErrorBox):
    """Parent error box that mirrors failures into the shared abort byte.

    A worker's exception only reaches the parent when its report is
    drained at the end of the run, long after the abort flag unwound the
    parent's own threads — so a local error recorded while the flag was
    already set is *consequential* (EOS-starved reorder buffers and the
    like) and is outranked by the worker's root cause
    (:meth:`fail_remote`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.flag: Optional[ShmAbortFlag] = None
        self._provisional = False

    def fail(self, exc: BaseException) -> None:
        with self._err_lock:
            if self.error is None:
                self.error = exc
                self._provisional = (self.flag is not None
                                     and self.flag.is_set())
        self.set()

    def fail_remote(self, exc: BaseException) -> None:
        """Record a worker's own exception; outranks consequential errors."""
        with self._err_lock:
            if self.error is None or self._provisional:
                self.error = exc
                self._provisional = False
        self.set()

    def set(self) -> None:
        if self.flag is not None:
            self.flag.set()
        super().set()


class ShmEdge:
    """Edge-compatible bridge over shared-memory rings.

    Constructed by the parent before forking; both sides use the *same*
    inherited object — per-consumer inbox deques are per-process state,
    counters live in the shm segments, and EOS aggregation across
    producer processes rides a ``multiprocessing.Value``.  One pickled
    frame carries one batch of envelopes, so ``put_many``/``get_many``
    amortize the pickle + copy exactly like the in-process multi-push.
    """

    def __init__(self, spec: ChannelSpec, flag: ShmAbortFlag,
                 blocking: bool, mp_ctx, elastic: bool = False) -> None:
        self.name = spec.name
        #: block-typed edge: envelopes may carry whole ItemBlocks; the
        #: frame item counts then tally logical items so the shm
        #: occupancy gauges stay comparable with the fast path off
        self.columnar = getattr(spec, "columnar", False)
        #: total-ever producer count; a ``Value`` (not a plain int) so a
        #: worker forked before a grow still sees the live count when it
        #: aggregates EOS (``elastic`` edges may gain producers mid-run)
        self._producers = mp_ctx.Value("i", spec.producers)
        self.consumers = spec.consumers
        self._placement = spec.placement
        self._eos_count = mp_ctx.Value("i", 0)
        #: set under the ``_eos_count`` lock by whichever process fans
        #: the EOS out; guards ``add_producer`` across processes
        self._eos_fanned = mp_ctx.Value("i", 0)
        self._flag = flag
        self._blocking = blocking
        #: per-process observability binding (see :meth:`bind_tracer`)
        self._tracer = None
        self._obs_clock = None
        if spec.per_consumer:
            self._shared = False
            self._channels = [
                ShmChannel(_SHM_RING_BYTES, flag, blocking)
                for _ in range(spec.consumers)
            ]
            self._rotation = list(range(spec.consumers))
            self._rr = itertools.cycle(self._rotation)
            self._tracks = [f"q:{spec.name}.{i}" for i in range(spec.consumers)]
        else:
            self._shared = True
            # An elastic shared ring may gain a producer or consumer
            # process mid-run, so it needs both locks even when the
            # static plan says one side is uncontended.
            self._channels = [ShmChannel(
                _SHM_RING_BYTES, flag, blocking,
                producer_lock=mp_ctx.Lock()
                if spec.producers > 1 or elastic else None,
                consumer_lock=mp_ctx.Lock()
                if spec.consumers > 1 or elastic else None,
            )]
            self._rotation = [0]
            self._rr = itertools.cycle(self._rotation)
            self._tracks = [f"q:{spec.name}"]
        # Parent-side elastic state: every structural mutation happens in
        # the parent process (producers of an elastic farm's input edge
        # are always parent threads), so a thread lock suffices; worker
        # forks carry a dead copy they never touch.
        self._retire_lock = threading.Lock()
        self._retired: set = set()
        self._pending_retire: List[int] = []
        #: consumer_idx -> locally buffered envelopes (per-process state)
        self._inboxes: Dict[int, deque] = {}

    @property
    def producers(self) -> int:
        return self._producers.value

    def bind_tracer(self, tracer, clock) -> None:
        """Install this process's tracer for occupancy sampling.

        Tracers are per-process (a forked copy of the parent's recorder
        would swallow events), so each side binds its own after fork:
        the parent right after construction, every worker in
        ``_worker_main``.  The occupancy value itself comes from the shm
        item counters, so both sides sample the same truth and the
        merged ``q:{name}`` tracks are backend-invariant.
        """
        self._tracer = tracer
        self._obs_clock = clock

    def _sample(self, idx: int) -> None:
        self._tracer.counter(self._tracks[idx], "occupancy",
                             self._obs_clock.now(),
                             self._channels[idx].qsize_items())

    def qsize_total(self) -> int:
        """Envelopes in flight across the edge's rings (metrics gauge)."""
        return sum(ch.qsize_items() for ch in self._channels)

    def _route(self, env: Any) -> int:
        if self._placement is not None:
            return self._placement(env.seq, self.consumers) % self.consumers
        return next(self._rr)

    def _items_of(self, envs: Sequence[Any]) -> int:
        if not self.columnar:
            return len(envs)
        return sum(_env_weight(e) for e in envs)

    # producer side ------------------------------------------------------
    # Envelope frames use the protocol-5 out-of-band format
    # (:meth:`ShmChannel.put_obj`): an ItemBlock's numpy columns are
    # gathered straight from the arrays into the ring — one copy —
    # instead of pickle concatenating them into an intermediate blob.
    def put(self, env: Any, consumer_hint: Optional[int] = None) -> None:
        if self._shared:
            idx = 0
        else:
            idx = self._route(env) if consumer_hint is None else consumer_hint
        self._channels[idx].put_obj(
            [env], items=_env_weight(env) if self.columnar else 1)
        if self._tracer is not None:
            self._sample(idx)
        if self._pending_retire:
            with self._retire_lock:
                self._drain_retires()

    def put_many(self, envs: Sequence[Any]) -> None:
        if self._shared or len(self._channels) == 1:
            self._channels[0].put_obj(list(envs), items=self._items_of(envs))
            if self._tracer is not None:
                self._sample(0)
        else:
            buckets: Dict[int, List[Any]] = {}
            for env in envs:
                buckets.setdefault(self._route(env), []).append(env)
            for idx, bucket in buckets.items():
                self._channels[idx].put_obj(bucket,
                                            items=self._items_of(bucket))
                if self._tracer is not None:
                    self._sample(idx)
        if self._pending_retire:
            with self._retire_lock:
                self._drain_retires()

    def put_eos(self) -> None:
        """Last producer (across processes) releases every consumer."""
        with self._eos_count.get_lock():
            self._eos_count.value += 1
            last = self._eos_count.value == self._producers.value
            if last:
                self._eos_fanned.value = 1
        if not last:
            return
        with self._retire_lock:
            self._drain_retires()
            if self._shared:
                for _ in range(self.consumers):
                    self._channels[0].put_obj([EOS], items=1)
            else:
                for i, ch in enumerate(self._channels):
                    if i not in self._retired:
                        ch.put_obj([EOS], items=1)

    # elastic rewiring (parent-side only) --------------------------------
    def set_blocking(self, blocking: bool) -> bool:
        """Retune the wait discipline for the ends the *parent* holds.

        :meth:`ShmChannel.set_blocking` flips a per-process flag, so the
        worker side keeps its configured discipline — the contended end
        the controller observes (the parent's producer or the sink's
        consumer) is the one that moves.
        """
        self._blocking = blocking
        for ch in self._channels:
            ch.set_blocking(blocking)
        return True

    def add_consumer(self) -> Optional[int]:
        """Reserve a consumer slot for a grow; None once EOS fanned out.

        Per-consumer mode creates the new ring *reserved* (skipped by
        the EOS fan-out) so a stream that ends between the fork and
        :meth:`activate_consumer` cannot strand the new worker; shared
        mode just raises the fan-out count — the new process consumes
        from the ring it inherited at fork.
        """
        with self._retire_lock:
            if self._eos_fanned.value:
                return None
            if self._shared:
                self.consumers += 1
                return 0
            idx = len(self._channels)
            self._channels.append(
                ShmChannel(_SHM_RING_BYTES, self._flag, self._blocking))
            self._tracks.append(f"q:{self.name}.{idx}")
            self._retired.add(idx)          # reserved, not yet routable
            self.consumers += 1
            return idx

    def activate_consumer(self, idx: int) -> None:
        """Join a reserved slot to the routing rotation (post-fork)."""
        with self._retire_lock:
            if self._shared:
                return
            if self._eos_fanned.value:
                # stream ended while the worker was forking: hand it the
                # EOS the fan-out skipped so it exits immediately
                self._channels[idx].put_obj([EOS], items=1)
                return
            self._retired.discard(idx)
            self._rotation.append(idx)
            self._rr = itertools.cycle(self._rotation)

    def cancel_consumer(self, idx: int) -> None:
        """Unwind a reservation whose grow failed downstream."""
        with self._retire_lock:
            self.consumers -= 1
            # per-consumer: the reserved ring stays in ``_retired`` and
            # is destroyed with the edge

    def add_producer(self) -> bool:
        """Count one more producer; False once the EOS already fanned."""
        with self._eos_count.get_lock():
            if self._eos_fanned.value:
                return False
            self._producers.value += 1
            return True

    def request_retire(self) -> bool:
        """Queue a RETIRE behind everything already routed to one slot.

        The sentinel frame is written by the *producer* thread at its
        next put (or by the EOS fan-out), never concurrently with it —
        the boundary rings stay single-producer.
        """
        with self._retire_lock:
            if self._eos_fanned.value:
                return False
            if self._shared:
                if self.consumers <= 1:
                    return False
                self.consumers -= 1
                self._pending_retire.append(0)
                return True
            if len(self._rotation) <= 1:
                return False
            idx = self._rotation.pop()
            self._rr = itertools.cycle(self._rotation)
            self._retired.add(idx)
            self.consumers -= 1
            self._pending_retire.append(idx)
            return True

    def _drain_retires(self) -> None:
        # caller holds _retire_lock
        if not self._pending_retire:
            return
        pending, self._pending_retire = self._pending_retire, []
        for idx in pending:
            self._channels[idx].put_obj([RETIRE], items=1)

    # consumer side ------------------------------------------------------
    def _inbox(self, consumer_idx: int) -> deque:
        inbox = self._inboxes.get(consumer_idx)
        if inbox is None:
            inbox = self._inboxes[consumer_idx] = deque()
        return inbox

    def get(self, consumer_idx: int) -> Any:
        idx = 0 if self._shared else consumer_idx
        inbox = self._inbox(consumer_idx)
        if not inbox:
            inbox.extend(self._channels[idx].get_obj())
            if self._tracer is not None:
                self._sample(idx)
        return inbox.popleft()

    def get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        """Multi-pop mirroring the in-process contract: EOS arrives alone."""
        idx = 0 if self._shared else consumer_idx
        inbox = self._inbox(consumer_idx)
        if not inbox:
            inbox.extend(self._channels[idx].get_obj())
            if self._tracer is not None:
                self._sample(idx)
        out: List[Any] = []
        while inbox and len(out) < max_n:
            if inbox[0] is EOS:
                if not out:
                    out.append(inbox.popleft())
                break
            out.append(inbox.popleft())
        return out

    # lifecycle ----------------------------------------------------------
    def destroy(self) -> None:
        for ch in self._channels:
            ch.close()
            ch.unlink()


def _portable_exc(exc: BaseException) -> BaseException:
    """An exception safe to send over the result queue."""
    try:
        pickle.dumps(exc, _PICKLE_PROTO)
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(group: str, units_blob: bytes,
                 local_specs: Dict[str, ChannelSpec],
                 boundary: Dict[str, ShmEdge], cfg: ExecConfig,
                 flag: ShmAbortFlag, result_q, trace: bool,
                 clock_origin: float, tele: Optional[tuple] = None) -> None:
    """Worker-process entry: run one placement group's chain to EOS.

    Everything arrives through fork inheritance except the units
    themselves, which are shipped pickled (so by-name registry factories
    resolve in the worker and shipping is start-method independent).

    ``tele`` is ``(shm_channel, interval, wait_sample)`` when live
    metrics are on: the worker keeps its *own* local
    :class:`~repro.obs.metrics.MetricsRegistry` (the parent's forked
    copy is a dead snapshot) and a shipper thread sends its cumulative
    ``export_state`` payload over the dedicated shm channel every
    interval, plus one final ``eos``-marked payload after the chain
    drains.  Cumulative payloads make the protocol lossless under
    skipped windows: the parent only ever keeps the latest.
    """
    # Flag-connected box: a failure here flips the shared abort byte
    # *before* the failing loop's finally block propagates EOS, so the
    # parent observes the abort ahead of the truncated stream.
    errors = _ProcErrorBox()
    errors.flag = flag
    tracer: Optional[SpanRecorder] = None
    metrics: Dict[str, StageMetrics] = {}
    trace_payload: Any = None
    try:
        units: List[StageUnit] = pickle.loads(units_blob)
        clock = WallClock()
        clock.origin = clock_origin  # share the parent's time axis
        if trace:
            tracer = SpanRecorder()
            tracer.begin_run(group, "native", clock)
        local_reg: Optional[MetricsRegistry] = None
        if tele is not None:
            tele_ch, tele_interval, wait_sample = tele
            local_reg = MetricsRegistry(wait_sample=wait_sample)
        # Tokens are parent-side state: the worker's pool is a no-op.
        runner = UnitRunner(cfg, errors, _TokenPool(None, errors),
                            tracer=tracer, clock=clock,
                            collect_outputs=False, metrics=local_reg)
        edges: Dict[str, Any] = {
            name: Edge(spec, cfg.queue_capacity, errors,
                       blocking=cfg.blocking, backend=cfg.channel_backend,
                       tracer=tracer, clock=clock)
            for name, spec in local_specs.items()
        }
        # Boundary edges carry the parent's forked tracer binding; swap
        # in this process's own (or None) so events land where they are
        # shipped from.
        for shm_edge in boundary.values():
            shm_edge.bind_tracer(tracer, clock)
        edges.update(boundary)
        if local_reg is not None:
            for name in local_specs:
                local_reg.edge_gauge(name, edges[name].qsize_total)

        ship_stop: Optional[threading.Event] = None
        ship_thread: Optional[threading.Thread] = None
        if tele is not None:
            ship_stop = threading.Event()

            def ship(final: bool) -> None:
                payload = local_reg.export_state()
                payload["eos"] = final
                tele_ch.put_bytes(pickle.dumps(payload, _PICKLE_PROTO))

            def shipper() -> None:
                while not ship_stop.wait(tele_interval):
                    try:
                        ship(False)
                    except Exception:
                        return

            ship_thread = threading.Thread(target=shipper,
                                           name="metrics-shipper", daemon=True)
            ship_thread.start()

        stop = threading.Event()

        def watch() -> None:
            # Fold the cross-process abort byte into the local signal so
            # threads parked on in-worker rings wake up too.
            while not stop.is_set():
                if flag.is_set():
                    errors.set()
                    return
                time.sleep(_POLL)

        threading.Thread(target=watch, daemon=True).start()

        threads: List[threading.Thread] = []

        def spawn(unit: StageUnit, logic: Any) -> None:
            def body() -> None:
                try:
                    if tracer is not None:
                        with use_tracer(tracer):
                            runner.stage_loop(unit, logic,
                                              edges[unit.in_channel],
                                              edges[unit.out_channel])
                    else:
                        runner.stage_loop(unit, logic,
                                          edges[unit.in_channel],
                                          edges[unit.out_channel])
                except PipelineAborted:
                    pass
                except BaseException as exc:  # noqa: BLE001 - must capture all
                    errors.fail(exc)

            threads.append(threading.Thread(target=body, name=unit.track,
                                            daemon=True))

        for unit in units:
            spawn(unit, unit.spec.factory())
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        if ship_stop is not None:
            ship_stop.set()
            ship_thread.join(timeout=5.0)
            try:
                ship(True)  # final cumulative payload, eos-marked
            except Exception:
                pass
        metrics = runner.metrics
        if tracer is not None:
            trace_payload = (tracer.spans, tracer.counters, tracer.instants)
    except BaseException as exc:  # noqa: BLE001 - report, never hang the parent
        errors.fail(exc)
    if errors.error is not None:
        flag.set()
        result_q.put(("err", group, _portable_exc(errors.error)))
    else:
        result_q.put(("ok", group, metrics, trace_payload))


class _ProcActuator(_NativeActuator):
    """Control-loop backend for the process executor.

    Same decision surface as the thread actuator, different actuation
    paths: a grow *re-plans* the farm (clone the replica chain, pickle
    it, fork a fresh worker process wired to the existing boundary
    rings) while the parent source is paused, then resumes the stream —
    the issue's drain → re-plan → resume discipline, with the drain
    reduced to the boundary rings' own FIFO order (a RETIRE or a new
    slot activation is strictly ordered behind every frame already
    written, so emptying the rings first is unnecessary).  A shrink
    queues a RETIRE frame exactly like the thread backend; the retiring
    worker's early EOS crosses the boundary through the shared
    ``_eos_count``.

    Only farms whose every replica actually shipped (and whose boundary
    edges are shm rings) are scalable here; blocking/batch retuning
    applies to the parent-held ends of every edge.
    """

    def __init__(self, executor: "ProcessExecutor", edges: Dict[str, Any],
                 shm_edges: Dict[str, "ShmEdge"], runner: UnitRunner,
                 policy) -> None:
        super().__init__(executor, edges, runner, policy)
        placement = executor.placement
        self._groups = {
            name: st for name, st in self._groups.items()
            if (all(f"{name}#{r}" in placement.groups
                    for r in range(st.group.replicas))
                and st.group.in_channel in shm_edges
                and st.group.out_channel in shm_edges)
        }

    # -- internals (called with the lock held) ---------------------------
    def _grow(self, st) -> bool:
        g = st.group
        ex = self._ex
        in_edge = self._edges[g.in_channel]
        out_edge = self._edges[g.out_channel]
        slot = in_edge.add_consumer()
        if slot is None:
            return False  # stream already ending
        if not out_edge.add_producer():
            in_edge.cancel_consumer(slot)
            return False
        r = st.next_r
        st.next_r += 1
        units, hop_specs = clone_replica_units(g, r, st.replicas + 1, slot)
        group = f"{g.name}#{r}"
        self._runner.pause()  # hold new items while the farm is re-planned
        try:
            blob = ex._pickle_new_group(group, units)
            local_specs = {cs.name: cs for cs in hop_specs}
            boundary = {g.in_channel: in_edge, g.out_channel: out_edge}
            ex._fork_replica(group, blob, local_specs, boundary)
        except Exception:
            in_edge.cancel_consumer(slot)
            # the producer count cannot be unwound (a worker may already
            # have aggregated against it): contribute the missing EOS on
            # the failed replica's behalf instead
            out_edge.put_eos()
            raise
        finally:
            self._runner.resume()
        in_edge.activate_consumer(slot)
        st.replicas += 1
        return True

    def _shrink(self, st) -> bool:
        if not self._edges[st.group.in_channel].request_retire():
            return False
        st.replicas -= 1
        return True


class ProcessExecutor(NativeExecutor):
    """Drives a plan with process-eligible groups on worker processes.

    Subclasses the thread executor: the parent side *is* a thread-backend
    run over the parent-resident units, with boundary edges swapped for
    shm bridges.  Plans with nothing to ship (or platforms without
    ``fork``) delegate to the inherited :meth:`NativeExecutor.run`.
    """

    def __init__(self, graph: PipelineGraph, config: ExecConfig):
        super().__init__(graph, config)
        # Re-bind the abort path through the shared flag mirror.
        self._errors = _ProcErrorBox()
        self._tokens = _TokenPool(config.max_tokens, self._errors)
        self.placement: ProcessPlacement = plan_process_placement(self.plan)

    # -- shipping ---------------------------------------------------------
    def _materialize_factories(self) -> Dict[int, Any]:
        """Parent-side instances for shipped units whose factory won't pickle.

        Front-end lowerings (FastFlow worker vectors, TBB filters) build
        stage factories as closures — inherently unpicklable, and for the
        stateful ones (a farm's memoizing worker supply) a pickled copy
        would restart its internal counter in every worker.  So when a
        shipped spec's *factory* does not pickle, call it here in plan
        order — exactly when and where the thread backend would — and
        ship the resulting instance instead (it crosses the boundary via
        :class:`InstanceFactory` whenever the instance itself pickles).
        Factories that do pickle keep constructing lazily in the worker.
        """
        shipped = {id(u) for units in self.placement.groups.values()
                   for u in units}
        factory_ok: Dict[int, bool] = {}
        instances: Dict[int, Any] = {}
        for unit in self.plan.stages:
            if id(unit) not in shipped:
                continue
            spec = unit.spec
            ok = factory_ok.get(id(spec))
            if ok is None:
                try:
                    pickle.dumps(spec.factory, _PICKLE_PROTO)
                    ok = True
                except Exception:
                    ok = False
                factory_ok[id(spec)] = ok
            if not ok:
                instances[id(unit)] = spec.factory()
        return instances

    def _shipped_units(self, units: List[StageUnit],
                       materialized: Dict[int, Any]) -> List[StageUnit]:
        shipped = []
        for u in units:
            spec = u.spec
            if id(u) in materialized:
                spec = replace(spec,
                               factory=InstanceFactory(materialized[id(u)]))
            if spec.placement is not None:
                # The placement hook runs producer-side (in the parent);
                # strip it so an unpicklable hook can't block shipping.
                spec = replace(spec, placement=None)
            # Under a token gate a worker-side filter must not swallow
            # its token (the pool lives in the parent): forward an empty
            # envelope instead, which the parent sink releases.
            forward_empty = u.forward_empty or (
                self.config.max_tokens is not None)
            shipped.append(replace(u, spec=spec,
                                   forward_empty=forward_empty))
        return shipped

    def _pickle_group(self, group: str, units: List[StageUnit],
                      materialized: Dict[int, Any]) -> bytes:
        shipped = self._shipped_units(units, materialized)
        try:
            return pickle.dumps(shipped, _PICKLE_PROTO)
        except Exception as exc:
            for su in shipped:
                try:
                    pickle.dumps(su, _PICKLE_PROTO)
                except Exception as unit_exc:
                    raise UnpicklableStageError(
                        f"stage {su.spec.name!r} cannot be shipped to a "
                        f"worker process under workers='process': {unit_exc}. "
                        "Use a module-level class/function factory, register "
                        "it via repro.core.stage.registered, or pin it to "
                        "the parent with StageSpec(..., pinned=True)."
                    ) from unit_exc
            raise UnpicklableStageError(
                f"placement group {group!r} cannot be shipped to a worker "
                f"process: {exc}"
            ) from exc

    # -- elastic re-planning (controller-driven) --------------------------
    def _pickle_new_group(self, group: str, units: List[StageUnit]) -> bytes:
        """Ship one freshly cloned replica chain (mid-run grow)."""
        materialized: Dict[int, Any] = {}
        for u in units:
            try:
                pickle.dumps(u.spec.factory, _PICKLE_PROTO)
            except Exception:
                materialized[id(u)] = u.spec.factory()
        return self._pickle_group(group, units, materialized)

    def _collect_reports(self, procs: List[Any], result_q,
                         deadline: float) -> List[tuple]:
        """One report per worker, read while the workers exit.

        A report larger than the pipe buffer (a traced worker's spans)
        keeps its worker's queue feeder, and hence the worker's exit,
        blocked until the parent reads it, so reports are drained before
        any join.  Gives up on a worker that exited without reporting,
        or at ``deadline`` (``time.monotonic``) on a stuck one (the join
        then names it).
        """
        reports: List[tuple] = []
        while len(reports) < len(procs) and time.monotonic() < deadline:
            sentinels = [p.sentinel for p in procs]
            exited = len(mp_wait(sentinels, timeout=0)) == len(procs)
            try:
                reports.append(result_q.get(timeout=5.0 if exited else _POLL))
            except queue.Empty:
                if exited:
                    self._errors.fail(RuntimeError(
                        "a worker process exited without reporting"))
                    break
        return reports

    def _drain_tele(self, group: str, ch: ShmChannel) -> None:
        """Fold one worker's cumulative telemetry payloads into the
        parent registry as they arrive (thread body, one per worker)."""
        while True:
            try:
                payload = pickle.loads(ch.get_bytes())
            except PipelineAborted:
                return
            self._registry.apply_remote(group, payload)
            if payload.get("eos"):
                return

    def _fork_replica(self, group: str, blob: bytes,
                      local_specs: Dict[str, ChannelSpec],
                      boundary: Dict[str, "ShmEdge"]) -> None:
        """Fork one more worker process for a grown farm replica.

        The new process inherits the *current* boundary edges (including
        any ring reserved for it moments ago) through fork; its results
        and telemetry flow through the same queues as the original
        workers', so the merge loop and drain threads need no special
        case — the procs list just got longer.
        """
        tele = None
        if self._live_telemetry is not None:
            ch = ShmChannel(_TELE_RING_BYTES, self._flag, blocking=True)
            self._tele_chs[group] = ch
            tele = (ch, self._live_telemetry.interval,
                    self._registry.wait_sample)
            dt = threading.Thread(target=self._drain_tele, args=(group, ch),
                                  name=f"metrics-drain-{group}", daemon=True)
            self._drain_threads.append(dt)
            dt.start()
        p = self._mp_ctx.Process(
            target=_worker_main,
            args=(group, blob, local_specs, boundary, self.config,
                  self._flag, self._result_q, self._tracer is not None,
                  self._clock.origin, tele),
            name=f"repro-{group}", daemon=True)
        self._procs.append(p)
        p.start()

    # -- orchestration ----------------------------------------------------
    def run(self) -> RunResult:
        placement = self.placement
        if (not placement.any_eligible
                or "fork" not in multiprocessing.get_all_start_methods()):
            return super().run()

        plan, cfg = self.plan, self.config
        mp_ctx = multiprocessing.get_context("fork")

        # Fail fast on unpicklable stages, before any resource exists.
        materialized = self._materialize_factories()
        blobs = {g: self._pickle_group(g, units, materialized)
                 for g, units in placement.groups.items()}

        tracer = self._tracer
        if tracer is not None:
            self._clock = WallClock()
            tracer.begin_run(plan.graph_name, "native", self._clock)
        telemetry = LiveTelemetry.from_config(cfg, self._clock)
        registry = telemetry.registry if telemetry is not None else None
        runner = self._runner = UnitRunner(cfg, self._errors, self._tokens,
                                           tracer=tracer, clock=self._clock,
                                           metrics=registry)
        runner.sink_columnar = plan.sink_columnar

        flag = ShmAbortFlag()
        self._errors.flag = flag
        result_q = mp_ctx.Queue()
        shm_edges: Dict[str, ShmEdge] = {}
        tele_chs: Dict[str, ShmChannel] = {}
        procs: List[Any] = []
        drain_threads: List[threading.Thread] = []
        telemetry_summary: Optional[Dict[str, Any]] = None
        controller = actuator = None
        # spawn context for controller-driven replica forks
        self._mp_ctx, self._flag, self._result_q = mp_ctx, flag, result_q
        self._procs, self._tele_chs = procs, tele_chs
        self._registry, self._live_telemetry = registry, telemetry
        self._drain_threads = drain_threads
        policy = cfg.resolved_policy()
        # Elastic boundary edges may gain a producer or consumer process
        # mid-run; their shared rings then need both contention locks.
        mutable: set = set()
        if policy is not None:
            for g in plan.elastic.values():
                mutable.add(g.in_channel)
                if g.out_channel is not None:
                    mutable.add(g.out_channel)
        try:
            edges: Dict[str, Any] = {
                name: Edge(plan.channels[name], cfg.queue_capacity,
                           self._errors, blocking=cfg.blocking,
                           backend=cfg.channel_backend, tracer=tracer,
                           clock=self._clock,
                           allow_spsc=name not in mutable)
                for name in placement.parent_channels
            }
            for name in placement.boundary_channels:
                shm_edges[name] = ShmEdge(plan.channels[name], flag,
                                          cfg.blocking, mp_ctx,
                                          elastic=name in mutable)
                shm_edges[name].bind_tracer(tracer, self._clock)
            edges.update(shm_edges)
            if registry is not None:
                # one gauge per edge visible from the parent: in-process
                # rings and shm boundary rings alike (worker-local edges
                # arrive through the shipped payloads)
                for name, edge in edges.items():
                    registry.edge_gauge(name, edge.qsize_total)
                for group in placement.groups:
                    tele_chs[group] = ShmChannel(_TELE_RING_BYTES, flag,
                                                 blocking=True)

            if policy is not None and telemetry is not None:
                actuator = _ProcActuator(self, edges, shm_edges, runner,
                                         policy)
                controller = Controller(policy, actuator,
                                        registry=telemetry.registry,
                                        tracer=tracer)
                telemetry.registry.subscribe(controller.on_snapshot)

            for group, units in placement.groups.items():
                local_specs = {
                    name: plan.channels[name]
                    for name, owner in placement.local_channels.items()
                    if owner == group
                }
                boundary = {u.in_channel: shm_edges[u.in_channel]
                            for u in units if u.in_channel in shm_edges}
                boundary.update(
                    {u.out_channel: shm_edges[u.out_channel]
                     for u in units if u.out_channel in shm_edges})
                tele = None
                if telemetry is not None:
                    tele = (tele_chs[group], telemetry.interval,
                            registry.wait_sample)
                procs.append(mp_ctx.Process(
                    target=_worker_main,
                    args=(group, blobs[group], local_specs, boundary, cfg,
                          flag, result_q, tracer is not None,
                          self._clock.origin, tele),
                    name=f"repro-{group}", daemon=True))

            threads: List[threading.Thread] = []
            self._spawn(threads, runner.source_loop, plan.source.spec,
                        edges[plan.source.out_channel], name="source")
            for squ in plan.sequencers:
                self._spawn(threads, runner.sequencer_loop, squ,
                            edges[squ.in_channel], edges[squ.out_channel],
                            name=squ.track)
            for unit in placement.parent_stages:
                logic = unit.spec.factory()
                out_edge = edges[unit.out_channel] if unit.out_channel else None
                self._spawn(threads, self._stage_loop, unit, logic,
                            edges[unit.in_channel], out_edge, name=unit.track)

            # Monitor: a worker that dies without reporting (kill -9,
            # interpreter crash) must still unwind the whole run.  Reading
            # ``exitcode`` reaps the child (waitpid), so it is serialised
            # with the joins below: a child reaped by one thread is gone
            # (ECHILD) for the other, which then sees it as still alive.
            stop_monitor = threading.Event()
            reap = threading.Lock()

            def monitor() -> None:
                while not stop_monitor.is_set():
                    if flag.is_set() and not self._errors.is_set():
                        # A worker failed: wake parent threads parked on
                        # in-process channels; the actual exception
                        # arrives over the result queue and is recorded
                        # by the merge loop below.
                        self._errors.set()
                    with reap:
                        codes = [(p.name, p.exitcode) for p in procs]
                    for name, code in codes:
                        if code:
                            self._errors.fail(RuntimeError(
                                f"worker process {name!r} died with exit "
                                f"code {code}"))
                    time.sleep(_POLL)

            # Drain threads: fold each worker's cumulative telemetry
            # payloads into the parent registry as they arrive, so the
            # sampler's next window sees the remote units live.
            if telemetry is not None:
                telemetry.start()
                for group, ch in tele_chs.items():
                    dt = threading.Thread(target=self._drain_tele,
                                          args=(group, ch),
                                          name=f"metrics-drain-{group}",
                                          daemon=True)
                    drain_threads.append(dt)
            t_start = time.perf_counter()
            for p in procs:
                p.start()
            for t in threads:
                t.start()
            for dt in drain_threads:
                dt.start()
            mon = threading.Thread(target=monitor, daemon=True)
            mon.start()
            for t in threads:
                t.join()
            if actuator is not None:
                # the stream is over; refuse further scaling so the
                # procs list below is final
                actuator.close()
            # one 30 s bound on a stuck worker covers reports and joins
            deadline = time.monotonic() + 30.0
            reports = self._collect_reports(procs, result_q, deadline)
            for p in procs:
                # the sentinel closes as the worker exits; the blocking
                # join then only waits out the last of the exit
                if mp_wait([p.sentinel],
                           timeout=max(0.0, deadline - time.monotonic())):
                    with reap:
                        p.join()
            stop_monitor.set()
            mon.join()
            for p in procs:
                if p.is_alive():  # pragma: no cover - stuck worker
                    self._errors.fail(RuntimeError(
                        f"worker process {p.name!r} failed to exit"))
                    p.terminate()
                    p.join()
            makespan = time.perf_counter() - t_start
            # Close telemetry before building the result: drains exit on
            # the workers' eos payloads (or the abort flag); the final
            # sampler tick then folds the last shipped state in.
            for dt in drain_threads:
                dt.join(timeout=5.0)
            if telemetry is not None:
                if controller is not None:
                    telemetry.registry.unsubscribe(controller.on_snapshot)
                telemetry_summary = telemetry.stop()

            # Merge the workers' reports: metrics always, traces when on.
            for msg in reports:
                if msg[0] == "err":
                    self._errors.fail_remote(msg[2])
                    continue
                _tag, _group, worker_metrics, trace_payload = msg
                for m in worker_metrics.values():
                    runner.merge_metrics(m)
                if tracer is not None and trace_payload is not None:
                    spans, counters, instants = trace_payload
                    for s in spans:
                        tracer.span(s.cat, s.track, s.name, s.start, s.end,
                                    s.args)
                    for c in counters:
                        tracer.counter(c.track, c.name, c.t, c.value)
                    for i in instants:
                        tracer.instant(i.track, i.name, i.t, i.args)

            if tracer is not None:
                tracer.end_run(makespan)

            result = self._build_result(runner, makespan)
            result.details["workers"] = "process"
            result.details["process_groups"] = sorted(placement.groups)
            if telemetry_summary is not None:
                result.details["telemetry"] = telemetry_summary
            if controller is not None:
                result.details["controller"] = controller.summary()
            return result
        finally:
            if telemetry is not None and telemetry_summary is None:
                # error path: the normal-path stop above never ran
                if controller is not None:
                    telemetry.registry.unsubscribe(controller.on_snapshot)
                telemetry.stop()
            self._errors.flag = None
            for edge in shm_edges.values():
                edge.destroy()
            for ch in tele_chs.values():
                ch.close()
                ch.unlink()
            result_q.close()
            flag.close()
            flag.unlink()
