"""One zone's supervised localization worker.

:class:`ZoneWorker` is the per-zone unit of the scale-out design: a
:class:`~repro.service.session.ServiceSession` over the zone's own
deployment (its seeded world, lattice, estimator, interpolation cache,
circuit breakers), stepped one stream chunk at a time so the gateway can
run many zones in deterministic lockstep. The step loop is the one the
unzoned :class:`~repro.service.session.LocalizationService` runs —
warm-up, query scheduling, write-ahead checkpointing, replay-based
resume, graceful interrupt — which is what makes a single-zone plan
bitwise identical to the unzoned service (the ``repro.zones`` safety
rail, asserted in ``tests/test_zones_worker.py``).

The worker adds only what is zone-specific: the deployment built from
its :class:`~repro.zones.spec.ZoneSpec`, the zone checkpoint header,
zone-namespaced metrics, and the gateway-facing tag surface for
handoff: an *active set* deciding which tags this zone queries,
:meth:`activate_tag` / :meth:`deactivate_tag` / :meth:`move_tag` to
change ownership at chunk boundaries, and :meth:`transfer_estimate` to
seed the level-4 ladder with the estimate carried over from the sending
zone. All positions on this surface are **local** zone coordinates; the
gateway owns the site frame.

:func:`run_zone` + :class:`ZoneTask` are the module-level picklable pair
the gateway hands to :class:`~repro.runtime.supervisor.SupervisedPool`
for shared-nothing parallel execution (non-roaming plans only).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..exceptions import ConfigurationError
from ..hardware.deployment import build_paper_deployment
from ..service.metrics import MetricsRegistry
from ..service.pipeline import ServiceConfig, ServiceResult
from ..service.session import ServiceSession, SessionReport, _tag_id
from .spec import ZoneSpec, slice_fault_plan

__all__ = ["ZoneWorker", "ZoneTask", "run_zone"]


class ZoneWorker(ServiceSession):
    """A steppable, checkpointable localization session for one zone.

    Parameters
    ----------
    spec:
        The zone's world (environment, lattice, tags, seed, frame).
    config:
        Service knobs; the zone's ``spec.vire`` override (if any) is
        applied on top.
    fault_plan:
        The zone's **already sliced** fault plan (see
        :func:`repro.zones.spec.slice_fault_plan`); attached to the
        simulator after warm-up, exactly like the unzoned session.
    roaming_tags:
        Label -> initial *local* position of every roaming tag copy this
        zone hosts. Roaming copies exist in every zone's deployment (so
        geometry and ground truth are always defined) but start
        *inactive*: the gateway activates the owner's copy.
    checkpoint_path / resume / crash_point / perf_clock / warmup_max_s /
    query_schedule:
        As for :class:`~repro.service.session.ServiceSession`.
    """

    def __init__(
        self,
        spec: ZoneSpec,
        config: ServiceConfig | None = None,
        *,
        fault_plan=None,
        roaming_tags: Mapping[str, tuple[float, float]] | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume: bool = False,
        crash_point=None,
        perf_clock: Callable[[], float] = time.perf_counter,
        warmup_max_s: float = 120.0,
        query_schedule: Sequence[tuple[float, str]] | None = None,
    ):
        self.spec = spec
        config = config or ServiceConfig()
        if spec.vire is not None:
            config = config.with_(vire=spec.vire)
        # Static tags first, roaming copies after — build order is the
        # deployment's tag-offset RNG draw order, so a plan without
        # roaming tags builds the exact world the unzoned service does.
        roaming = dict(roaming_tags or {})
        overlap = {str(k) for k in spec.tracking_tags} & set(roaming)
        if overlap:
            raise ConfigurationError(
                f"roaming tags {sorted(overlap)} collide with zone "
                f"{spec.zone_id!r}'s static tags"
            )
        tracking: dict[str, tuple[float, float]] = {
            _tag_id(label): pos for label, pos in spec.tracking_tags.items()
        }
        tracking.update(
            {_tag_id(label): pos for label, pos in roaming.items()}
        )
        deployment = build_paper_deployment(
            spec.environment,
            grid=spec.grid,
            tracking_tags=tracking,
            reader_margin_m=spec.reader_margin_m,
            reader_positions=spec.reader_positions,
            seed=spec.seed,
        )
        static = sorted(_tag_id(label) for label in spec.tracking_tags)
        super().__init__(
            deployment,
            config,
            # ``zone`` plus the world keys (seed, origin, grid,
            # environment) make resuming zone A's file into zone B fail
            # loudly — the two zones are independent seeded worlds.
            {
                "zone": spec.zone_id,
                "environment": spec.environment.name,
                "seed": spec.seed,
                "origin": [spec.origin[0], spec.origin[1]],
                "grid": [spec.grid.rows, spec.grid.cols],
            },
            tags=static + sorted(_tag_id(label) for label in roaming),
            active=static,
            metrics=MetricsRegistry(zone=spec.zone_id),
            fault_plan=fault_plan,
            checkpoint_path=checkpoint_path,
            resume=resume,
            crash_point=crash_point,
            perf_clock=perf_clock,
            warmup_max_s=warmup_max_s,
            query_schedule=query_schedule,
        )

    @property
    def zone_id(self) -> str:
        return self.spec.zone_id

    # Defined on the class itself (not only inherited) so per-class
    # probes, such as perfbench's ``zones.start`` / ``zones.step``, time
    # zone ticks apart from the unzoned service's.

    def start(self, duration_s: float) -> None:
        super().start(duration_s)

    def step(self) -> list[ServiceResult] | None:
        return super().step()

    # -- gateway tag surface -----------------------------------------------------

    def active_tags(self) -> tuple[str, ...]:
        """Tag ids this zone currently queries, sorted."""
        return tuple(sorted(self._active))

    def activate_tag(self, label: str) -> None:
        """Start querying ``label`` (ownership arrived here)."""
        tag_id = _tag_id(label)
        if tag_id not in self.deployment.tracking_truth:
            raise ConfigurationError(
                f"zone {self.zone_id!r} hosts no tag {label!r}"
            )
        if tag_id not in self._active:
            self._active.add(tag_id)
            self._next_query[tag_id] = self.simulator.now

    def deactivate_tag(self, label: str) -> None:
        """Stop querying ``label`` (ownership moved away)."""
        tag_id = _tag_id(label)
        self._active.discard(tag_id)
        self._next_query.pop(tag_id, None)

    def move_tag(self, label: str, local_pos: tuple[float, float]) -> None:
        """Move a hosted tag to a new *local* position (owner only)."""
        self.deployment.move_tracking_tag(_tag_id(label), local_pos)

    def last_estimate(self, label: str) -> tuple[float, float] | None:
        """The tag's last served *local* position in this zone, if any."""
        return self.pipeline.last_estimate(_tag_id(label))

    def transfer_estimate(
        self, label: str, local_pos: tuple[float, float]
    ) -> None:
        """Seed the level-4 ladder from a handed-off estimate (local)."""
        self.pipeline.transfer_last_estimate(_tag_id(label), local_pos)


# ---------------------------------------------------------------------------
# Picklable parallel execution unit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneTask:
    """Everything a worker process needs to run one zone, picklable.

    ``fault_plan`` is the **site** plan; the task slices it for its own
    zone so the gateway ships one object to every process.
    """

    spec: ZoneSpec
    config: ServiceConfig | None = None
    duration_s: float = 10.0
    fault_plan: Any | None = None
    checkpoint_path: str | None = None
    resume: bool = False
    warmup_max_s: float = 120.0


def run_zone(task: ZoneTask) -> SessionReport:
    """Run one zone to completion (module-level: picklable for the pool)."""
    plan = (
        slice_fault_plan(task.fault_plan, task.spec.zone_id)
        if task.fault_plan is not None
        else None
    )
    worker = ZoneWorker(
        task.spec,
        task.config,
        fault_plan=plan,
        checkpoint_path=task.checkpoint_path,
        resume=task.resume,
        warmup_max_s=task.warmup_max_s,
    )
    return worker.run(task.duration_s)
