"""The policy governor: the one feedback loop of the adaptive runtime.

It closes the loop between the SLO and calibration-drift alert hubs
and the per-view scheduling policy
(:meth:`~repro.ivm.maintainer.ViewMaintainer.set_policy`) -- the only
runtime knob that moves the paper's objective ``f(s) <= C``.  Worker
count and block size are cost-neutral by construction
(charge-on-merge, block equivalence), so no loop drives them.

Design rules:

* **buffer in callbacks, act in ticks** -- alert-hub callbacks fire
  inline from the maintenance path, so they only append to bounded
  buffers; every switch happens in :meth:`PolicyGovernor.tick`, called
  *between* rounds.  Policies therefore never change under an
  executing round.
* **hysteretic** -- escalation needs ``escalate_after`` pressure
  events inside a trailing window, and relaxing back waits out a
  ``cooldown``, so one noisy interval cannot make the loop thrash.
* **auditable** -- every switch emits a
  :class:`~repro.control.events.ControlEvent` plus the
  ``control.policy.switches`` counter.
* **idle == invisible** -- attach/detach only add and remove the
  hub subscriptions; a governor that never reaches its threshold
  leaves view contents and simulated costs byte-identical to a run
  without one (guarded by
  ``tests/integration/test_control_equivalence.py``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.control import events as control_events
from repro.control.events import ControlEvent
from repro.obs import calibration as obs_calibration
from repro.obs import slo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.ivm.multiview import MaintenanceCoordinator

#: Policy-mode names, in escalation order (most defensive first).
NAIVE, ONLINE, RECEDING = "naive", "online", "receding"


def _default_policy_factory(mode: str):
    """Fresh policy instances per switch (estimator state must not leak)."""
    from repro.core.naive import NaivePolicy
    from repro.core.online import OnlinePolicy
    from repro.core.receding import RecedingHorizonPolicy

    if mode == NAIVE:
        return NaivePolicy()
    if mode == ONLINE:
        return OnlinePolicy()
    if mode == RECEDING:
        return RecedingHorizonPolicy(window=60)
    raise ValueError(f"unknown policy mode {mode!r}")


def _mode_of(policy) -> str:
    """Best-effort mode name for the policy a maintainer starts with."""
    name = type(policy).__name__.lower()
    for mode in (NAIVE, RECEDING, ONLINE):
        if mode in name:
            return mode
    return name or "custom"


class PolicyGovernor:
    """Switch per-view scheduling policy from SLO pressure and drift.

    Escalation ladder (most defensive wins):

    * ``escalate_after`` breach/near-breach events for one view within
      the trailing ``window`` steps -> **NAIVE** (flush-everything keeps
      the post-action backlog at zero, buying maximum headroom for the
      next burst at the price of batching economy);
    * a calibration-drift alert for a view still on ONLINE ->
      **RECEDING** (when the long-horizon cost model is drifting, a
      short re-planned window beats trusting ONLINE's closed-form
      amortized score);
    * ``cooldown`` consecutive quiet steps -> relax back to the
      preferred mode (ONLINE by default).

    Usage::

        with PolicyGovernor(coordinator) as governor:  # subscribe
            for t, arrivals in enumerate(stream):
                apply(arrivals)
                coordinator.step(t)
                governor.tick(t)     # read buffered alerts, maybe switch
    """

    name = "policy"

    def __init__(
        self,
        coordinator: "MaintenanceCoordinator",
        preferred: str = ONLINE,
        escalate_after: int = 3,
        window: int = 10,
        cooldown: int = 20,
        policy_factory: Callable[[str], object] | None = None,
    ):
        if escalate_after < 1:
            raise ValueError(f"escalate_after must be >= 1, got {escalate_after}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.coordinator = coordinator
        self.preferred = preferred
        self.escalate_after = escalate_after
        self.window = window
        self.cooldown = cooldown
        self.policy_factory = policy_factory or _default_policy_factory
        self._lock = threading.Lock()
        #: view -> recent breach/near-breach step numbers (bounded).
        self._pressure: dict[str, deque[int]] = {}
        #: views with an unconsumed drift alert.
        self._drifted: dict[str, int] = {}
        #: view -> current mode (lazily seeded from the live policy).
        self._modes: dict[str, str] = {}
        #: view -> last step with any pressure event.
        self._last_event: dict[str, int] = {}
        self._attached = False

    # -- subscriptions --------------------------------------------------

    def attach(self) -> "PolicyGovernor":
        """Subscribe to the SLO and drift alert hubs (idempotent)."""
        if not self._attached:
            slo.on_alert(self._on_slo)
            obs_calibration.on_drift(self._on_drift)
            self._attached = True
        return self

    def detach(self) -> None:
        """Remove both subscriptions (idempotent, safe if never attached)."""
        if self._attached:
            slo.remove_alert(self._on_slo)
            obs_calibration.remove_drift(self._on_drift)
            self._attached = False

    def __enter__(self) -> "PolicyGovernor":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    def _on_slo(self, event) -> None:
        source = getattr(event, "source", "")
        if not source.startswith("ivm:"):
            return
        view = source[len("ivm:") :]
        t = event.t if event.t is not None else 0
        with self._lock:
            bucket = self._pressure.setdefault(
                view, deque(maxlen=max(self.escalate_after * 4, 16))
            )
            bucket.append(t)
            self._last_event[view] = max(self._last_event.get(view, t), t)

    def _on_drift(self, event) -> None:
        view = getattr(event, "view", None)
        if view is None:
            return
        with self._lock:
            self._drifted[view] = event.t
            self._last_event[view] = max(
                self._last_event.get(view, event.t), event.t
            )

    # -- actuation ------------------------------------------------------

    def _switch(
        self,
        view: str,
        mode: str,
        t: int,
        reason: str,
        signals: dict[str, float],
    ) -> None:
        try:
            maintainer = self.coordinator.maintainer(view)
        except KeyError:
            return  # view removed since the alert fired
        old = self._modes.get(view) or _mode_of(maintainer.policy)
        maintainer.set_policy(self.policy_factory(mode))
        self._modes[view] = mode
        recorder = obs.get_recorder()
        if recorder is not None:
            recorder.counter("control.policy.switches")
        control_events.emit(
            ControlEvent(
                t=t,
                governor=self.name,
                setting="policy",
                old=old,
                new=mode,
                reason=reason,
                signals=signals,
                view=view,
            )
        )

    def tick(self, t: int) -> None:
        """One control interval: switch views whose buffered evidence
        crossed a threshold.  Call between maintenance rounds."""
        with self._lock:
            pressure = {v: list(q) for v, q in self._pressure.items()}
            drifted = dict(self._drifted)
            self._drifted.clear()
            last_event = dict(self._last_event)
        views = set(pressure) | set(drifted) | set(self._modes)
        for view in sorted(views):
            try:
                maintainer = self.coordinator.maintainer(view)
            except KeyError:
                continue
            mode = self._modes.get(view) or _mode_of(maintainer.policy)
            self._modes.setdefault(view, mode)
            recent = [s for s in pressure.get(view, ()) if s > t - self.window]
            if mode != NAIVE and len(recent) >= self.escalate_after:
                self._switch(
                    view,
                    NAIVE,
                    t,
                    reason=(
                        f"slo pressure: {len(recent)} breach/near-breach "
                        f"step(s) in the last {self.window} steps "
                        f"(threshold {self.escalate_after})"
                    ),
                    signals={
                        "pressure_events": float(len(recent)),
                        "window_steps": float(self.window),
                    },
                )
                continue
            if view in drifted and mode == ONLINE:
                self._switch(
                    view,
                    RECEDING,
                    t,
                    reason=(
                        "calibration drift: the cost model's rolling "
                        "relative error crossed its threshold; "
                        "re-planning over a short window instead of "
                        "trusting the long-horizon estimate"
                    ),
                    signals={"drift_t": float(drifted[view])},
                )
                continue
            quiet_for = t - last_event.get(view, -(10**9))
            if mode != self.preferred and quiet_for >= self.cooldown:
                self._switch(
                    view,
                    self.preferred,
                    t,
                    reason=(
                        f"quiet for {quiet_for} steps "
                        f"(cooldown {self.cooldown}); relaxing back to "
                        f"the preferred mode"
                    ),
                    signals={"quiet_steps": float(quiet_for)},
                )
