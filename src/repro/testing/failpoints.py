"""Deterministic failpoint injection for the process runtime.

A *failpoint* is a named site in the code (``failpoints.fire("worker.step",
...)``) that tests can arm to misbehave deterministically::

    from repro.testing import failpoints

    failpoints.enable("worker.step:3", kind="crash", rank=1)   # SIGKILL
    failpoints.enable("worker.step:5", kind="wedge")           # hang forever
    failpoints.enable("worker.step:2@0", kind="pipe_drop")     # dead pipes

Activation crosses process boundaries through the ``REPRO_FAILPOINTS``
environment variable: :func:`enable` arms the calling process *and* exports
the spec, so workers spawned by the runtime launcher (``spawn`` start
method inherits the environment) honor the same schedule.  This is what
makes chaos tests reproducible — the failure always lands at the same
site, step and rank, never "somewhere around iteration 3".

Spec syntax (one spec, also the env-var element; specs join with ``;``)::

    site:hit[@rank]=kind

``site``
    The instrumented location, e.g. ``worker.step``.
``hit``
    *When* to fire.  Sites that pass ``step=`` to :func:`fire` (the worker
    training loop passes its global iteration) match ``hit`` against that
    value; sites that don't are matched against a per-process hit counter
    (the ``hit``-th execution of the site, 1-based).
``rank``
    Optional rank scope; omitted = any rank.
``kind``
    ``crash``      — ``SIGKILL`` the process (no cleanup, no error frame:
                     the hard-death path the launcher must survive).  A
                     site may pass a ``crash`` callback to scope the blast
                     radius — on a fabric rank the ``fabric.machine`` site
                     SIGKILLs its whole host agent (children included)
                     instead of just itself, the machine-loss drill;
    ``wedge``      — spin forever (the process stays alive but makes no
                     progress: the timeout-detection path);
    ``pipe_drop``  — invoke the site's ``pipe_drop`` callback (the worker
                     passes one that closes its collective channels) and
                     continue: the next collective op fails like a dead
                     network link;
    ``exc``        — raise :class:`FailpointError` (an ordinary worker
                     exception: the error-frame path).

Every spec fires **once per process**.  A respawned worker starts with a
fresh process, so the launcher neutralizes inherited failpoints on the
ranks it restarts (``neutralize()``) — a crash failpoint must take a rank
down once, not turn every restart into a crash loop.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ENV_VAR = "REPRO_FAILPOINTS"

KINDS = ("crash", "wedge", "pipe_drop", "exc")


class FailpointError(RuntimeError):
    """Raised by ``exc`` failpoints (and after a ``pipe_drop`` misfire)."""


@dataclass(frozen=True)
class FailpointSpec:
    """One armed failpoint: where, when, for whom, and what happens."""

    site: str
    hit: int
    kind: str
    rank: Optional[int] = None

    def encode(self) -> str:
        at = f"@{self.rank}" if self.rank is not None else ""
        return f"{self.site}:{self.hit}{at}={self.kind}"

    @classmethod
    def parse(cls, text: str) -> "FailpointSpec":
        text = text.strip()
        if "=" not in text:
            raise ValueError(f"failpoint spec {text!r} missing '=kind'")
        point, kind = text.rsplit("=", 1)
        if kind not in KINDS:
            raise ValueError(f"unknown failpoint kind {kind!r}; choose from {KINDS}")
        rank: Optional[int] = None
        if "@" in point:
            point, rank_s = point.rsplit("@", 1)
            try:
                rank = int(rank_s)
            except ValueError:
                raise ValueError(f"bad rank in failpoint spec {text!r}") from None
        if ":" not in point:
            raise ValueError(f"failpoint spec {text!r} missing ':hit'")
        site, hit_s = point.rsplit(":", 1)
        if not site:
            raise ValueError(f"failpoint spec {text!r} has an empty site")
        try:
            hit = int(hit_s)
        except ValueError:
            raise ValueError(f"bad hit count in failpoint spec {text!r}") from None
        return cls(site=site, hit=hit, kind=kind, rank=rank)


class FailpointRegistry:
    """Process-local view of the armed failpoints.

    The module-level singleton (:data:`failpoints` via the module itself)
    is what production code and tests use; independent instances exist for
    unit-testing the registry.
    """

    def __init__(self) -> None:
        self._specs: List[FailpointSpec] = []
        self._fired: set = set()
        self._counts: Dict[str, int] = {}
        self._env_loaded = False
        self._neutralized = False

    # ------------------------------------------------------------- arming
    def enable(self, point: str, kind: str = "crash", rank: Optional[int] = None) -> FailpointSpec:
        """Arm ``point`` (``"site:hit"`` or ``"site:hit@rank"``) in this
        process and export it through :data:`ENV_VAR` for spawned workers.
        An explicit ``rank=`` overrides a rank suffix in ``point``."""
        spec = FailpointSpec.parse(f"{point}=crash")  # validate site:hit[@rank]
        spec = FailpointSpec(
            site=spec.site,
            hit=spec.hit,
            kind=kind if kind in KINDS else _bad_kind(kind),
            rank=rank if rank is not None else spec.rank,
        )
        self._load_env()
        self._specs.append(spec)
        self._export()
        return spec

    def disable(self, point: str, rank: Optional[int] = None) -> None:
        """Disarm every spec matching ``point`` (site:hit[@rank])."""
        probe = FailpointSpec.parse(f"{point}=crash")
        target_rank = rank if rank is not None else probe.rank
        self._load_env()
        self._specs = [
            s
            for s in self._specs
            if not (s.site == probe.site and s.hit == probe.hit and s.rank == target_rank)
        ]
        self._export()

    def clear(self) -> None:
        """Disarm everything and scrub the environment variable."""
        self._specs = []
        self._fired = set()
        self._counts = {}
        self._env_loaded = True
        self._neutralized = False
        os.environ.pop(ENV_VAR, None)

    def neutralize(self) -> None:
        """Ignore every armed/inherited failpoint in *this* process only.

        The launcher calls this (via the worker's ``clear_failpoints``
        spawn flag) in ranks it respawns after a failure: the environment
        still carries the spec, but a restarted rank must not re-trip the
        failure that killed its predecessor."""
        self._neutralized = True

    def active(self) -> List[FailpointSpec]:
        """The armed specs (env-inherited ones included)."""
        self._load_env()
        return list(self._specs)

    def scoped(self, specs: Dict[str, Tuple[str, Optional[int]]]):
        """Context manager arming ``{point: (kind, rank)}`` and clearing on
        exit — chaos tests use this so a failed assertion can never leak an
        armed crash into the next test."""
        return _Scoped(self, specs)

    # ------------------------------------------------------------- firing
    def fire(
        self,
        site: str,
        *,
        rank: Optional[int] = None,
        step: Optional[int] = None,
        pipe_drop: Optional[Callable[[], None]] = None,
        crash: Optional[Callable[[], None]] = None,
    ) -> None:
        """Evaluate ``site``; act out the first matching armed spec.

        ``step`` makes matching deterministic across restarts (the worker
        passes its global iteration); without it the per-process hit
        counter is used.  ``pipe_drop`` is the site's hook for the
        ``pipe_drop`` kind (close your comm channels here); ``crash``
        overrides the default self-SIGKILL with a site-specific blast
        radius (the fabric's whole-machine kill).
        """
        self._load_env()
        if self._neutralized or not self._specs:
            return
        if step is None:
            self._counts[site] = self._counts.get(site, 0) + 1
            step = self._counts[site]
        for spec in self._specs:
            if spec.site != site or spec.hit != step:
                continue
            if spec.rank is not None and rank is not None and spec.rank != rank:
                continue
            key = (spec.encode(), rank)
            if key in self._fired:
                continue
            self._fired.add(key)
            self._act(spec, pipe_drop, crash)
            return

    def _act(
        self,
        spec: FailpointSpec,
        pipe_drop: Optional[Callable[[], None]],
        crash: Optional[Callable[[], None]] = None,
    ) -> None:
        if spec.kind == "crash":
            # a true SIGKILL: no atexit, no error frame, no flushed pipes —
            # exactly the failure mode elastic restart must absorb
            if crash is not None:
                crash()
            os.kill(os.getpid(), signal.SIGKILL)
        elif spec.kind == "wedge":
            while True:  # pragma: no cover - the supervisor kills us
                time.sleep(0.5)
        elif spec.kind == "pipe_drop":
            if pipe_drop is not None:
                pipe_drop()
                return  # execution continues; the next collective op fails
            raise FailpointError(
                f"pipe_drop failpoint {spec.encode()} fired at a site with no "
                f"pipe_drop hook"
            )
        elif spec.kind == "exc":
            raise FailpointError(f"failpoint {spec.encode()} fired")

    # ------------------------------------------------------------ plumbing
    def _export(self) -> None:
        if self._specs:
            os.environ[ENV_VAR] = ";".join(s.encode() for s in self._specs)
        else:
            os.environ.pop(ENV_VAR, None)

    def _load_env(self) -> None:
        """Merge env-var specs once per process (spawned workers' path)."""
        if self._env_loaded:
            return
        self._env_loaded = True
        raw = os.environ.get(ENV_VAR, "")
        for part in raw.split(";"):
            if part.strip():
                spec = FailpointSpec.parse(part)
                if spec not in self._specs:
                    self._specs.append(spec)


class _Scoped:
    def __init__(self, registry: FailpointRegistry, specs) -> None:
        self.registry = registry
        self.specs = specs

    def __enter__(self) -> FailpointRegistry:
        for point, (kind, rank) in self.specs.items():
            self.registry.enable(point, kind=kind, rank=rank)
        return self.registry

    def __exit__(self, *exc) -> None:
        self.registry.clear()


def _bad_kind(kind: str) -> str:
    raise ValueError(f"unknown failpoint kind {kind!r}; choose from {KINDS}")


#: the process-wide registry every instrumented site consults
_REGISTRY = FailpointRegistry()

enable = _REGISTRY.enable
disable = _REGISTRY.disable
clear = _REGISTRY.clear
neutralize = _REGISTRY.neutralize
active = _REGISTRY.active
scoped = _REGISTRY.scoped
fire = _REGISTRY.fire
