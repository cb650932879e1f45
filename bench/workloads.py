"""The four frozen deployment workloads.

Each is one ``i×j×k`` plan on one dataset, sized once on HEAD so that a
lifecycle round takes five to seven seconds on the 2-vCPU reference host
(the accepting driver allows ~37 s per run including warm-up and set-up, so
the ISSUE's 3 s-per-sample floors were cut as it prescribes: rounds first,
then request counts, sample length last).  Work is fixed by count, never by
time, so every round of every run does the same arithmetic.

The training inputs are frozen with the workload (``DATA_SEED`` /
``TRAIN_SEED``): ``train_loss`` and ``val_mrr`` differ by 10 % / 23 % between
data seeds on HEAD, which no regression bound survives, while with frozen
inputs they are bit-exact sentinels of the repository's bitwise contract.
``--seed`` drives everything the serving plane sees: the query set, the
arrival schedule, the ingest schedule and which answers are re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

DATA_SEED = 0
TRAIN_SEED = 0
CLIENTS = 8               # closed-loop callers, one request in flight each
VERIFY_QUERIES = 32       # answers re-asked of a second fresh cluster
BATCH_SIZE = 200          # local batch per rank (TrainConfig default)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    train_frac: float
    val_frac: float
    plan: str                # i x j x k
    backend: str             # 'local' | 'process'
    iterations: int          # below one sweep of memory group 0: no in-loop eval
    replicas: int
    candidates: int          # per ranking request
    closed_requests: int
    open_requests: int
    open_rate: float         # offered req/s, ~50 % of HEAD's closed-loop rate
    stream_chunk: int        # events per cluster.ingest call
    open_ingests: int        # chunks ingested on schedule during the open loop

    @property
    def ijk(self) -> Tuple[int, int, int]:
        i, j, k = (int(x) for x in self.plan.split("x"))
        return i, j, k

    @property
    def ranks(self) -> int:
        i, _j, k = self.ijk
        return i * k

    @property
    def train_events(self) -> int:
        """Edges the training loop traverses (the paper's fairness count)."""
        i, j, k = self.ijk
        return self.iterations * i * j * k * BATCH_SIZE

    def warmup(self) -> "Workload":
        """The same lifecycle at about a third of the counts: enough to take
        the interpreter, the allocator and BLAS through every code path
        once, without spending a measured round's time on numbers that are
        thrown away."""
        return replace(
            self,
            iterations=max(1, self.iterations // 3),
            closed_requests=max(CLIENTS, self.closed_requests // 4),
            open_requests=max(CLIENTS, self.open_requests // 4),
            open_ingests=max(1, self.open_ingests // 4),
        )

    def config(self):
        """The declarative experiment; model and serve sections are the
        library defaults, and ``compile`` is left alone so that a later
        default flip shows up here."""
        from repro.api import ExperimentConfig
        from repro.api.config import DataConfig, ServeConfig, TrainConfig
        from repro.parallel.config import ParallelConfig

        return ExperimentConfig(
            data=DataConfig(dataset=self.dataset, scale=self.scale, seed=DATA_SEED),
            parallel=ParallelConfig.parse(self.plan),
            train=TrainConfig(
                batch_size=BATCH_SIZE, seed=TRAIN_SEED,
                train_frac=self.train_frac, val_frac=self.val_frac,
            ),
            serve=ServeConfig(replicas=self.replicas),
        )


# hotpath @ 0.25: 110 nodes, 60 000 events, 8-d edge features; 240 validation
# and 240 test events keep the three evaluation sweeps that end fit() shorter
# than the loop.  The three plans traverse the same 30 400 edges.
_HOTPATH = dict(
    dataset="hotpath", scale=0.25, train_frac=0.992, val_frac=0.004,
    candidates=20, closed_requests=800, open_requests=1200,
    open_rate=800.0, stream_chunk=20, open_ingests=12,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="solo_1x1x1", plan="1x1x1", backend="local",
                 iterations=152, replicas=1, **_HOTPATH),
        Workload(name="minibatch_2x1x1", plan="2x1x1", backend="process",
                 iterations=76, replicas=2, **_HOTPATH),
        Workload(name="memepoch_1x2x2", plan="1x2x2", backend="process",
                 iterations=38, replicas=2, **_HOTPATH),
        # wikipedia @ 0.2: 1845 nodes, 31 489 events, 172-d edge features;
        # 157 validation and 158 test events
        Workload(
            name="wide_1x1x1", dataset="wikipedia", scale=0.2,
            train_frac=0.99, val_frac=0.005, plan="1x1x1", backend="local",
            iterations=80, replicas=1, candidates=50, closed_requests=400,
            open_requests=400, open_rate=320.0, stream_chunk=8, open_ingests=12,
        ),
    )
}
