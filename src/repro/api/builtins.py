"""Built-in component registrations.

Imported lazily (and exactly once) by ``registry._ensure_builtins`` so the
registries are always populated by the time a key is resolved, without
creating import cycles: this module imports the component packages, while
those packages only ever import the registry *inside* functions.
"""

from __future__ import annotations

from functools import partial

from ..data import (
    PAPER_TABLE2,
    Dataset,
    InteractionModel,
    PaperStats,
    generate_interaction_graph,
    load_dataset,
)
from ..graph.sampler import RecentNeighborSampler
from ..models.memory_updater import GRUMemoryUpdater, TransformerMemoryUpdater
from ..models.tgn import TGN
from .registry import (
    register_dataset,
    register_memory_updater,
    register_model,
    register_router,
    register_sampler,
)

# ------------------------------------------------------------------ datasets
for _name in PAPER_TABLE2:
    register_dataset(_name, partial(load_dataset, _name))


@register_dataset("hotpath")
def _hotpath_dataset(scale: float = 0.01, seed: int = 0):
    """A small dense link-prediction graph: 110 nodes, 8-d edge features.

    The graph the ``bench/run.py`` workloads train on (``python3
    bench/run.py`` is where this repo's numbers come from).  Registered so
    a declarative config can name it — the process runtime's workers
    rebuild their dataset from the config.  ``scale`` maps to the event
    count the same way the Table-2 generators scale (0.01 -> 2400 events).
    """
    num_events = max(400, int(round(240_000 * scale)))
    model = InteractionModel(
        num_src=60,
        num_dst=50,
        num_events=num_events,
        edge_dim=8,
        p_repeat=0.6,
        num_communities=4,
        seed=seed,
    )
    graph = generate_interaction_graph(model, name="hotpath")
    paper = PaperStats(model.num_nodes, num_events, 100.0, 100, 8, True, True, "link")
    return Dataset("hotpath", graph, paper, "link")

# -------------------------------------------------------------------- models
register_model("tgn", TGN)

# ------------------------------------------------------------------ samplers
register_sampler("recent", RecentNeighborSampler)


# ----------------------------------------------------------- memory updaters
@register_memory_updater("gru")
def _make_gru(memory_dim, edge_dim, time_encoder, rng):
    return GRUMemoryUpdater(
        memory_dim, edge_dim=edge_dim, time_encoder=time_encoder, cell="gru", rng=rng
    )


@register_memory_updater("rnn")
def _make_rnn(memory_dim, edge_dim, time_encoder, rng):
    return GRUMemoryUpdater(
        memory_dim, edge_dim=edge_dim, time_encoder=time_encoder, cell="rnn", rng=rng
    )


@register_memory_updater("transformer")
def _make_transformer(memory_dim, edge_dim, time_encoder, rng):
    return TransformerMemoryUpdater(
        memory_dim, edge_dim=edge_dim, time_encoder=time_encoder, rng=rng
    )


# ------------------------------------------------------------------- routers
@register_router("round_robin")
def _route_round_robin(cluster):
    replica = cluster.replicas[cluster._rr % len(cluster.replicas)]
    cluster._rr += 1
    return replica


@register_router("least_loaded")
def _route_least_loaded(cluster):
    return min(cluster.replicas, key=lambda rep: (rep.load, rep.index))
