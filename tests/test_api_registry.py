"""Registry hygiene and plug-in component resolution."""

import hashlib
import json

import numpy as np
import pytest

from repro.api import (
    DATASETS,
    MEMORY_UPDATERS,
    ROUTERS,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    register_dataset,
    register_router,
)
from repro.api.registry import Registry


class TestRegistryMachinery:
    def test_duplicate_key_raises(self):
        reg = Registry("widget")
        reg.register("a", object())
        with pytest.raises(ValueError, match="duplicate widget key 'a'"):
            reg.register("a", object())

    def test_available_is_sorted(self):
        reg = Registry("widget")
        for key in ("zeta", "alpha", "mid"):
            reg.register(key, key)
        assert list(reg.available()) == ["alpha", "mid", "zeta"]

    def test_missing_key_lists_available(self):
        reg = Registry("widget")
        reg.register("only", 1)
        with pytest.raises(KeyError, match="only"):
            reg.get("nope")

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("gone", 1)
        reg.unregister("gone")
        assert "gone" not in reg
        with pytest.raises(KeyError):
            reg.unregister("gone")

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.get("fn")() == 42

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            Registry("widget").register("")


class TestBuiltinRegistrations:
    def test_paper_datasets_registered_sorted(self):
        # the five Table-2 stand-ins plus the bench/ workloads' graph
        # (registered so process-backend ranks can rebuild it from a config)
        assert list(DATASETS.available()) == [
            "flights", "gdelt", "hotpath", "mooc", "reddit", "wikipedia",
        ]

    @pytest.mark.parametrize(
        "scale, nodes, events, digest",
        [
            (0.25, 110, 60_000,
             "0f84fdff9745cc99b34a993ae1d6643bbccb18e6cd42fafd1aaad0947777fe22"),
            (0.01, 110, 2_400,
             "c0269db709469681a3aeef1a92d00e38f313d2d1f4cffe4b552e9f12bf67f5ab"),
        ],
    )
    def test_hotpath_dataset_bytes_are_pinned(self, scale, nodes, events, digest):
        """Every bench/ workload trains on this graph: a changed byte would
        move train_loss / val_mrr for reasons unrelated to the code under
        test.  Digest = sha256 over dtype name + raw bytes of src, dst,
        timestamps and edge_feats."""
        cfg = ExperimentConfig(data=DataConfig(dataset="hotpath", scale=scale, seed=0))
        graph = cfg.build_dataset().graph
        assert (graph.num_nodes, graph.num_events) == (nodes, events)
        h = hashlib.sha256()
        for arr in (graph.src, graph.dst, graph.timestamps, graph.edge_feats):
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == digest

    def test_builtin_routers(self):
        assert list(ROUTERS.available()) == ["least_loaded", "round_robin"]

    def test_builtin_updaters(self):
        assert set(MEMORY_UPDATERS.available()) == {"gru", "rnn", "transformer"}

    def test_registering_builtin_key_collides_immediately(self):
        """Even as the process's first api call, a builtin-key collision
        raises at register() time and leaves the registries fully populated."""
        with pytest.raises(ValueError, match="duplicate router key 'round_robin'"):
            register_router("round_robin", lambda cluster: None)
        assert list(ROUTERS.available()) == ["least_loaded", "round_robin"]


class TestCLIUsesRegistries:
    def test_dataset_choices_come_from_registry(self):
        """--dataset choices reflect registrations, not a hardcoded table."""
        from repro.cli import build_parser

        register_dataset("toyds", lambda scale=0.01, seed=0: None)
        try:
            args = build_parser().parse_args(["train", "--dataset", "toyds"])
            assert args.dataset == "toyds"
        finally:
            DATASETS.unregister("toyds")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "toyds"])

    def test_policy_choices_come_from_registry(self, tmp_path):
        """A serving policy reaches the CLI through ``--config``: the JSON is
        accepted exactly when the policy is a registered router."""
        from repro.cli import build_parser

        doc = json.loads(ExperimentConfig().to_json())
        doc["serve"]["policy"] = "randomized"
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--config", str(path)])
        register_router("randomized", lambda cluster: cluster.replicas[0])
        try:
            args = build_parser().parse_args(["serve-bench", "--config", str(path)])
            assert args.config.serve.policy == "randomized"
        finally:
            ROUTERS.unregister("randomized")


class TestPluginComponents:
    def test_registered_router_routes_cluster_reads(self):
        from helpers import toy_graph

        import repro

        register_router("always_last", lambda cluster: cluster.replicas[-1])
        try:
            g = toy_graph()
            model = repro.TGN(repro.TGNConfig(
                num_nodes=g.num_nodes, memory_dim=8, time_dim=8, embed_dim=8,
                edge_dim=g.edge_dim,
            ))
            from repro.models import LinkPredictor
            from repro.serve import ServingCluster

            cluster = ServingCluster(
                model, g, LinkPredictor(8), k=3, policy="always_last",
                max_batch_pairs=10 ** 6, max_delay=100.0,
            )
            for _ in range(4):
                cluster.submit_rank(0, np.array([1, 2]), 50.0)
            cluster.flush_all()
            assert cluster.stats.routed == [0, 0, 4]
        finally:
            ROUTERS.unregister("always_last")

    def test_unknown_policy_still_rejected(self):
        from helpers import toy_graph

        import repro
        from repro.models import LinkPredictor
        from repro.serve import ServingCluster

        g = toy_graph()
        model = repro.TGN(repro.TGNConfig(
            num_nodes=g.num_nodes, memory_dim=8, time_dim=8, embed_dim=8,
            edge_dim=g.edge_dim,
        ))
        with pytest.raises(ValueError, match="unknown policy"):
            ServingCluster(model, g, LinkPredictor(8), policy="random")

    def test_registered_memory_updater_reachable_from_config(self):
        from repro.models.memory_updater import GRUMemoryUpdater

        calls = []

        @MEMORY_UPDATERS.register("custom_gru")
        def _make(memory_dim, edge_dim, time_encoder, rng):
            calls.append(memory_dim)
            return GRUMemoryUpdater(
                memory_dim, edge_dim=edge_dim, time_encoder=time_encoder,
                cell="gru", rng=rng,
            )

        try:
            cfg = ModelConfig(memory_dim=8, time_dim=8, embed_dim=8,
                              updater="custom_gru")
            assert cfg.updater == "custom_gru"
            import repro

            repro.TGN(repro.TGNConfig(
                num_nodes=10, memory_dim=8, time_dim=8, embed_dim=8,
                updater="custom_gru",
            ))
            assert calls == [8]
        finally:
            MEMORY_UPDATERS.unregister("custom_gru")
