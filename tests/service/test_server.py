"""The analysis service: endpoints, backpressure, timeouts, metrics."""

import asyncio
import json

import pytest

from repro import api, obs
from repro.service import AnalysisService, ServiceConfig, run_loadtest
from repro.service.loadtest import _Client
from repro.service.server import _json_bytes

FAST = {"trials": 6}


def with_service(config, scenario):
    """Run ``scenario(client, service)`` against a live service."""

    async def _run():
        service = AnalysisService(config)
        await service.start()
        client = _Client(config.host, service.port)
        await client.connect()
        try:
            return await scenario(client, service)
        finally:
            await client.close()
            await service.stop()

    return asyncio.run(_run())


def make_config(tmp_path, **overrides):
    params = dict(
        cache_dir=str(tmp_path / "store"),
        store_backend="sqlite",
        request_timeout=60.0,
    )
    params.update(overrides)
    return ServiceConfig(**params)


class TestEndpoints:
    def test_healthz_reports_configuration(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json("GET", "/healthz")
            assert status == 200
            assert body["ok"] is True
            assert body["store_backend"] == "sqlite"
            assert body["queue_limit"] == 8
            return None

        with_service(make_config(tmp_path), scenario)

    def test_analyze_and_verify(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/analyze", {"name": "scasb_rigel", **FAST}
            )
            assert status == 200
            assert body["succeeded"] is True and body["steps"] > 0

            status, body = await client.request_json(
                "POST", "/verify", {"name": "scasb_rigel", **FAST}
            )
            assert status == 200
            assert body["ok"] is True
            assert body["verified_trials"] == FAST["trials"]

        with_service(make_config(tmp_path), scenario)

    def test_batch_warm_second_request(self, tmp_path):
        async def scenario(client, service):
            payload = {"names": ["scasb_rigel", "movsb_pascal"], **FAST}
            status, cold = await client.request_json(
                "POST", "/batch", payload
            )
            assert status == 200 and cold["cache"]["misses"] == 2
            status, warm = await client.request_json(
                "POST", "/batch", payload
            )
            assert status == 200 and warm["cache"]["hits"] == 2
            # the canonical report bytes are backend-independent, so the
            # two runs agree on everything but the cache block
            assert cold["results"] == warm["results"]

        with_service(make_config(tmp_path), scenario)

    def test_trace_and_replay_after_batch(self, tmp_path):
        async def scenario(client, service):
            await client.request_json(
                "POST", "/batch", {"names": ["scasb_rigel"], **FAST}
            )
            status, body = await client.request_json(
                "GET", "/trace?name=scasb_rigel"
            )
            assert status == 200
            assert body["origin"] == "stored" and len(body["digest"]) == 64

            status, body = await client.request_json(
                "POST", "/replay", {"names": ["scasb_rigel"]}
            )
            assert status == 200 and body["ok"] is True
            assert body["entries"][0]["origin"] == "stored"

        with_service(make_config(tmp_path), scenario)

    def test_stats_and_metrics_expose_service_families(self, tmp_path):
        async def scenario(client, service):
            await client.request_json(
                "POST", "/batch", {"names": ["scasb_rigel"], **FAST}
            )
            status, snapshot = await client.request_json("GET", "/stats")
            assert status == 200
            assert snapshot["schema"] == obs.METRICS_SCHEMA
            requests = obs.counter_value(
                snapshot, "repro_service_requests_total"
            )
            assert requests >= 1
            assert (
                obs.gauge_value(snapshot, "repro_provenance_hit_rate")
                is not None
            )

            status, text = await client.request("GET", "/metrics")
            assert status == 200
            exposition = text.decode("utf-8")
            assert "repro_service_requests_total" in exposition
            assert "repro_service_request_seconds" in exposition

        with_service(make_config(tmp_path), scenario)


class TestBatchReply:
    """/batch answers with the report alone, never the registry."""

    NAMES = ["scasb_rigel", "movsb_pascal"]

    def test_reply_bytes_equal_the_api_payload_cold_and_warm(self, tmp_path):
        config = make_config(tmp_path)
        plan = api.RunConfig(
            cache_dir=str(tmp_path / "api-store"),
            store_backend="sqlite",
            trials=FAST["trials"],
            seed=config.seed,
            jobs=config.jobs,
        )
        expected = []
        for _temperature in ("cold", "warm"):
            # Collecting, as the service does: a batch that did not
            # ask for metrics carries no snapshot of the registry.
            with obs.collecting():
                payload = api.batch(self.NAMES, plan).report.to_payload()
            assert "metrics" not in payload
            expected.append(_json_bytes(payload))

        async def scenario(client, service):
            replies = []
            for _temperature in ("cold", "warm"):
                status, body = await client.request(
                    "POST", "/batch", {"names": self.NAMES, **FAST}
                )
                assert status == 200
                replies.append(body)
            return replies

        assert with_service(config, scenario) == expected

    def test_reply_does_not_grow_with_the_registry(self, tmp_path):
        async def scenario(client, service):
            payload = {"names": self.NAMES, **FAST}
            await client.request("POST", "/batch", payload)  # fill
            status, first = await client.request("POST", "/batch", payload)
            assert status == 200
            assert "metrics" not in json.loads(first)
            status, before = await client.request_json("GET", "/stats")
            for seed in range(20):
                status, _ = await client.request(
                    "POST",
                    "/verify",
                    {"name": self.NAMES[seed % 2], "seed": 100 + seed, **FAST},
                )
                assert status == 200
            status, after = await client.request_json("GET", "/stats")
            assert len(json.dumps(after)) > len(json.dumps(before))
            status, again = await client.request("POST", "/batch", payload)
            assert status == 200
            assert "metrics" not in json.loads(again)
            assert len(again) == len(first)

            # the registry is still served where it belongs
            assert obs.counter_value(after, "repro_service_requests_total") >= 22
            status, text = await client.request("GET", "/metrics")
            assert status == 200
            exposition = text.decode("utf-8")
            for family in (
                "repro_service_requests_total",
                "repro_service_request_seconds",
            ):
                assert family in exposition

        with_service(make_config(tmp_path), scenario)

    def test_requests_take_no_registry_snapshot(self, tmp_path, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        taken = []
        snapshot = MetricsRegistry.snapshot

        def counting_snapshot(registry):
            taken.append(registry)
            return snapshot(registry)

        async def scenario(client, service):
            payload = {"names": self.NAMES, **FAST}
            await client.request("POST", "/batch", payload)  # fill
            monkeypatch.setattr(MetricsRegistry, "snapshot", counting_snapshot)
            status, warm = await client.request_json("POST", "/batch", payload)
            assert status == 200 and warm["cache"]["hits"] == 2
            status, miss = await client.request_json(
                "POST", "/verify", {"name": self.NAMES[0], "seed": 77, **FAST}
            )
            assert status == 200 and miss["ok"]
            return len(taken)

        assert with_service(make_config(tmp_path), scenario) == 0


class TestReplayOncePerProcess:
    """The service replays an analysis once, however many misses ask."""

    NAME = "scasb_rigel"

    def test_fresh_seed_verifies_count_one_replays_steps(self, tmp_path):
        from repro.analysis.runner import _clear_replay_cache, _replay

        with obs.collecting() as registry:
            _replay(self.NAME)
        _clear_replay_cache()
        one_replay = obs.counter_value(
            registry.snapshot(), "repro_analysis_steps_total"
        )
        assert one_replay > 0

        async def scenario(client, service):
            _, before = await client.request_json("GET", "/stats")
            clients = [
                _Client(service.config.host, service.port) for _ in range(3)
            ]
            for other in clients:
                await other.connect()
            try:
                for round_ in range(2):
                    replies = await asyncio.gather(
                        *(
                            other.request_json(
                                "POST",
                                "/verify",
                                {
                                    "name": self.NAME,
                                    "seed": 300 + 3 * round_ + i,
                                    **FAST,
                                },
                            )
                            for i, other in enumerate(clients)
                        )
                    )
                    assert all(
                        status == 200 and body["ok"] for status, body in replies
                    )
            finally:
                for other in clients:
                    await other.close()
            _, after = await client.request_json("GET", "/stats")
            return [
                obs.counter_value(snapshot, "repro_analysis_steps_total")
                for snapshot in (before, after)
            ]

        before, after = with_service(make_config(tmp_path), scenario)
        assert after - before == one_replay


class TestErrors:
    def test_unknown_endpoint_and_method(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json("GET", "/nope")
            assert status == 404 and "error" in body
            status, _ = await client.request_json("GET", "/batch")
            assert status == 405

        with_service(make_config(tmp_path), scenario)

    def test_bad_json_and_bad_name(self, tmp_path):
        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/analyze", {"name": "no_such_analysis"}
            )
            assert status == 400 and "unknown analysis" in body["error"]

            # a raw non-JSON body
            raw = _Client(service.config.host, service.port)
            await raw.connect()
            status, _ = await raw.request("GET", "/healthz")
            assert status == 200  # sanity: transport works
            assert raw._writer is not None
            raw._writer.write(
                b"POST /batch HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await raw._writer.drain()
            line = await raw._reader.readline()
            assert b"400" in line
            await raw.close()

        with_service(make_config(tmp_path), scenario)

    def test_backpressure_emits_429_with_retry_after(self, tmp_path):
        config = make_config(tmp_path, queue_limit=1)

        async def scenario(client, service):
            async def one(seed):
                c = _Client(config.host, service.port)
                await c.connect()
                status, _ = await c.request(
                    "POST", "/batch", {"seed": seed, **FAST}
                )
                headers = dict(c.last_headers)
                await c.close()
                return status, headers

            outcomes = await asyncio.gather(*(one(s) for s in range(4)))
            statuses = sorted(status for status, _ in outcomes)
            assert statuses[0] == 200
            assert 429 in statuses
            rejected = [h for s, h in outcomes if s == 429]
            assert all(h.get("retry-after") == "1" for h in rejected)

            status, snapshot = await client.request_json("GET", "/stats")
            assert status == 200
            assert (
                obs.counter_value(
                    snapshot, "repro_service_rejected_total"
                )
                >= 1
            )

        with_service(config, scenario)

    def test_slow_request_times_out_with_504(self, tmp_path):
        config = make_config(tmp_path, request_timeout=0.02)

        async def scenario(client, service):
            status, body = await client.request_json(
                "POST", "/batch", {"trials": 40}
            )
            assert status == 504 and "exceeded" in body["error"]

        with_service(config, scenario)


class TestLoadtest:
    def test_hermetic_loadtest_meets_service_gates(self, tmp_path):
        from repro.analysis.pool import shutdown_pool

        # A pool left over from earlier tests would absorb the warm-up
        # spawn this test asserts on.
        shutdown_pool()
        report = run_loadtest(
            clients=4,
            requests_per_client=3,
            trials=6,
            cache_dir=str(tmp_path / "store"),
        )
        assert report.statuses == {"200": 12}
        assert report.warm_hit_rate >= 0.9
        assert report.pool_spawn_delta_measured == 0
        assert report.pool_spawn_total >= 1
        assert report.pool_reuse_total >= 1
        assert report.p99_ms > 0 and report.rps > 0
        payload = report.to_dict()
        assert payload["schema"] == "repro.bench.service/1"
        assert json.loads(report.to_json()) == payload
