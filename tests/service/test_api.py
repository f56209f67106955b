"""Routing, JSON shapes, validation, and SSE framing of the API."""

from __future__ import annotations

import asyncio
import json

from repro.experiments import ExperimentSpec
from repro.service.api import (EventStream, Response, ServiceAPI,
                               format_sse, parse_job_request)
from repro.service.queue import JobQueue
from repro.service.store import JobStore


SPEC = {"protocol": "naive", "n": 4, "ell": 32, "repeats": 2}


def with_api(tmp_path, coro_fn):
    """Run ``coro_fn(api, queue)`` against a live queue."""
    async def main():
        queue = JobQueue(JobStore(tmp_path / "svc"), pool=1)
        await queue.start()
        try:
            return await coro_fn(ServiceAPI(queue), queue)
        finally:
            await queue.close()
    return asyncio.run(main())


def post_job(api, payload) -> tuple[int, dict]:
    response = api.handle("POST", "/api/jobs", {},
                          json.dumps(payload).encode())
    return response.status, json.loads(response.body)


async def finish(queue, job_id):
    async for _seq, _entry in queue.stream(job_id):
        pass


class TestRoutes:
    def test_dashboard_and_health(self, tmp_path):
        async def scenario(api, queue):
            page = api.handle("GET", "/", {}, b"")
            assert page.status == 200 and b"repro serve" in page.body
            assert page.content_type.startswith("text/html")
            health = api.handle("GET", "/healthz", {}, b"")
            assert json.loads(health.body)["ok"] is True
            return True

        assert with_api(tmp_path, scenario)

    def test_unknown_routes_are_404(self, tmp_path):
        async def scenario(api, queue):
            for method, path in (("GET", "/nope"),
                                 ("POST", "/api/nope"),
                                 ("PUT", "/api/jobs"),
                                 ("GET", "/api/jobs/jmissing")):
                response = api.handle(method, path, {}, b"")
                assert response.status == 404, (method, path)
            return True

        assert with_api(tmp_path, scenario)

    def test_submit_status_result_cycle(self, tmp_path):
        async def scenario(api, queue):
            status, body = post_job(api, {"spec": SPEC, "client": "t"})
            assert status == 201 and body["created"]
            job_id = body["job"]["id"]

            status, again = post_job(api, {"spec": SPEC})
            assert status == 200 and not again["created"]
            assert again["job"]["submissions"] == 2

            early = api.handle("GET", f"/api/jobs/{job_id}/result",
                               {}, b"")
            if early.status != 200:  # may legitimately finish fast
                assert early.status == 409

            await finish(queue, job_id)
            response = api.handle("GET", f"/api/jobs/{job_id}", {}, b"")
            assert json.loads(response.body)["job"]["state"] == "done"
            result = api.handle("GET", f"/api/jobs/{job_id}/result",
                                {}, b"")
            payload = json.loads(result.body)
            assert payload["correct"] is True
            assert len(payload["outcomes"]) == 1
            listing = api.handle("GET", "/api/jobs", {}, b"")
            assert len(json.loads(listing.body)["jobs"]) == 1
            return True

        assert with_api(tmp_path, scenario)

    def test_cancel_via_post_and_delete(self, tmp_path):
        async def scenario(api, queue):
            _status, body = post_job(api, {"spec": SPEC})
            job_id = body["job"]["id"]
            await finish(queue, job_id)
            for invocation in (("POST", f"/api/jobs/{job_id}/cancel"),
                               ("DELETE", f"/api/jobs/{job_id}")):
                response = api.handle(*invocation, {}, b"")
                assert response.status == 200  # idempotent on done
            return True

        assert with_api(tmp_path, scenario)

    def test_events_route_returns_stream_marker(self, tmp_path):
        async def scenario(api, queue):
            _status, body = post_job(api, {"spec": SPEC})
            job_id = body["job"]["id"]
            stream = api.handle("GET", f"/api/jobs/{job_id}/events",
                                {"after": ["3"]}, b"")
            assert isinstance(stream, EventStream)
            assert stream.job_id == job_id and stream.after == 3
            await finish(queue, job_id)
            return True

        assert with_api(tmp_path, scenario)

    def test_flame_timeline_and_stats(self, tmp_path):
        async def scenario(api, queue):
            _status, body = post_job(api, {"spec": SPEC})
            job_id = body["job"]["id"]
            await finish(queue, job_id)
            flame = api.handle("GET", f"/api/jobs/{job_id}/flame",
                               {}, b"")
            assert f"serve;{job_id};point-0" in flame.body.decode()
            timeline = api.handle("GET", "/api/timeline", {}, b"")
            assert job_id in timeline.body.decode()
            stats = api.handle("GET", "/api/stats", {}, b"")
            payload = json.loads(stats.body)
            assert payload["pool"] == 1
            assert payload["stats"]["jobs_done"] == 1
            return True

        assert with_api(tmp_path, scenario)


class TestValidation:
    def test_bad_bodies_are_400_with_explanations(self, tmp_path):
        async def scenario(api, queue):
            cases = (b"not json",
                     b"[]",
                     json.dumps({"nope": 1}).encode(),
                     json.dumps({"spec": {**SPEC,
                                          "bogus": 1}}).encode(),
                     json.dumps({"spec": {**SPEC,
                                          "protocol": "nope"}}).encode(),
                     json.dumps({"spec": SPEC, "axis": "n"}).encode())
            for body in cases:
                response = api.handle("POST", "/api/jobs", {}, body)
                assert response.status == 400, body
                assert "error" in json.loads(response.body)
            return True

        assert with_api(tmp_path, scenario)

    def test_parse_job_request_round_trips_the_spec(self):
        request = parse_job_request(json.dumps(
            {"spec": SPEC, "axis": "n", "values": [4, 6],
             "priority": 3, "client": "ci"}).encode())
        assert request.spec == ExperimentSpec(**SPEC)
        assert request.axis == "n" and request.values == (4, 6)
        assert request.priority == 3 and request.client == "ci"


class TestWireHelpers:
    def test_response_json_helper(self):
        response = Response.json({"a": 1}, status=201)
        assert response.status == 201
        assert json.loads(response.body) == {"a": 1}
        assert response.body.endswith(b"\n")

    def test_format_sse_frames(self):
        frame = format_sse(7, {"event": "job_done", "t": 1.0,
                               "job": "j0"}).decode()
        assert frame.startswith("id: 7\n")
        assert frame.endswith("\n\n")
        data_line = [line for line in frame.splitlines()
                     if line.startswith("data: ")][0]
        assert json.loads(data_line[6:])["event"] == "job_done"
