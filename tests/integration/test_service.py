"""End-to-end service tests over real HTTP, including kill/resume.

These boot ``repro serve`` as a genuine subprocess (the same artifact
operators run), talk to it through :class:`ServiceClient`, and in the
resume test SIGKILL it mid-sweep — the only honest way to prove the
journal-backed restart produces bit-identical results.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.service import ServiceClient, ServiceError

SRC = str(Path(__file__).resolve().parents[2] / "src")

SIM_SPEC = {"protocol": "naive", "n": 4, "ell": 32, "repeats": 2}
SYNC_SPEC = {"protocol": "crash-multi", "n": 4, "ell": 32, "repeats": 2,
             "backend": "sync", "network": "synchronous",
             "fault_model": "crash", "beta": 0.25}


class Server:
    """One ``repro serve`` subprocess bound to a fresh port."""

    def __init__(self, tmp_path: Path, data_dir: Path, *,
                 pool: int = 1, tag: str = "srv") -> None:
        self.port_file = tmp_path / f"{tag}.port"
        self.log = (tmp_path / f"{tag}.log").open("w")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self.port_file),
             "--data-dir", str(data_dir), "--pool", str(pool)],
            stdout=self.log, stderr=subprocess.STDOUT, env=env)

    def client(self, timeout: float = 30.0) -> ServiceClient:
        deadline = time.monotonic() + timeout
        while not self.port_file.exists() or \
                not self.port_file.read_text().strip():
            if self.process.poll() is not None:
                raise RuntimeError("server died during startup")
            if time.monotonic() > deadline:
                raise TimeoutError("server never wrote its port file")
            time.sleep(0.05)
        port = int(self.port_file.read_text().strip())
        return ServiceClient(f"http://127.0.0.1:{port}")

    def kill(self) -> None:
        """SIGKILL: no atexit, no cleanup — a real crash."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10)
        self.log.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.log.close()


@pytest.fixture
def server(tmp_path):
    instance = Server(tmp_path, tmp_path / "data", pool=2)
    try:
        yield instance.client()
    finally:
        instance.stop()


def outcome_fingerprint(payload: dict) -> str:
    """A canonical, wall-clock-free digest of a result payload."""
    return json.dumps(payload["outcomes"], sort_keys=True)


class TestHTTPEndToEnd:
    def test_sim_and_sync_jobs_over_http(self, server):
        for spec in (SIM_SPEC, SYNC_SPEC):
            job = server.submit(spec, client="integration")
            assert job["created"] is True
            final = server.wait(job["id"], timeout=120)
            assert final["state"] == "done", final
            assert final["correct"] is True
            payload = server.result(job["id"])
            assert len(payload["outcomes"]) == 1
            assert payload["outcomes"][0]["correct_runs"] == \
                spec["repeats"]

    def test_sse_stream_narrates_the_lifecycle(self, server):
        job = server.submit(SIM_SPEC, client="sse")
        kinds = [entry["event"] for entry in server.stream(job["id"])]
        assert kinds[0] == "job_submitted"
        assert "job_started" in kinds
        assert kinds[-1] == "job_done"
        assert kinds.count("job_progress") == SIM_SPEC["repeats"]

    def test_concurrent_identical_clients_dedup_to_one_execution(
            self, server):
        spec = dict(SIM_SPEC, ell=48)  # fresh identity for this test
        clients = 20
        with ThreadPoolExecutor(max_workers=clients) as pool:
            jobs = list(pool.map(
                lambda index: server.submit(spec,
                                            client=f"c{index}"),
                range(clients)))
        ids = {job["id"] for job in jobs}
        assert len(ids) == 1  # everyone named the same job
        assert sum(job["created"] for job in jobs) == 1
        job_id = ids.pop()
        server.wait(job_id, timeout=120)
        results = [server.result(job_id) for _ in range(3)]
        assert len({outcome_fingerprint(payload)
                    for payload in results}) == 1
        stats = server.stats()["stats"]
        assert stats["dedup_hits"] == clients - 1
        # N identical submissions -> one engine execution.
        assert stats["tasks_executed"] == spec["repeats"]

    def test_validation_errors_are_client_errors(self, server):
        with pytest.raises(ServiceError) as excinfo:
            server.submit({"protocol": "no-such-protocol",
                           "n": 4, "ell": 8})
        assert excinfo.value.status == 400

    def test_dashboard_and_introspection_routes(self, server):
        import urllib.request
        job = server.submit(SIM_SPEC, client="dash")
        server.wait(job["id"], timeout=120)
        base = server.base_url
        page = urllib.request.urlopen(base + "/").read().decode()
        assert "repro serve" in page and "EventSource" in page
        flame = urllib.request.urlopen(
            f"{base}/api/jobs/{job['id']}/flame").read().decode()
        assert f"serve;{job['id']};" in flame
        timeline = urllib.request.urlopen(
            base + "/api/timeline").read().decode()
        assert job["id"] in timeline


class TestKillResume:
    def test_sigkill_mid_sweep_resumes_bit_identically(self, tmp_path):
        """The acceptance-criteria scenario: SIGKILL the server while a
        sweep is in flight, restart it on the same data dir, and the
        finished job's outcomes are byte-equal to an uninterrupted
        run's."""
        spec = dict(SIM_SPEC, repeats=200)

        # Reference: an uninterrupted server on its own data dir.
        reference_server = Server(tmp_path, tmp_path / "ref-data",
                                  pool=1, tag="ref")
        try:
            reference_client = reference_server.client()
            job = reference_client.submit(spec, client="ref")
            reference_client.wait(job["id"], timeout=300)
            reference = outcome_fingerprint(
                reference_client.result(job["id"]))
            job_id = job["id"]
        finally:
            reference_server.stop()

        # Victim: same job, SIGKILLed mid-run.
        victim = Server(tmp_path, tmp_path / "victim-data", pool=1,
                        tag="victim")
        client = victim.client()
        submitted = client.submit(spec, client="victim")
        assert submitted["id"] == job_id  # content-addressed identity
        deadline = time.monotonic() + 120
        while True:
            status = client.status(job_id)
            if status["done"] >= 5:
                break
            if status["state"] == "done":
                pytest.skip("job finished before the kill landed; "
                            "machine too fast for this repeat count")
            if time.monotonic() > deadline:
                raise TimeoutError("job never made progress")
            time.sleep(0.01)
        victim.kill()  # no flush, no goodbye
        progress_at_kill = status["done"]
        assert progress_at_kill < spec["repeats"]  # genuinely mid-sweep

        # Restart on the same data dir: recover() + journal replay.
        reborn = Server(tmp_path, tmp_path / "victim-data", pool=1,
                        tag="reborn")
        try:
            client = reborn.client()
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done" and final["correct"]
            resumed = outcome_fingerprint(client.result(job_id))
            events = list(client.stream(job_id))
            replays = [entry for entry in events
                       if entry["event"] == "job_started"]
            # The reborn server's own envelope shows the replay.
            assert replays and replays[-1]["replayed"] > 0
        finally:
            reborn.stop()

        assert resumed == reference


def test_the_cli_loads_neither_asyncio_nor_the_queue():
    # `repro list`, `submit` and `status` start in a fresh interpreter;
    # only `serve` needs the event loop and the scheduler.
    code = ("import sys, repro.service.cli; print(sorted("
            "{'asyncio', 'repro.service.queue'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert loaded.strip() == "[]"
