"""Longrun request tests: protocol admission, durable execution, and
resume across a server restart.

``longrun`` is the serve-side face of the checkpointed engine: a request
names a durable job directory (the job's content digest under the
server's ``--job-root``), so re-submitting the identical request to a
restarted server restores finished chunks instead of recomputing them —
the serve satellite of the kill-and-resume bit-identity guarantee.
"""

from types import SimpleNamespace

import pytest

from repro.engine import run_job
from repro.engine.jobs import MonteCarloErrorJob
from repro.obs.collector import Collector
from repro.serve import protocol, shards
from repro.serve.client import ServeClient, ServeError
from repro.serve.harness import ServerThread
from repro.serve.protocol import (
    MAX_SAMPLES_PER_LONGRUN,
    MAX_SAMPLES_PER_REQUEST,
    ProtocolError,
    affinity_key,
    identity_key,
    parse_request,
    request_to_job,
)
from repro.serve.server import ServeConfig

# Three default-size chunks: small enough for a test, big enough that
# chunk accounting is visible in the response.
SAMPLES = 3 * (1 << 16)

PARAMS = {"width": 16, "window": 4, "samples": SAMPLES}


def _request(samples=SAMPLES, seed=7):
    return parse_request(
        {"kind": "longrun", "params": dict(PARAMS, samples=samples), "seed": seed}
    )


# -- protocol admission ---------------------------------------------------


def test_longrun_admits_past_the_errors_cap():
    big = MAX_SAMPLES_PER_REQUEST * 4
    with pytest.raises(ProtocolError):
        parse_request({"kind": "errors", "params": dict(PARAMS, samples=big)})
    request = parse_request({"kind": "longrun", "params": dict(PARAMS, samples=big)})
    assert request.kind == "longrun"


def test_longrun_has_its_own_cap():
    with pytest.raises(ProtocolError):
        parse_request(
            {"kind": "longrun",
             "params": dict(PARAMS, samples=MAX_SAMPLES_PER_LONGRUN + 1)}
        )


def test_longrun_request_names_the_same_job_as_errors():
    job = request_to_job(_request())
    assert isinstance(job, MonteCarloErrorJob)
    assert (job.width, job.window, job.samples) == (16, 4, SAMPLES)


def test_longrun_and_errors_do_not_coalesce_together():
    longrun = _request()
    errors = parse_request({"kind": "errors", "params": PARAMS, "seed": 7})
    assert affinity_key(longrun) != affinity_key(errors)
    assert identity_key(longrun) != identity_key(errors)
    assert identity_key(longrun) == identity_key(_request())


# -- shard execution ------------------------------------------------------


def test_execute_longrun_requires_a_job_root():
    with pytest.raises(ValueError, match="job root"):
        shards.execute_entries("longrun", [], Collector(), job_root=None)


def test_execute_longrun_matches_one_shot_and_resumes(tmp_path):
    entry = SimpleNamespace(request=_request())
    reference = run_job(request_to_job(entry.request)).aggregate

    collector = Collector()
    rows = shards.execute_entries(
        "longrun", [entry], collector, job_root=str(tmp_path)
    )
    assert len(rows) == 1
    row = rows[0]
    assert row["samples"] == reference.samples
    assert row["scsa1_errors"] == reference.scsa1_errors
    assert row["checkpoint"]["partial"] is False
    assert row["checkpoint"]["done_chunks"] == row["checkpoint"]["total_chunks"] == 3
    assert row["checkpoint"]["resumed_chunks"] == 0
    assert collector.counters["longrun_chunks"] == 3

    # The identical request lands on the same durable directory: pure
    # restore, identical counts, identical state digest.
    again = shards.execute_entries(
        "longrun", [SimpleNamespace(request=_request())], collector,
        job_root=str(tmp_path),
    )[0]
    assert again["checkpoint"]["resumed_chunks"] == 3
    assert again["scsa1_errors"] == row["scsa1_errors"]
    assert again["checkpoint"]["state_digest"] == row["checkpoint"]["state_digest"]


# -- the server surface ---------------------------------------------------


def _uds(tmp_path) -> str:
    return str(tmp_path / "serve.sock")


def test_longrun_without_job_root_is_rejected(tmp_path):
    uds = _uds(tmp_path)
    with ServerThread(ServeConfig(uds=uds)):
        client = ServeClient(uds=uds)
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("longrun", PARAMS, seed=7)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "longrun-disabled"


def test_longrun_resumes_across_server_restart(tmp_path):
    """Satellite claim: a longrun's durable state outlives the server.

    The second server instance shares only the job-root directory with
    the first, yet answers the identical request by restoring every
    chunk the first instance computed — same counts, same state digest.
    """
    uds = _uds(tmp_path)
    job_root = str(tmp_path / "jobs")

    with ServerThread(ServeConfig(uds=uds, job_root=job_root)):
        first = ServeClient(uds=uds).evaluate("longrun", PARAMS, seed=7)
    assert first["result"]["checkpoint"]["partial"] is False
    assert first["result"]["checkpoint"]["resumed_chunks"] == 0

    with ServerThread(ServeConfig(uds=uds, job_root=job_root)):
        second = ServeClient(uds=uds).evaluate("longrun", PARAMS, seed=7)
    ckpt = second["result"]["checkpoint"]
    assert ckpt["resumed_chunks"] == ckpt["total_chunks"]  # pure restore
    assert second["result"]["scsa1_errors"] == first["result"]["scsa1_errors"]
    assert ckpt["state_digest"] == first["result"]["checkpoint"]["state_digest"]


def test_longrun_over_an_unusable_job_directory_is_a_well_formed_error(tmp_path):
    """A job directory whose header was lost still holds another run's
    records; the answer is a 409 naming the directory, not a 500."""
    uds = _uds(tmp_path)
    job_root = tmp_path / "jobs"
    with ServerThread(ServeConfig(uds=uds, job_root=str(job_root))):
        client = ServeClient(uds=uds)
        client.evaluate("longrun", PARAMS, seed=7)
        (header,) = job_root.glob("*/job.json")
        header.write_text("garbage\n")
        with pytest.raises(ServeError) as excinfo:
            client.evaluate("longrun", PARAMS, seed=7)
    assert excinfo.value.status == 409
    assert excinfo.value.code == "checkpoint-conflict"
    assert "job.json" in str(excinfo.value)
