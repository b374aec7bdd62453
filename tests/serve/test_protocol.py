"""Protocol layer: validation, scheduler keys, response rendering."""

import pytest

from repro._version import package_version
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    affinity_key,
    error_response,
    identity_key,
    ok_response,
    parse_request,
    request_to_job,
    server_block,
    shard_of,
)


def _errors_payload(**overrides):
    payload = {
        "kind": "errors",
        "params": {"width": 32, "window": 8, "samples": 1024},
        "seed": 7,
    }
    payload.update(overrides)
    return payload


class TestParseRequest:
    def test_round_trip(self):
        request = parse_request(_errors_payload(id="r1"))
        assert request.kind == "errors"
        assert request.seed == 7
        assert request.request_id == "r1"
        assert request.param_dict()["width"] == 32
        assert request.param_dict()["distribution"] == "uniform"

    def test_params_canonical_order(self):
        a = parse_request(_errors_payload())
        b = parse_request(
            {"kind": "errors", "seed": 7,
             "params": {"samples": 1024, "window": 8, "width": 32}}
        )
        assert a == b
        assert identity_key(a) == identity_key(b)

    def test_default_seed_is_fixed(self):
        payload = _errors_payload()
        del payload["seed"]
        assert parse_request(payload).seed == 2012

    @pytest.mark.parametrize(
        "mutate, code",
        [
            (lambda p: p.update(kind="quantum"), "bad-kind"),
            (lambda p: p.update(proto=99), "unsupported-proto"),
            (lambda p: p.update(params="nope"), "bad-param"),
            (lambda p: p["params"].update(width=1), "bad-param"),
            (lambda p: p["params"].update(window=64), "bad-param"),  # > width
            (lambda p: p["params"].update(samples=0), "bad-param"),
            (lambda p: p["params"].update(distribution="cauchy"), "bad-param"),
            (lambda p: p["params"].update(counters=["bogus"]), "bad-param"),
            (lambda p: p["params"].update(extra=1), "bad-param"),
            (lambda p: p.update(seed=-1), "bad-param"),
            (lambda p: p.update(id="x" * 200), "bad-param"),
        ],
    )
    def test_rejects_malformed(self, mutate, code):
        payload = _errors_payload()
        mutate(payload)
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(payload)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("kind", ["errors", "longrun"])
    @pytest.mark.parametrize(
        "params, message",
        [
            ({"width": 128, "window": 70}, "windows of 1..63"),
            ({"width": 32, "distribution": "gaussian"}, "does not fit 32-bit"),
            ({"width": 32, "distribution": "gaussian-unsigned"}, "does not fit 32-bit"),
        ],
    )
    def test_rejects_jobs_that_cannot_run(self, kind, params, message):
        """Checked by the job's own construction, before any shard runs it."""
        payload = {"kind": kind, "params": dict(params, samples=16)}
        with pytest.raises(ProtocolError, match=message) as excinfo:
            parse_request(payload)
        assert excinfo.value.code == "bad-param"

    def test_gaussian_with_headroom_is_accepted(self):
        request = parse_request(
            {"kind": "errors", "params": {"width": 36, "distribution": "gaussian",
                                          "samples": 16}}
        )
        assert request_to_job(request).distribution == "gaussian"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError):
            parse_request([1, 2, 3])

    def test_measure_defaults_window_from_solver(self):
        request = parse_request(
            {"kind": "measure", "params": {"architecture": "scsa1", "width": 64}}
        )
        from repro.analysis.sizing import scsa_window_size_for

        assert request.param_dict()["window"] == scsa_window_size_for(64, 1e-4)

    def test_measure_rejects_window_on_fixed_design(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {"kind": "measure",
                 "params": {"architecture": "kogge_stone", "width": 32,
                            "window": 4}}
            )

    def test_measure_accepts_every_buildable_design(self):
        request = parse_request(
            {"kind": "measure", "params": {"architecture": "brent_kung", "width": 32}}
        )
        assert request.param_dict() == {"architecture": "brent_kung", "width": 32}

    def test_measure_rejects_unknown_architecture(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {"kind": "measure", "params": {"architecture": "cla", "width": 32}}
            )


class TestSchedulerKeys:
    def test_identity_includes_seed_and_samples(self):
        base = parse_request(_errors_payload())
        other_seed = parse_request(_errors_payload(seed=8))
        other_budget = parse_request(
            _errors_payload(params={"width": 32, "window": 8, "samples": 2048})
        )
        assert identity_key(base) != identity_key(other_seed)
        assert identity_key(base) != identity_key(other_budget)

    def test_affinity_excludes_seed_and_samples(self):
        base = parse_request(_errors_payload())
        other_seed = parse_request(_errors_payload(seed=8))
        other_budget = parse_request(
            _errors_payload(params={"width": 32, "window": 8, "samples": 2048})
        )
        other_point = parse_request(
            _errors_payload(params={"width": 64, "window": 8, "samples": 1024})
        )
        assert affinity_key(base) == affinity_key(other_seed)
        assert affinity_key(base) == affinity_key(other_budget)
        assert affinity_key(base) != affinity_key(other_point)

    def test_shard_of_stable_and_in_range(self):
        request = parse_request(_errors_payload())
        shard = shard_of(request, 4)
        assert shard == shard_of(request, 4)  # sha256, not randomized hash()
        assert 0 <= shard < 4
        assert shard_of(request, 1) == 0


class TestResponses:
    def test_request_to_job_uses_request_seed(self):
        request = parse_request(_errors_payload(seed=41))
        job = request_to_job(request)
        assert job.seed == 41
        assert job.samples == 1024
        assert job.width == 32 and job.window == 8

    def test_request_to_job_rejects_measure(self):
        request = parse_request(
            {"kind": "measure", "params": {"architecture": "scsa1", "width": 32}}
        )
        with pytest.raises(ValueError):
            request_to_job(request)

    def test_ok_response_carries_provenance_and_version(self):
        request = parse_request(_errors_payload(id="q"))
        body = ok_response(request, {"x": 1}, server_block("9.9.9", shard=3))
        assert body["ok"] is True
        assert body["id"] == "q"
        assert body["server"]["version"] == "9.9.9"
        assert body["server"]["shard"] == 3
        assert body["provenance"]["seed"] == 7
        assert body["provenance"]["repro_version"] == package_version()

    def test_ok_response_resolves_git_revision_once(self, monkeypatch):
        from repro.obs import provenance

        calls = []
        real_run = provenance.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(provenance.subprocess, "run", counting_run)
        provenance.git_revision.cache_clear()
        request = parse_request(_errors_payload(id="q"))
        revisions = {
            ok_response(request, {"x": i}, server_block("9.9.9"))["provenance"]["git_rev"]
            for i in range(20)
        }
        assert len(calls) <= 1
        assert len(revisions) == 1

    def test_ok_response_reads_no_package_metadata(self, monkeypatch):
        import importlib.metadata

        expected = package_version()
        calls = []
        real_version = importlib.metadata.version

        def counting_version(name):
            calls.append(name)
            return real_version(name)

        monkeypatch.setattr(importlib.metadata, "version", counting_version)
        request = parse_request(_errors_payload(id="q"))
        versions = {
            ok_response(request, {"x": i}, server_block("9.9.9"))["provenance"]["repro_version"]
            for i in range(20)
        }
        assert calls == []
        assert versions == {expected}

    def test_error_response_shape(self):
        body = error_response("overloaded", "try later", "r9")
        assert body["ok"] is False
        assert body["proto"] == PROTOCOL_VERSION
        assert body["id"] == "r9"
        assert body["error"] == {"code": "overloaded", "message": "try later"}


class TestSimKind:
    def test_round_trip_and_defaults(self):
        request = parse_request(
            {"kind": "sim", "params": {"architecture": "vlcsa1", "width": 16}}
        )
        params = request.param_dict()
        assert params["vectors"] == 1024
        assert params["backend"] == "auto"

    def test_rejects_unknown_backend(self):
        for backend in ("gpu", "compiled"):
            with pytest.raises(ProtocolError) as err:
                parse_request(
                    {"kind": "sim",
                     "params": {"architecture": "vlcsa1", "width": 16,
                                "backend": backend}}
                )
            assert err.value.code == "bad-param"

    def test_rejects_window_on_fixed_design(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {"kind": "sim",
                 "params": {"architecture": "kogge_stone", "width": 16,
                            "window": 4}}
            )

    def test_rejects_oversized_vectors(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {"kind": "sim",
                 "params": {"architecture": "vlcsa1", "width": 16,
                            "vectors": 1 << 20}}
            )

    def test_affinity_excludes_vectors_seed_and_backend(self):
        base = {"architecture": "vlcsa1", "width": 16}
        one = parse_request(
            {"kind": "sim", "params": dict(base, vectors=64), "seed": 1}
        )
        two = parse_request(
            {"kind": "sim",
             "params": dict(base, vectors=512, backend="vectorized"),
             "seed": 2}
        )
        assert affinity_key(one) == affinity_key(two)
        assert identity_key(one) != identity_key(two)
