"""Tests for the canonical request fingerprint."""

import pytest

from repro.api import (
    AnonymizationRequest,
    FINGERPRINT_VERSION,
    GridRequest,
    request_fingerprint,
)
from repro.errors import ConfigurationError

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0)


class TestRequestFingerprint:
    def test_is_hex_sha256(self):
        fingerprint = request_fingerprint(BASE)
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # raises if not hex

    def test_identical_requests_fingerprint_identically(self):
        assert request_fingerprint(BASE) == request_fingerprint(
            AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0))

    def test_construction_order_is_irrelevant(self):
        # from_dict goes through the same dataclass, but the JSON key order
        # of the payload must not matter either.
        payload = BASE.to_dict()
        reordered = dict(reversed(list(payload.items())))
        assert request_fingerprint(AnonymizationRequest.from_dict(reordered)) \
            == request_fingerprint(BASE)

    def test_request_id_is_a_label_not_a_parameter(self):
        labelled = BASE.with_overrides(request_id="my-label")
        assert request_fingerprint(labelled) == request_fingerprint(BASE)

    def test_semantic_fields_change_the_fingerprint(self):
        assert request_fingerprint(BASE.with_overrides(theta=0.7)) \
            != request_fingerprint(BASE)
        assert request_fingerprint(BASE.with_overrides(algorithm="rem-ins")) \
            != request_fingerprint(BASE)
        assert request_fingerprint(BASE.with_overrides(seed=1)) \
            != request_fingerprint(BASE)

    def test_kind_is_part_of_the_hash(self):
        grid = GridRequest(requests=(BASE,))

        class Twin:
            """Another record type with the grid's exact payload."""

            def to_dict(self):
                return grid.to_dict()

        assert request_fingerprint(Twin()) != request_fingerprint(grid)
        assert request_fingerprint(grid) != request_fingerprint(BASE)

    def test_nested_request_ids_are_stripped(self):
        plain = GridRequest(requests=(BASE,))
        labelled = GridRequest(
            requests=(BASE.with_overrides(request_id="r0"),))
        assert request_fingerprint(plain) == request_fingerprint(labelled)

    def test_grid_on_error_is_semantic(self):
        isolate = GridRequest(requests=(BASE,), on_error="isolate")
        fail_fast = GridRequest(requests=(BASE,), on_error="fail_fast")
        assert request_fingerprint(isolate) != request_fingerprint(fail_fast)

    def test_edge_sourced_requests_normalize(self):
        one = AnonymizationRequest(edges=((0, 1), (1, 2)))
        two = AnonymizationRequest(edges=((2, 1), (1, 0)))
        assert request_fingerprint(one) == request_fingerprint(two)

    def test_version_is_stamped(self):
        assert isinstance(FINGERPRINT_VERSION, int)

    def test_golden_fingerprint_is_pinned(self):
        # Any change to the hashed input (a field added to or dropped from
        # to_dict(), a changed canonicalization) moves this value; so must
        # FINGERPRINT_VERSION, or stored results dedup against the wrong
        # requests.  Bump it, then re-pin the new value here.
        request = AnonymizationRequest(dataset="gnutella", sample_size=30)
        assert request_fingerprint(request) == (
            "2e8163c7a9af9510ccf792b40874a7743075a21a09cca192a42aeae9bbf5d0dc"
        ), (f"the fingerprint input changed (version {FINGERPRINT_VERSION}): "
            "bump FINGERPRINT_VERSION and re-pin this value")

    def test_unfingerprintable_object_raises(self):
        with pytest.raises(ConfigurationError, match="to_dict"):
            request_fingerprint(object())
