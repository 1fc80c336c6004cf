"""Wire-schema contract tests: round-trip identity, forward/backward
compatibility, and version negotiation — over *every* registered model."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.incremental import ClientArrival, ClientDeparture, \
    DemandChange
from repro.edr.messages import (
    MODEL_TYPES,
    WIRE_VERSION,
    ErrorResponse,
    EventRequest,
    EventResponse,
    HealthResponse,
    HeartbeatRequest,
    HeartbeatResponse,
    MembershipResponse,
    RegisterRequest,
    RegisterResponse,
    SolveRequest,
    SolveResponse,
    WireEvent,
    parse_message,
)
from repro.errors import VersionMismatchError, WireFormatError
from tests.oracles.wire import to_json_plain

#: One representative, fully-populated instance of every wire model.
EXAMPLES = {
    "solve_request": SolveRequest(
        demands=[40.0, 60.0], prices=[1.0, 8.0, 1.0],
        capacities=[100.0, 100.0, 100.0], alpha=1.0, beta=0.01, gamma=3.0,
        mask=[[True, True, False], [True, True, True]],
        algorithm="lddm", aggregate=True, clients=["a", "b"],
        options={"max_iter": 200}),
    "solve_response": SolveResponse(
        class_rows=[[10.0, 30.0, 0.0], [20.0, 20.0, 20.0]],
        class_demand=[40.0, 60.0], class_of=[0, 1, 1],
        client_demands=[40.0, 15.0, 45.0],
        objective=123.5, iterations=17, converged=True,
        loads=[30.0, 50.0, 20.0], class_duals=[-1.0, -2.0], method="lddm",
        solve_time_s=0.01, warm_started=False, n_classes=2,
        clients=["a", "b", "c"]),
    "event": WireEvent(kind="arrival", client="c", demand=5.0,
                       eligibility=[True, False, True]),
    "event_request": EventRequest(events=[
        WireEvent(kind="arrival", client="c", demand=5.0,
                  eligibility=[True, False, True]),
        WireEvent(kind="demand_change", client="a", demand=45.0),
        WireEvent(kind="departure", client="b"),
    ]),
    "event_response": EventResponse(
        applied=3, resolves=1, sweeps=4, objective=99.0,
        class_rows=[[5.0, 5.0, 0.0], [5.0, 15.0, 5.0], [0.0, 0.0, 0.0]],
        class_demand=[10.0, 25.0, 0.0], class_of=[1, 0],
        client_demands=[25.0, 10.0],
        loads=[10.0, 20.0, 5.0], clients=["a", "c"],
        fallback_reasons={"drift": 1}),
    "membership_response": MembershipResponse(
        replicas=["r0", "r1"], live=["r0"],
        heartbeat_age_s={"r0": 0.01, "r1": 1.5},
        hb_interval=0.05, hb_timeout=0.25),
    "register_request": RegisterRequest(agent="r0", capacity_mbps=100.0),
    "register_response": RegisterResponse(
        agent="r0", hb_interval=0.05, hb_timeout=0.25,
        replicas=["r0", "r1"]),
    "heartbeat_request": HeartbeatRequest(agent="r0", seq=7),
    "heartbeat_response": HeartbeatResponse(agent="r0", known=True),
    "health_response": HealthResponse(ok=True, version="1.0.0",
                                      wire_version=WIRE_VERSION),
    "error_response": ErrorResponse(error="ValidationError",
                                    detail="bad demand", status=400),
}


#: EXAMPLES' numpy-valued twins: arrays, numpy scalars and nested models
#: holding them, as a plane or a caller builds them in process.
NUMPY_EXAMPLES = {
    "solve_request": SolveRequest(
        demands=np.array([40.0, 60.0]), prices=np.array([1.0, 8.0, 1.0]),
        capacities=np.full(3, 100.0), alpha=np.float64(1.0),
        beta=np.array([0.01, 0.02, 0.03]), gamma=np.int64(3),
        mask=np.array([[True, True, False], [True, True, True]]),
        clients=np.array(["a", "b"]), options={"max_iter": np.int64(200),
                                               "tol": np.float32(0.5)}),
    "solve_response": SolveResponse(
        class_rows=np.array([[10.0, 30.0, 0.0], [20.0, 20.0, 20.0]]),
        class_demand=np.array([40.0, 60.0]), class_of=np.array([0, 1, 1]),
        client_demands=np.array([40.0, 15.0, 45.0]),
        objective=np.float64(123.5), iterations=np.int64(17),
        converged=np.bool_(True), loads=np.array([30.0, 50.0, 20.0]),
        class_duals=np.array([-1.0, -2.0]), n_classes=np.int32(2),
        clients=["a", "b", "c"]),
    "event_request": EventRequest(events=[
        WireEvent(kind="arrival", client="c", demand=np.float64(5.0),
                  eligibility=np.array([True, False, True])),
        WireEvent(kind="demand_change", client="a",
                  demand=np.float32(45.25)),
    ]),
    "event_response": EventResponse(
        applied=np.int64(3), resolves=0, sweeps=np.int64(4),
        objective=np.float64(1.0) / 3.0,
        class_rows=np.array([[5.0, 5.0, 0.0], [5.0, 15.0, 5.0]]),
        class_demand=np.array([10.0, 25.0]), class_of=np.array([1, 0]),
        client_demands=np.array([25.0, 10.0]),
        loads=np.array([10.0, 20.0, 5.0]), clients=["a", "c"],
        fallback_reasons={"drift": np.int64(1)}),
    "membership_response": MembershipResponse(
        replicas=["r0"], live=[], heartbeat_age_s={"r0": np.float64(0.1)},
        hb_interval=np.float64(0.05)),
    "health_response": HealthResponse(ok=np.bool_(True),
                                      wire_version=np.int64(WIRE_VERSION)),
}


def test_every_registered_model_has_an_example():
    assert set(EXAMPLES) == set(MODEL_TYPES)


@pytest.mark.parametrize("tag", sorted(MODEL_TYPES))
class TestRoundTrip:
    def test_json_round_trip_is_identity(self, tag):
        model = EXAMPLES[tag]
        cls = MODEL_TYPES[tag]
        assert cls.from_json(model.to_json()) == model

    def test_envelope_declares_version_and_type(self, tag):
        payload = json.loads(EXAMPLES[tag].to_json())
        assert payload["v"] == WIRE_VERSION
        assert payload["type"] == tag

    def test_unknown_fields_are_tolerated(self, tag):
        payload = EXAMPLES[tag].to_dict()
        payload["some_future_field"] = {"nested": [1, 2, 3]}
        assert MODEL_TYPES[tag].from_dict(payload) == EXAMPLES[tag]

    def test_newer_version_is_rejected(self, tag):
        payload = EXAMPLES[tag].to_dict()
        payload["v"] = WIRE_VERSION + 1
        with pytest.raises(VersionMismatchError) as exc:
            MODEL_TYPES[tag].from_dict(payload)
        assert exc.value.got == WIRE_VERSION + 1
        assert exc.value.expected == WIRE_VERSION

    @pytest.mark.parametrize("bad", [None, "1", 0, -3, 1.0, True])
    def test_missing_or_malformed_version_is_rejected(self, tag, bad):
        payload = EXAMPLES[tag].to_dict()
        if bad is None:
            del payload["v"]
        else:
            payload["v"] = bad
        with pytest.raises(VersionMismatchError):
            MODEL_TYPES[tag].from_dict(payload)

    def test_parse_message_dispatches_by_tag(self, tag):
        parsed = parse_message(EXAMPLES[tag].to_json())
        assert type(parsed) is MODEL_TYPES[tag]
        assert parsed == EXAMPLES[tag]


class TestOneEncoder:
    """``to_json`` is one ``json.dumps`` with a ``default=`` hook; its text
    is byte-identical to the per-element ``_plain`` walk it replaced."""

    @pytest.mark.parametrize("tag", sorted(MODEL_TYPES))
    def test_examples_encode_byte_identically(self, tag):
        assert EXAMPLES[tag].to_json() == to_json_plain(EXAMPLES[tag])

    @pytest.mark.parametrize("tag", sorted(NUMPY_EXAMPLES))
    def test_numpy_values_encode_byte_identically(self, tag):
        model = NUMPY_EXAMPLES[tag]
        assert model.to_json() == to_json_plain(model)

    @pytest.mark.parametrize("tag", sorted(NUMPY_EXAMPLES))
    def test_to_dict_is_plain(self, tag):
        payload = NUMPY_EXAMPLES[tag].to_dict()
        assert payload == json.loads(to_json_plain(NUMPY_EXAMPLES[tag]))

        def plain_types(value):
            if isinstance(value, dict):
                return all(type(k) is str and plain_types(v)
                           for k, v in value.items())
            if isinstance(value, list):
                return all(plain_types(v) for v in value)
            return value is None or type(value) in (bool, int, float, str)

        assert plain_types(payload)

    @pytest.mark.parametrize("value", [{1, 2}, object(), b"raw"])
    def test_unencodable_value_is_rejected(self, value):
        with pytest.raises(WireFormatError, match="solve_request"):
            SolveRequest(demands=[1.0], prices=[1.0],
                         options={"x": value}).to_json()


class TestClassSpaceResponses:
    """Solve and event responses carry K class rows and a client -> class
    index; ``allocation`` / ``duals`` are derived, never sent."""

    def test_allocation_and_duals_are_derived(self):
        resp = EXAMPLES["solve_response"]
        # class 1 (demand 60) split 15 : 45 between clients b and c
        assert resp.allocation == [[10.0, 30.0, 0.0], [5.0, 5.0, 5.0],
                                   [15.0, 15.0, 15.0]]
        assert resp.duals == [-1.0, -2.0, -2.0]
        payload = json.loads(resp.to_json())
        assert "allocation" not in payload and "duals" not in payload

    def test_zero_demand_class_members_get_zero_rows(self):
        resp = EventResponse(
            applied=0, resolves=0, sweeps=0, objective=0.0,
            class_rows=[[1.0, 2.0], [0.0, 0.0]], class_demand=[3.0, 0.0],
            class_of=[1, 0, 1], client_demands=[0.0, 3.0, 0.0],
            clients=["a", "b", "c"])
        assert resp.allocation == [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]

    def test_empty_registry_expands_to_no_rows(self):
        resp = EventResponse(
            applied=1, resolves=0, sweeps=0, objective=0.0,
            class_rows=[[0.0, 0.0]], class_demand=[0.0], class_of=[],
            client_demands=[], clients=[])
        assert resp.allocation == []
        assert EventResponse.from_json(resp.to_json()) == resp

    @pytest.mark.parametrize("tag", ["solve_response", "event_response"])
    def test_decoded_allocation_is_bit_exact(self, tag):
        rng = np.random.default_rng(11)
        sent = dataclasses.replace(
            EXAMPLES[tag], class_rows=(rng.random((2, 3)) * 7).tolist(),
            class_demand=(rng.random(2) * 3).tolist())
        back = MODEL_TYPES[tag].from_json(sent.to_json())
        assert back == sent
        assert back.allocation == sent.allocation

    #: Each tag's response as wire version 1 sent it: the C x N matrix.
    V1_PAYLOADS = {
        "solve_response": {
            "v": 1, "type": "solve_response",
            "allocation": [[10.0, 30.0], [20.0, 20.0]], "objective": 1.0,
            "iterations": 3, "converged": True, "loads": [30.0, 50.0],
            "duals": [-1.0, -2.0], "clients": ["a", "b"]},
        "event_response": {
            "v": 1, "type": "event_response", "applied": 0, "resolves": 0,
            "sweeps": 0, "objective": 1.0, "loads": [30.0, 50.0],
            "clients": ["a", "b"], "allocation": [[10.0, 30.0], [20.0, 20.0]],
            "fallback_reasons": {}},
    }

    @pytest.mark.parametrize("tag", sorted(V1_PAYLOADS))
    def test_v1_response_payload_is_rejected(self, tag):
        with pytest.raises(VersionMismatchError) as exc:
            MODEL_TYPES[tag].from_dict(dict(self.V1_PAYLOADS[tag]))
        assert exc.value.got == 1
        with pytest.raises(VersionMismatchError):
            parse_message(json.dumps(self.V1_PAYLOADS[tag]))

    @pytest.mark.parametrize("tag", sorted(V1_PAYLOADS))
    def test_client_space_payload_at_v2_is_rejected(self, tag):
        payload = dict(self.V1_PAYLOADS[tag], v=WIRE_VERSION)
        with pytest.raises(WireFormatError, match="missing required"):
            MODEL_TYPES[tag].from_dict(payload)

    @pytest.mark.parametrize("tag", ["solve_response", "event_response"])
    @pytest.mark.parametrize("bad, fragment", [
        ({"class_of": [0, 2]}, "class_of entries"),
        ({"class_of": [-1, 0]}, "class_of entries"),
        ({"class_of": [0.0, 1.0]}, "class_of entries"),
        ({"class_of": [True, False]}, "class_of entries"),
        ({"client_demands": [1.0]}, "one entry per client"),
        ({"class_demand": [1.0]}, "one row per class_demand"),
        ({"class_rows": [[1.0, 2.0], [3.0]]}, None),
        ({"clients": ["a"]}, "clients must name"),
    ], ids=["index-past-K", "negative-index", "float-index", "bool-index",
            "short-demands", "short-class-demand", "ragged-rows",
            "short-clients"])
    def test_malformed_class_space_is_rejected(self, tag, bad, fragment):
        payload = EXAMPLES[tag].to_dict()
        payload.update(class_rows=[[1.0, 2.0], [3.0, 4.0]],
                       class_demand=[3.0, 7.0], class_of=[0, 1],
                       client_demands=[3.0, 7.0], clients=["a", "b"])
        if tag == "solve_response":
            payload["class_duals"] = [-1.0, -2.0]
        payload.update(bad)
        with pytest.raises(WireFormatError, match=fragment):
            MODEL_TYPES[tag].from_dict(payload)

    def test_class_duals_need_one_entry_per_class(self):
        payload = EXAMPLES["solve_response"].to_dict()
        payload["class_duals"] = [-1.0, -2.0, -3.0]
        with pytest.raises(WireFormatError, match="class_duals"):
            SolveResponse.from_dict(payload)


class TestValidation:
    def test_missing_required_field_is_rejected(self):
        payload = EXAMPLES["solve_request"].to_dict()
        del payload["demands"]
        with pytest.raises(WireFormatError, match="demands"):
            SolveRequest.from_dict(payload)

    def test_wrong_type_tag_is_rejected(self):
        payload = EXAMPLES["solve_request"].to_dict()
        payload["type"] = "heartbeat_request"
        with pytest.raises(WireFormatError, match="expected"):
            SolveRequest.from_dict(payload)

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(WireFormatError):
            SolveRequest.from_dict([1, 2, 3])

    def test_invalid_json_is_rejected(self):
        with pytest.raises(WireFormatError, match="JSON"):
            SolveRequest.from_json("{not json")

    def test_unknown_message_type_is_rejected(self):
        with pytest.raises(WireFormatError, match="unknown"):
            parse_message(json.dumps({"v": 1, "type": "no_such_model"}))

    def test_numpy_values_encode_to_plain_json(self):
        req = SolveRequest(demands=np.array([40.0, 60.0]),
                           prices=np.array([1.0, 8.0]))
        payload = json.loads(req.to_json())
        assert payload["demands"] == [40.0, 60.0]

    def test_converters_coerce_incoming_values(self):
        payload = {"v": 1, "type": "solve_request",
                   "demands": [40, 60], "prices": [1, 8],
                   "mask": [[1, 0], [1, 1]]}
        req = SolveRequest.from_dict(payload)
        assert req.demands == [40.0, 60.0]
        assert req.mask == [[True, False], [True, True]]


class TestWireEventBridge:
    """WireEvent <-> repro.core.incremental event dataclasses."""

    def test_arrival_round_trips_through_core(self):
        wire = WireEvent(kind="arrival", client="c", demand=5.0,
                         eligibility=[True, False, True])
        core = wire.to_core()
        assert isinstance(core, ClientArrival)
        assert core.demand == 5.0
        assert WireEvent.from_core(core) == wire

    def test_departure_round_trips_through_core(self):
        core = ClientDeparture(client="x")
        wire = WireEvent.from_core(core)
        assert wire.kind == "departure"
        assert isinstance(wire.to_core(), ClientDeparture)

    def test_demand_change_round_trips_through_core(self):
        core = DemandChange(client="x", demand=12.5)
        wire = WireEvent.from_core(core)
        assert wire.to_core() == core

    def test_arrival_without_eligibility_is_rejected(self):
        with pytest.raises(WireFormatError):
            WireEvent(kind="arrival", client="c", demand=5.0).to_core()

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(WireFormatError):
            WireEvent(kind="teleport", client="c").to_core()

    def test_float_values_survive_json_bit_exactly(self):
        demand = 1.0 / 3.0 + 1e-16
        wire = WireEvent(kind="demand_change", client="c", demand=demand)
        back = WireEvent.from_json(wire.to_json())
        assert back.demand == demand
