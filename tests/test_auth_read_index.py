"""The authoritative server re-answers only the tracks a zone change can affect.

``MoqAuthoritativeServer`` indexes every subscribed track under the owner
names its last lookup read.  These tests pin the cost (one re-answer and one
``Zone.lookup`` for a one-name change) and the exactness: over random
mutation sequences the pushes equal those of an oracle that re-answers every
subscribed track on every change.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, question_to_track
from repro.dns.name import Name
from repro.dns.rdata import AAAARdata, ARdata, CNAMERdata, NSRdata, TXTRdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.moqt.messages import Subscribe
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


class _RecordingSession:
    """Stands in for the MoQT sessions of the server's subscribers.

    Every request ID is one downstream subscription; ``publish`` logs
    ``(track, group_id, payload)`` for each push.
    """

    closed = False

    def __init__(self) -> None:
        self.live: dict[int, DnsQuestionKey] = {}
        self.pushes: list[tuple[DnsQuestionKey, int, bytes]] = []

    def publisher_subscription(self, request_id: int) -> int | None:
        return request_id if request_id in self.live else None

    def publish(self, request_id: int, obj) -> None:
        self.pushes.append((self.live[request_id], obj.group_id, obj.payload))


class _Harness:
    """A server with recording subscribers, optionally with an oracle beside it."""

    def __init__(self, zones: list[Zone], with_oracle: bool = True) -> None:
        host = Network(Simulator(seed=1)).add_host("10.0.0.1")
        self.server = MoqAuthoritativeServer(host, zones)
        self.session = _RecordingSession()
        self.oracle = _RescanOracle(self.server, zones) if with_oracle else None
        self._next_request_id = 0

    def subscribe(self, key: DnsQuestionKey) -> None:
        request_id = self._next_request_id
        self._next_request_id += 1
        self.session.live[request_id] = key
        result = self.server.handle_subscribe(
            self.session,  # type: ignore[arg-type]
            Subscribe(request_id=request_id, full_track_name=question_to_track(key)),
        )
        assert result.ok
        if self.oracle is not None:
            self.oracle.subscribe(key, request_id)

    def unsubscribe_oldest(self, key: DnsQuestionKey) -> None:
        live = [rid for rid, track in self.session.live.items() if track == key]
        if live:
            del self.session.live[live[0]]
            self.oracle.unsubscribe(key, live[0])


class _RescanOracle:
    """Re-answers every subscribed track on every zone change.

    This is the server's behaviour without the read index: a track with a
    live subscriber is pushed whenever its answer's fingerprint changes, and
    a track that had none restarts from the answer its next subscriber got.
    """

    def __init__(self, server: MoqAuthoritativeServer, zones: list[Zone]) -> None:
        self._server = server
        self._tracks: dict[DnsQuestionKey, tuple[tuple[str, ...], list[int]]] = {}
        self.pushes: list[tuple[DnsQuestionKey, int, bytes]] = []
        for zone in zones:
            zone.subscribe_changes(self._on_change)

    def _answer(self, key: DnsQuestionKey):
        zone = self._server.zone_for(key.qname)
        response = self._server._result_to_message(key, zone.lookup(key.qname, key.qtype))
        return response, zone.serial

    def subscribe(self, key: DnsQuestionKey, request_id: int) -> None:
        fingerprint, live = self._tracks.get(key, ((), []))
        if not live:
            fingerprint = MoqAuthoritativeServer._fingerprint(self._answer(key)[0])
        self._tracks[key] = (fingerprint, live + [request_id])

    def unsubscribe(self, key: DnsQuestionKey, request_id: int) -> None:
        fingerprint, live = self._tracks[key]
        self._tracks[key] = (fingerprint, [rid for rid in live if rid != request_id])

    def _on_change(self, change) -> None:
        for key, (fingerprint, live) in list(self._tracks.items()):
            if not live:
                continue
            response, serial = self._answer(key)
            new_fingerprint = MoqAuthoritativeServer._fingerprint(response)
            if new_fingerprint == fingerprint:
                continue
            self._tracks[key] = (new_fingerprint, live)
            payload = encapsulate_response(response, serial).payload
            self.pushes.extend((key, serial, payload) for _ in live)


def _name(text: str) -> Name:
    return Name.from_text(text)


def _key(name: str, rdtype: RecordType = RecordType.A) -> DnsQuestionKey:
    return DnsQuestionKey(qname=_name(name), qtype=rdtype)


def _rrset(owner: str, rdtype: RecordType, rdata) -> RRset:
    return RRset(_name(owner), rdtype, [ResourceRecord(_name(owner), rdtype, rdata, 60)])


class TestReanswerCost:
    def _hundred_name_zone(self) -> tuple[_Harness, Zone]:
        zone = Zone("cdn.example.")
        for index in range(100):
            zone.add(f"n{index}.cdn.example.", "A", f"192.0.2.{index}", bump=False)
        harness = _Harness([zone], with_oracle=False)
        for index in range(100):
            harness.subscribe(_key(f"n{index}.cdn.example."))
        return harness, zone

    def test_one_name_change_reanswers_one_track_with_one_lookup(self, monkeypatch):
        harness, zone = self._hundred_name_zone()
        lookups = []
        original = Zone.lookup

        def counting_lookup(self, qname, qtype):
            lookups.append(qname)
            return original(self, qname, qtype)

        monkeypatch.setattr(Zone, "lookup", counting_lookup)
        zone.replace_rrset(_rrset("n42.cdn.example.", RecordType.A, ARdata("198.51.100.42")))
        statistics = harness.server.statistics
        assert statistics.tracks_reanswered == 1
        assert lookups == [_name("n42.cdn.example.")]
        assert statistics.updates_published == 1
        assert [(key, group) for key, group, _ in harness.session.pushes] == [
            (_key("n42.cdn.example."), zone.serial)
        ]

    def test_change_to_a_name_no_lookup_read_reanswers_nothing(self):
        harness, zone = self._hundred_name_zone()
        zone.add("unread.cdn.example.", "TXT", '"x"')
        assert harness.server.statistics.tracks_reanswered == 0
        assert harness.session.pushes == []

    def test_negative_answers_are_indexed_under_the_apex_and_the_name(self):
        zone = Zone("cdn.example.")
        harness = _Harness([zone], with_oracle=False)
        harness.subscribe(_key("missing.cdn.example."))
        zone.add("other.cdn.example.", "A", "192.0.2.1")
        assert harness.server.statistics.tracks_reanswered == 0
        zone.add("missing.cdn.example.", "TXT", '"now exists"')
        zone.add("cdn.example.", "TXT", '"apex"')
        assert harness.server.statistics.tracks_reanswered == 2
        # NXDOMAIN -> NODATA is pushed; the apex TXT leaves the answer as is.
        assert len(harness.session.pushes) == 1


# --------------------------------------------------------------- equivalence
PARENT = "example."
CHILD = "sub.example."
OWNERS = {
    PARENT: [
        "example.", "a.example.", "b.example.", "alias.example.", "ns.example.",
        "nx.example.", "*.example.", "w.example.", "*.w.example.", "x.w.example.",
        "deleg.example.", "sub.example.",
    ],
    CHILD: [
        "sub.example.", "a.sub.example.", "b.sub.example.", "c.sub.example.",
        "*.sub.example.", "any.sub.example.", "ns.sub.example.",
    ],
}
# Ancestors of subscribed names, so that delegations cut above a question.
DELEGATION_POINTS = {
    PARENT: ["deleg.example.", "w.example.", "a.example.", "sub.example."],
    CHILD: ["b.sub.example.", "c.sub.example."],
}
CNAME_TARGETS = [name for owners in OWNERS.values() for name in owners if "*" not in name] + [
    "out.org.",
]
QUESTIONS = [
    _key("a.example."),                         # NOERROR
    _key("a.example.", RecordType.AAAA),        # NODATA until an AAAA appears
    _key("b.example."),
    _key("alias.example."),                     # CNAME chain once aliased
    _key("alias.example.", RecordType.CNAME),
    _key("nx.example."),                        # NXDOMAIN
    _key("x.w.example."),                       # wildcard-synthesised
    _key("y.w.example.", RecordType.AAAA),
    _key("host.deleg.example."),                # referral once delegated
    _key("deleg.example.", RecordType.NS),
    _key("example.", RecordType.NS),            # apex
    _key("example.", RecordType.TXT),
    _key("a.sub.example."),                     # child zone
    _key("any.sub.example."),
    _key("c.sub.example."),
    _key("c.sub.example.", RecordType.AAAA),
    _key("deep.b.sub.example."),
    _key("sub.example.", RecordType.TXT),
]

# (kind, zone, owner pick, value pick); the picks index their pools modulo size.
_OPERATIONS = st.lists(
    st.tuples(
        st.integers(0, 8), st.sampled_from([PARENT, CHILD]), st.integers(0, 63),
        st.integers(0, 63),
    ),
    max_size=30,
)


def _zones() -> dict[str, Zone]:
    parent = Zone(PARENT)
    parent.add("a.example.", "A", "192.0.2.1", bump=False)
    parent.add("ns.example.", "A", "192.0.2.53", bump=False)
    parent.add("sub.example.", "NS", "ns.sub.example.", bump=False)
    child = Zone(CHILD)
    child.add("a.sub.example.", "A", "192.0.2.101", bump=False)
    return {PARENT: parent, CHILD: child}


def _apply(harness: _Harness, zones: dict[str, Zone], operation) -> None:
    kind, origin, pick, value = operation
    zone = zones[origin]
    owners = OWNERS[origin]
    owner = owners[pick % len(owners)]
    if kind == 0:
        zone.replace_rrset(_rrset(owner, RecordType.A, ARdata(f"192.0.2.{value}")))
    elif kind == 1:
        zone.replace_rrset(_rrset(owner, RecordType.AAAA, AAAARdata(f"2001:db8::{value}")))
    elif kind == 2:
        rdtype = (RecordType.A, RecordType.AAAA, RecordType.CNAME, RecordType.NS)[value % 4]
        zone.delete_rrset(_name(owner), rdtype)
    elif kind == 3:
        target = CNAME_TARGETS[value % len(CNAME_TARGETS)]
        zone.replace_rrset(_rrset(owner, RecordType.CNAME, CNAMERdata(_name(target))))
    elif kind == 4:
        # Delegation with glue: the NS set, then the glue address.
        points = DELEGATION_POINTS[origin]
        owner = points[pick % len(points)]
        server = ("ns.example.", "ns.sub.example.", "ns.other.org.")[value % 3]
        zone.replace_rrset(_rrset(owner, RecordType.NS, NSRdata(_name(server))))
        if _name(server).is_subdomain_of(zone.origin):
            zone.replace_rrset(_rrset(server, RecordType.A, ARdata(f"198.51.100.{value}")))
    elif kind == 5:
        wildcards = [name for name in owners if name.startswith("*")]
        wildcard = wildcards[value % len(wildcards)]
        if pick % 2:
            zone.replace_rrset(_rrset(wildcard, RecordType.A, ARdata(f"203.0.113.{value}")))
        else:
            zone.delete_rrset(_name(wildcard), RecordType.A)
    elif kind == 6:
        zone.replace_rrset(_rrset(origin, RecordType.TXT, TXTRdata((f"v{value}".encode(),))))
    elif kind == 7:
        harness.subscribe(QUESTIONS[pick % len(QUESTIONS)])
    elif kind == 8:
        harness.unsubscribe_oldest(QUESTIONS[pick % len(QUESTIONS)])


class TestReanswerEquivalence:
    @given(operations=_OPERATIONS, subscribed=st.integers(1, (1 << len(QUESTIONS)) - 1))
    @settings(max_examples=80, deadline=None)
    def test_pushes_equal_a_full_rescan(self, operations, subscribed):
        zones = _zones()
        harness = _Harness(list(zones.values()))
        for index, key in enumerate(QUESTIONS):
            if subscribed >> index & 1:
                harness.subscribe(key)
        for operation in operations:
            _apply(harness, zones, operation)
        assert harness.session.pushes == harness.oracle.pushes

    def test_oracle_sees_every_answer_kind(self):
        # The question pool reaches NOERROR, NODATA, NXDOMAIN, CNAME-chain and
        # referral answers, so the property test exercises all of them.
        zones = _zones()
        harness = _Harness(list(zones.values()))
        for operation in [(3, PARENT, 3, 0), (4, PARENT, 10, 0), (5, PARENT, 0, 1)]:
            _apply(harness, zones, operation)
        kinds = set()
        for key in QUESTIONS:
            response, _ = harness.server.answer_question(key)
            if response.authorities and response.authorities[0].rdtype == RecordType.NS:
                kinds.add("referral")
            elif response.answers and response.answers[0].rdtype == RecordType.CNAME:
                kinds.add("cname")
            else:
                rcode = response.rcode.name
                kinds.add(rcode if response.answers else f"{rcode}-empty")
        assert {"referral", "cname", "NOERROR", "NOERROR-empty", "NXDOMAIN-empty"} <= kinds
