"""MoQT control messages and their wire codec.

All control messages are exchanged on the single bidirectional control
stream.  Each message is encoded as a varint message type followed by a
16-bit payload length and the payload (draft-12 §6).  The subset implemented
here covers everything the DNS mapping needs: session setup, subscriptions,
standalone and joining fetches, unsubscription, announcements and GOAWAY.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.moqt.errors import ProtocolViolation
from repro.moqt.parameters import Parameters
from repro.moqt.track import FullTrackName, TrackNamespace
from repro.quic.varint import VarintReader, VarintWriter

#: The MoQT draft version this implementation models (draft-12).
MOQT_VERSION_DRAFT_12 = 0xFF00000C
SUPPORTED_VERSIONS = (MOQT_VERSION_DRAFT_12,)


class MessageType(enum.IntEnum):
    """Control message type identifiers."""

    SUBSCRIBE_UPDATE = 0x02
    SUBSCRIBE = 0x03
    SUBSCRIBE_OK = 0x04
    SUBSCRIBE_ERROR = 0x05
    ANNOUNCE = 0x06
    ANNOUNCE_OK = 0x07
    ANNOUNCE_ERROR = 0x08
    UNANNOUNCE = 0x09
    UNSUBSCRIBE = 0x0A
    SUBSCRIBE_DONE = 0x0B
    MAX_REQUEST_ID = 0x15
    FETCH = 0x16
    FETCH_CANCEL = 0x17
    FETCH_OK = 0x18
    FETCH_ERROR = 0x19
    GOAWAY = 0x10
    CLIENT_SETUP = 0x40
    SERVER_SETUP = 0x41


class FilterType(enum.IntEnum):
    """SUBSCRIBE filter types (draft-12 §6.4)."""

    NEXT_GROUP_START = 0x1
    LATEST_OBJECT = 0x2
    ABSOLUTE_START = 0x3
    ABSOLUTE_RANGE = 0x4


class GroupOrder(enum.IntEnum):
    """Group delivery order preference."""

    PUBLISHER_DEFAULT = 0x0
    ASCENDING = 0x1
    DESCENDING = 0x2


class FetchType(enum.IntEnum):
    """FETCH flavours (draft-12 §6.9): standalone or joining."""

    STANDALONE = 0x1
    RELATIVE_JOINING = 0x2
    ABSOLUTE_JOINING = 0x3


@dataclass(frozen=True)
class ControlMessage:
    """Base class for all control messages."""

    TYPE: ClassVar[MessageType] = MessageType.GOAWAY

    def encode_payload(self) -> bytes:
        """Serialise the message payload (without type and length)."""
        raise NotImplementedError

    def encode(self) -> bytes:
        """Serialise the full message: type, 16-bit length, payload."""
        payload = self.encode_payload()
        if len(payload) > 0xFFFF:
            raise ProtocolViolation(f"control message too large: {len(payload)}")
        writer = VarintWriter()
        writer.write_varint(int(self.TYPE))
        writer.write_uint16(len(payload))
        writer.write_bytes(payload)
        return writer.getvalue()


@dataclass(frozen=True)
class ClientSetup(ControlMessage):
    """CLIENT_SETUP: offered versions plus setup parameters."""

    supported_versions: tuple[int, ...] = SUPPORTED_VERSIONS
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.CLIENT_SETUP

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(len(self.supported_versions))
        for version in self.supported_versions:
            writer.write_varint(version)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "ClientSetup":
        count = reader.read_varint()
        versions = tuple(reader.read_varint() for _ in range(count))
        return cls(versions, Parameters.from_reader(reader))


@dataclass(frozen=True)
class ServerSetup(ControlMessage):
    """SERVER_SETUP: the selected version plus setup parameters."""

    selected_version: int = MOQT_VERSION_DRAFT_12
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SERVER_SETUP

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.selected_version)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "ServerSetup":
        version = reader.read_varint()
        return cls(version, Parameters.from_reader(reader))


@dataclass(frozen=True)
class Subscribe(ControlMessage):
    """SUBSCRIBE: request future objects of a track."""

    request_id: int = 0
    track_alias: int = 0
    full_track_name: FullTrackName = None  # type: ignore[assignment]
    subscriber_priority: int = 128
    group_order: GroupOrder = GroupOrder.PUBLISHER_DEFAULT
    forward: bool = True
    filter_type: FilterType = FilterType.LATEST_OBJECT
    start_group: int = 0
    start_object: int = 0
    end_group: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SUBSCRIBE

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_varint(self.track_alias)
        writer.write_bytes(self.full_track_name.to_wire())
        writer.write_uint8(self.subscriber_priority)
        writer.write_uint8(int(self.group_order))
        writer.write_uint8(1 if self.forward else 0)
        writer.write_varint(int(self.filter_type))
        if self.filter_type in (FilterType.ABSOLUTE_START, FilterType.ABSOLUTE_RANGE):
            writer.write_varint(self.start_group)
            writer.write_varint(self.start_object)
        if self.filter_type == FilterType.ABSOLUTE_RANGE:
            writer.write_varint(self.end_group)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Subscribe":
        request_id = reader.read_varint()
        track_alias = reader.read_varint()
        full_track_name = FullTrackName.from_reader(reader)
        priority = reader.read_uint8()
        group_order = GroupOrder(reader.read_uint8())
        forward = reader.read_uint8() == 1
        filter_type = FilterType(reader.read_varint())
        start_group = start_object = end_group = 0
        if filter_type in (FilterType.ABSOLUTE_START, FilterType.ABSOLUTE_RANGE):
            start_group = reader.read_varint()
            start_object = reader.read_varint()
        if filter_type == FilterType.ABSOLUTE_RANGE:
            end_group = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(
            request_id,
            track_alias,
            full_track_name,
            priority,
            group_order,
            forward,
            filter_type,
            start_group,
            start_object,
            end_group,
            parameters,
        )


@dataclass(frozen=True)
class SubscribeOk(ControlMessage):
    """SUBSCRIBE_OK: the publisher accepted the subscription."""

    request_id: int = 0
    expires_ms: int = 0
    group_order: GroupOrder = GroupOrder.ASCENDING
    content_exists: bool = False
    largest_group_id: int = 0
    largest_object_id: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.SUBSCRIBE_OK

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_varint(self.expires_ms)
        writer.write_uint8(int(self.group_order))
        writer.write_uint8(1 if self.content_exists else 0)
        if self.content_exists:
            writer.write_varint(self.largest_group_id)
            writer.write_varint(self.largest_object_id)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeOk":
        request_id = reader.read_varint()
        expires = reader.read_varint()
        group_order = GroupOrder(reader.read_uint8())
        content_exists = reader.read_uint8() == 1
        largest_group = largest_object = 0
        if content_exists:
            largest_group = reader.read_varint()
            largest_object = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(request_id, expires, group_order, content_exists, largest_group, largest_object, parameters)


@dataclass(frozen=True)
class SubscribeError(ControlMessage):
    """SUBSCRIBE_ERROR: the publisher declined the subscription.

    ``retry_after_ms`` is an admission-control hint: how many milliseconds
    the subscriber should wait before retrying (0 means no hint).  It is
    encoded as an optional trailing varint — written only when non-zero, so
    every message emitted before admission control existed keeps its exact
    wire bytes, and decoders accept both the four-field and five-field
    encodings.
    """

    request_id: int = 0
    error_code: int = 0
    reason: str = ""
    track_alias: int = 0
    retry_after_ms: int = 0

    TYPE = MessageType.SUBSCRIBE_ERROR

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_varint(self.error_code)
        writer.write_length_prefixed(self.reason.encode("utf-8"))
        writer.write_varint(self.track_alias)
        if self.retry_after_ms:
            writer.write_varint(self.retry_after_ms)
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeError":
        request_id = reader.read_varint()
        error_code = reader.read_varint()
        reason = reader.read_length_prefixed().decode("utf-8")
        track_alias = reader.read_varint()
        retry_after_ms = 0 if reader.at_end() else reader.read_varint()
        return cls(request_id, error_code, reason, track_alias, retry_after_ms)


@dataclass(frozen=True)
class Unsubscribe(ControlMessage):
    """UNSUBSCRIBE: the subscriber no longer wants the track."""

    request_id: int = 0

    TYPE = MessageType.UNSUBSCRIBE

    def encode_payload(self) -> bytes:
        return VarintWriter().write_varint(self.request_id).getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Unsubscribe":
        return cls(reader.read_varint())


@dataclass(frozen=True)
class SubscribeDone(ControlMessage):
    """SUBSCRIBE_DONE: the publisher finished (or aborted) a subscription."""

    request_id: int = 0
    status_code: int = 0
    stream_count: int = 0
    reason: str = ""

    TYPE = MessageType.SUBSCRIBE_DONE

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_varint(self.status_code)
        writer.write_varint(self.stream_count)
        writer.write_length_prefixed(self.reason.encode("utf-8"))
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "SubscribeDone":
        return cls(
            reader.read_varint(),
            reader.read_varint(),
            reader.read_varint(),
            reader.read_length_prefixed().decode("utf-8"),
        )


@dataclass(frozen=True)
class Fetch(ControlMessage):
    """FETCH: request already-published objects.

    A *standalone* fetch names the track and an absolute start/end range.  A
    *joining* fetch references an existing subscription by request ID and asks
    for objects starting a number of groups before that subscription's start
    — the paper's lookup operation uses a relative joining fetch with offset 1
    to retrieve the current record version (§4.1).
    """

    request_id: int = 0
    subscriber_priority: int = 128
    group_order: GroupOrder = GroupOrder.ASCENDING
    fetch_type: FetchType = FetchType.STANDALONE
    full_track_name: FullTrackName | None = None
    start_group: int = 0
    start_object: int = 0
    end_group: int = 0
    end_object: int = 0
    joining_request_id: int = 0
    joining_start: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.FETCH

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_uint8(self.subscriber_priority)
        writer.write_uint8(int(self.group_order))
        writer.write_varint(int(self.fetch_type))
        if self.fetch_type == FetchType.STANDALONE:
            if self.full_track_name is None:
                raise ProtocolViolation("standalone FETCH requires a track name")
            writer.write_bytes(self.full_track_name.to_wire())
            writer.write_varint(self.start_group)
            writer.write_varint(self.start_object)
            writer.write_varint(self.end_group)
            writer.write_varint(self.end_object)
        else:
            writer.write_varint(self.joining_request_id)
            writer.write_varint(self.joining_start)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Fetch":
        request_id = reader.read_varint()
        priority = reader.read_uint8()
        group_order = GroupOrder(reader.read_uint8())
        fetch_type = FetchType(reader.read_varint())
        full_track_name = None
        start_group = start_object = end_group = end_object = 0
        joining_request_id = joining_start = 0
        if fetch_type == FetchType.STANDALONE:
            full_track_name = FullTrackName.from_reader(reader)
            start_group = reader.read_varint()
            start_object = reader.read_varint()
            end_group = reader.read_varint()
            end_object = reader.read_varint()
        else:
            joining_request_id = reader.read_varint()
            joining_start = reader.read_varint()
        parameters = Parameters.from_reader(reader)
        return cls(
            request_id,
            priority,
            group_order,
            fetch_type,
            full_track_name,
            start_group,
            start_object,
            end_group,
            end_object,
            joining_request_id,
            joining_start,
            parameters,
        )


@dataclass(frozen=True)
class FetchOk(ControlMessage):
    """FETCH_OK: the publisher will deliver the fetched objects."""

    request_id: int = 0
    group_order: GroupOrder = GroupOrder.ASCENDING
    end_of_track: bool = False
    largest_group_id: int = 0
    largest_object_id: int = 0
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.FETCH_OK

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_uint8(int(self.group_order))
        writer.write_uint8(1 if self.end_of_track else 0)
        writer.write_varint(self.largest_group_id)
        writer.write_varint(self.largest_object_id)
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchOk":
        return cls(
            reader.read_varint(),
            GroupOrder(reader.read_uint8()),
            reader.read_uint8() == 1,
            reader.read_varint(),
            reader.read_varint(),
            Parameters.from_reader(reader),
        )


@dataclass(frozen=True)
class FetchError(ControlMessage):
    """FETCH_ERROR: the fetch cannot be served."""

    request_id: int = 0
    error_code: int = 0
    reason: str = ""

    TYPE = MessageType.FETCH_ERROR

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_varint(self.error_code)
        writer.write_length_prefixed(self.reason.encode("utf-8"))
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchError":
        return cls(
            reader.read_varint(),
            reader.read_varint(),
            reader.read_length_prefixed().decode("utf-8"),
        )


@dataclass(frozen=True)
class FetchCancel(ControlMessage):
    """FETCH_CANCEL: the subscriber no longer wants the fetched objects."""

    request_id: int = 0

    TYPE = MessageType.FETCH_CANCEL

    def encode_payload(self) -> bytes:
        return VarintWriter().write_varint(self.request_id).getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "FetchCancel":
        return cls(reader.read_varint())


@dataclass(frozen=True)
class Announce(ControlMessage):
    """ANNOUNCE: a publisher advertises a track namespace."""

    request_id: int = 0
    namespace: TrackNamespace = None  # type: ignore[assignment]
    parameters: Parameters = field(default_factory=Parameters)

    TYPE = MessageType.ANNOUNCE

    def encode_payload(self) -> bytes:
        writer = VarintWriter()
        writer.write_varint(self.request_id)
        writer.write_bytes(self.namespace.to_wire())
        writer.write_bytes(self.parameters.to_wire())
        return writer.getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Announce":
        return cls(
            reader.read_varint(),
            TrackNamespace.from_reader(reader),
            Parameters.from_reader(reader),
        )


@dataclass(frozen=True)
class AnnounceOk(ControlMessage):
    """ANNOUNCE_OK: the receiver accepted the announcement."""

    request_id: int = 0

    TYPE = MessageType.ANNOUNCE_OK

    def encode_payload(self) -> bytes:
        return VarintWriter().write_varint(self.request_id).getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "AnnounceOk":
        return cls(reader.read_varint())


@dataclass(frozen=True)
class MaxRequestId(ControlMessage):
    """MAX_REQUEST_ID: raises the peer's allowed request ID ceiling."""

    request_id: int = 0

    TYPE = MessageType.MAX_REQUEST_ID

    def encode_payload(self) -> bytes:
        return VarintWriter().write_varint(self.request_id).getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "MaxRequestId":
        return cls(reader.read_varint())


@dataclass(frozen=True)
class Goaway(ControlMessage):
    """GOAWAY: the server asks the client to move to a new session URI."""

    new_session_uri: str = ""

    TYPE = MessageType.GOAWAY

    def encode_payload(self) -> bytes:
        return VarintWriter().write_length_prefixed(self.new_session_uri.encode("utf-8")).getvalue()

    @classmethod
    def decode_payload(cls, reader: VarintReader) -> "Goaway":
        return cls(reader.read_length_prefixed().decode("utf-8"))


_DECODERS: dict[int, type[ControlMessage]] = {
    MessageType.CLIENT_SETUP: ClientSetup,
    MessageType.SERVER_SETUP: ServerSetup,
    MessageType.SUBSCRIBE: Subscribe,
    MessageType.SUBSCRIBE_OK: SubscribeOk,
    MessageType.SUBSCRIBE_ERROR: SubscribeError,
    MessageType.UNSUBSCRIBE: Unsubscribe,
    MessageType.SUBSCRIBE_DONE: SubscribeDone,
    MessageType.FETCH: Fetch,
    MessageType.FETCH_OK: FetchOk,
    MessageType.FETCH_ERROR: FetchError,
    MessageType.FETCH_CANCEL: FetchCancel,
    MessageType.ANNOUNCE: Announce,
    MessageType.ANNOUNCE_OK: AnnounceOk,
    MessageType.MAX_REQUEST_ID: MaxRequestId,
    MessageType.GOAWAY: Goaway,
}


#: Memo of decoded control messages keyed by ``(type, payload bytes)``.
#: Large subscriber populations exchange byte-identical CLIENT_SETUP /
#: SERVER_SETUP / SUBSCRIBE messages (10⁵ copies of the same SUBSCRIBE in the
#: macro runs); messages are frozen dataclasses, so one decoded instance can
#: serve every session — which also interns the embedded track names for
#: free.  Epoch eviction (clear when full) keeps the dict bounded.
_CONTROL_MESSAGE_CACHE: dict[tuple[int, bytes], "ControlMessage"] = {}
_CONTROL_MESSAGE_CACHE_MAX = 512


def decode_control_message(data: bytes, offset: int = 0) -> tuple[ControlMessage, int]:
    """Decode one control message; returns ``(message, next_offset)``.

    Raises :class:`NeedMoreData` when the buffer does not yet hold the whole
    message, which the control-stream reassembly in the session relies on,
    and :class:`ProtocolViolation` when the message is unknown or malformed.
    """
    reader = VarintReader(data, offset)
    try:
        message_type = reader.read_varint()
        length = reader.read_uint16()
        payload = reader.read_bytes(length)
    except Exception as error:
        raise NeedMoreData(str(error)) from None
    key = (message_type, payload)
    message = _CONTROL_MESSAGE_CACHE.get(key)
    if message is None:
        decoder = _DECODERS.get(message_type)
        if decoder is None:
            raise ProtocolViolation(f"unknown control message type {message_type:#x}")
        try:
            message = decoder.decode_payload(VarintReader(payload))
        except ValueError as error:
            # VarintError, TrackNameError and an out-of-range enum value are
            # all ValueErrors: the peer sent a malformed message.
            raise ProtocolViolation(f"malformed {decoder.__name__}: {error}") from None
        if len(_CONTROL_MESSAGE_CACHE) >= _CONTROL_MESSAGE_CACHE_MAX:
            _CONTROL_MESSAGE_CACHE.clear()
        _CONTROL_MESSAGE_CACHE[key] = message
    return message, reader.offset


class NeedMoreData(Exception):
    """Raised when a control message is not yet fully buffered."""


class ControlStreamParser:
    """Reassembles control messages from stream data chunks."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[ControlMessage]:
        """Add bytes and return every now-complete message."""
        self._buffer += data
        messages: list[ControlMessage] = []
        offset = 0
        # One snapshot per feed (not per message) keeps a k-message burst at
        # one copy of the buffer instead of k.
        snapshot = bytes(self._buffer)
        while offset < len(snapshot):
            try:
                message, offset = decode_control_message(snapshot, offset)
            except NeedMoreData:
                break
            messages.append(message)
        if offset:
            del self._buffer[:offset]
        return messages
