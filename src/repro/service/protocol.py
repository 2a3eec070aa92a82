"""Wire protocol: length-prefixed JSON frames plus a binary fast path.

**Version 1 (JSON)**: one frame is a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON encoding a single object.  The
format is symmetric (requests and responses use the same framing) and
deliberately tiny -- NVMe-oF it is not, but it carries the same shape of
traffic: small commands in, small completions out.

**Version 2 (binary)**: the hot operations (``read`` / ``write`` /
``get`` / ``put`` and their ok/error responses) additionally have a
compact fixed-header binary encoding (:class:`BinFrameCodec`).  A binary
frame starts with the magic byte :data:`BIN_MAGIC` (``0xB2``), which can
never open a valid JSON frame: as the high byte of a length prefix it
would advertise a ~3 GB body, far beyond the frame cap, so the two
framings coexist byte-unambiguously **on the same connection**.  The
wire layout is documented in ``docs/serving.md`` ("Protocol v2").

Negotiation is capability-based and per-frame symmetric: a server that
speaks the binary codec advertises ``"bin"`` in its ``hello`` response,
a client that saw the capability may then send hot ops in binary, and
the server answers each request *in the codec it arrived in*.  Anything
the binary codec cannot express (``scan`` items, ``stats`` payloads,
unusual field combinations) silently falls back to JSON -- v1-only
clients never see a binary byte.

Requests carry a ``type`` (``hello`` / ``ping`` / ``read`` / ``write`` /
``get`` / ``put`` / ``scan`` / ``stats``) and an optional client-chosen
``id`` the response echoes, which is what lets one connection pipeline
many requests.  Responses carry ``ok``; failures add ``error`` (a short
code such as ``BUSY`` or ``BAD_REQUEST``) and a human-readable
``message``.

The protocol is **versioned**: any JSON frame may carry ``"v": <int>``,
and the ``hello`` exchange lets a client learn the server's version and
capabilities before issuing traffic (see :data:`PROTOCOL_VERSION`,
:data:`SUPPORTED_VERSIONS` and :func:`hello_response`).  A frame
advertising a version the server does not speak is answered with a typed
``UNSUPPORTED_VERSION`` error -- a distinct code from ``BAD_REQUEST`` so
clients can tell "upgrade me" from "you sent garbage".  Frames without
``v`` are treated as version 1 traffic (the pre-versioning wire format
is identical); binary frames are version 2 by construction and carry no
version field.

The sans-io :class:`FrameDecoder` is the reference implementation of the
receive side; :func:`read_frame` adapts it to asyncio streams, and
:class:`FrameSplitter` is the zero-copy variant relays use to cut a byte
stream at frame boundaries without decoding the bodies.
"""

import json
import math
import struct
from typing import Any, Dict, List, Optional, Tuple

#: Frames above this are rejected outright -- values are capped at one
#: 4 KB page, so a megabyte frame is a protocol violation, not data.
#: (Must stay far below ``0xB2 << 24`` so a JSON length prefix can never
#: be mistaken for a binary magic byte.)
DEFAULT_MAX_FRAME_BYTES = 1 << 20

#: The newest wire-protocol version this implementation speaks.
#: Version 1 is the original length-prefixed JSON format plus the
#: ``hello`` exchange; version 2 adds the negotiated binary fast path.
PROTOCOL_VERSION = 2

#: Every version this implementation accepts on the wire.  Frames
#: without a ``v`` field are version-1 traffic by definition.
SUPPORTED_VERSIONS = (1, 2)

#: Bytes a connection reads off its socket at a time.  asyncio's selector
#: transport asks ``recv`` for 256 KiB, a buffer glibc serves with a
#: fresh ``mmap`` (above its 128 KiB threshold) and unmaps again on every
#: read: two page faults per request at queue depth 1.  64 KiB comes off
#: the heap.
READ_BYTES = 1 << 16

_LEN = struct.Struct(">I")

# Error codes the service emits.
BUSY = "BUSY"                    # shed by admission control; retry later
BAD_REQUEST = "BAD_REQUEST"      # malformed or unknown request
SHUTTING_DOWN = "SHUTTING_DOWN"  # server is draining; connection will close
TIMEOUT = "TIMEOUT"              # the simulated request missed its deadline
INTERNAL = "INTERNAL"            # unexpected server-side failure
UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"  # frame's v is not spoken here
WRONG_SHARD = "WRONG_SHARD"      # request pinned a stale ring epoch; re-hello


class FrameError(Exception):
    """A protocol violation on the wire."""


class FrameTooLarge(FrameError):
    """The advertised frame length exceeds the configured maximum."""


class TruncatedFrame(FrameError):
    """The peer closed the connection mid-frame."""


class UnencodableFrame(Exception):
    """A message the binary codec cannot express (callers fall back to
    JSON).  Deliberately *not* a :class:`FrameError`: nothing was wrong
    on the wire."""


def cap_reads(transport: Any) -> None:
    """Make ``transport`` receive at most :data:`READ_BYTES` at a time."""
    transport.max_size = READ_BYTES


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Serialise one message to its on-wire JSON (v1) form."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


# ---------------------------------------------------------------------------
# The binary codec (protocol v2).
# ---------------------------------------------------------------------------

#: First byte of every binary frame.  ``0xB2`` ("Binary, v2") as the
#: high byte of a JSON length prefix would mean a ~3 GB body -- always
#: over the frame cap -- so the byte unambiguously marks the framing.
BIN_MAGIC = 0xB2

# Request opcodes (client -> server).
OP_READ = 0x01
OP_WRITE = 0x02
OP_GET = 0x03
OP_PUT = 0x04
# Response opcodes (server -> client).
OP_OK = 0x81
OP_ERR = 0x82

#: Frame header: magic, opcode, body length, request id.  The id lives
#: in the header so relays can match responses to requests without
#: touching the body.
_BIN_HEADER = struct.Struct(">BBHI")
#: The header minus the magic byte (for unpack_from at offset+1).
_BIN_HEADER_TAIL = struct.Struct(">BHI")
BIN_HEADER_BYTES = _BIN_HEADER.size  # 8

_RW_FIXED = struct.Struct(">II")     # pair, lpn
_U16 = struct.Struct(">H")
_F64 = struct.Struct(">d")

# Flag bits of the OP_OK response body, in field order.
_OK_LATENCY = 0x01      # latency_us: f64
_OK_STORAGE = 0x02      # storage_us: f64, NaN encodes None
_OK_REPLICAS = 0x04     # replicas: u8
_OK_VALUE = 0x08        # value: u8 is-null, then u16 length + bytes
_OK_FOUND = 0x10        # found: u8 bool
_OK_RACK = 0x20         # rack: u16
_OK_CROSS_RACK = 0x40   # cross_rack (present means True)

#: Error codes by binary index.  Appending is wire-compatible;
#: reordering is not.
_ERR_CODES = (BUSY, BAD_REQUEST, SHUTTING_DOWN, TIMEOUT, INTERNAL,
              UNSUPPORTED_VERSION, WRONG_SHARD)
_ERR_INDEX = {code: i for i, code in enumerate(_ERR_CODES)}

_REQUEST_OPS = {"read": OP_READ, "write": OP_WRITE,
                "get": OP_GET, "put": OP_PUT}


def _need_u32(obj: Dict[str, Any], key: str) -> int:
    value = obj.get(key)
    if type(value) is not int or not 0 <= value < (1 << 32):
        raise UnencodableFrame(f"{key!r} is not a u32")
    return value


def _opt_str(obj: Dict[str, Any], key: str, limit: int) -> bytes:
    value = obj.get(key)
    if value is None:
        return b""
    if type(value) is not str:
        raise UnencodableFrame(f"{key!r} is not a string")
    raw = value.encode("utf-8")
    if len(raw) > limit:
        raise UnencodableFrame(f"{key!r} exceeds {limit} encoded bytes")
    return raw


def _need_f64(value: Any, key: str) -> float:
    if type(value) is bool or not isinstance(value, (int, float)):
        raise UnencodableFrame(f"{key!r} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise UnencodableFrame(f"{key!r} is not finite")
    return value


class BinFrameCodec:
    """The protocol-v2 binary codec for the hot request/response shapes.

    :meth:`encode` is **strict and canonical**: a message round-trips
    byte-exactly (``encode(decode(frame)) == frame``) and any message
    carrying a field, type, or range the format cannot express raises
    :class:`UnencodableFrame` so the caller falls back to JSON.  That
    strictness is what lets the fuzz suite prove JSON/binary decoder
    equivalence instead of best-effort similarity.
    """

    # ------------------------------------------------------------- encoding

    def encode(self, obj: Dict[str, Any]) -> bytes:
        """One message to binary wire form, or :class:`UnencodableFrame`."""
        ok = obj.get("ok")
        if ok is None:
            rtype = obj.get("type")
            opcode = _REQUEST_OPS.get(rtype)
            if opcode is None:
                raise UnencodableFrame(f"no binary opcode for {rtype!r}")
            return self._encode_request(opcode, obj)
        if ok is True:
            return self._encode_ok(obj)
        if ok is False:
            return self._encode_err(obj)
        raise UnencodableFrame("'ok' is neither absent nor a bool")

    def try_encode(self, obj: Dict[str, Any]) -> Optional[bytes]:
        """:meth:`encode`, with ``None`` instead of the exception."""
        try:
            return self.encode(obj)
        except UnencodableFrame:
            return None

    def _frame(self, opcode: int, request_id: int, body: bytes) -> bytes:
        if len(body) > 0xFFFF:
            raise UnencodableFrame("body exceeds the u16 length field")
        return _BIN_HEADER.pack(BIN_MAGIC, opcode, len(body), request_id) + body

    def _encode_request(self, opcode: int, obj: Dict[str, Any]) -> bytes:
        request_id = _need_u32(obj, "id")
        allowed = {"type", "id", "client"}
        client = _opt_str(obj, "client", 255)
        if opcode in (OP_READ, OP_WRITE):
            allowed |= {"pair", "lpn"}
            flags = 0
            if opcode == OP_READ:
                allowed.add("replica")
                replica = obj.get("replica")
                if replica is True:
                    flags = 1
                elif replica is not None:
                    raise UnencodableFrame("'replica' must be absent or True")
                body = (_RW_FIXED.pack(_need_u32(obj, "pair"),
                                       _need_u32(obj, "lpn"))
                        + bytes((flags, len(client))) + client)
            else:
                body = (_RW_FIXED.pack(_need_u32(obj, "pair"),
                                       _need_u32(obj, "lpn"))
                        + bytes((len(client),)) + client)
        elif opcode == OP_GET:
            allowed.add("key")
            key = self._need_text(obj, "key")
            body = (_U16.pack(len(key)) + key
                    + bytes((len(client),)) + client)
        else:  # OP_PUT
            allowed |= {"key", "value"}
            key = self._need_text(obj, "key")
            value = self._need_text(obj, "value")
            body = (_U16.pack(len(key)) + key + _U16.pack(len(value)) + value
                    + bytes((len(client),)) + client)
        if not set(obj) <= allowed:
            raise UnencodableFrame(
                f"fields {sorted(set(obj) - allowed)} have no binary form"
            )
        return self._frame(opcode, request_id, body)

    def _need_text(self, obj: Dict[str, Any], key: str) -> bytes:
        value = obj.get(key)
        if type(value) is not str:
            raise UnencodableFrame(f"{key!r} is not a string")
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise UnencodableFrame(f"{key!r} exceeds the u16 length field")
        return raw

    def _encode_ok(self, obj: Dict[str, Any]) -> bytes:
        allowed = {"ok", "id", "replicas", "value", "found", "latency_us",
                   "storage_us", "rack", "cross_rack"}
        if not set(obj) <= allowed:
            raise UnencodableFrame(
                f"fields {sorted(set(obj) - allowed)} have no binary form"
            )
        request_id = _need_u32(obj, "id")
        flags = 0
        parts = [b""]  # slot 0 holds the flags byte, filled last
        if "latency_us" in obj:
            flags |= _OK_LATENCY
            parts.append(_F64.pack(_need_f64(obj["latency_us"], "latency_us")))
        if "storage_us" in obj:
            flags |= _OK_STORAGE
            storage = obj["storage_us"]
            parts.append(_F64.pack(
                math.nan if storage is None
                else _need_f64(storage, "storage_us")
            ))
        if "replicas" in obj:
            replicas = obj["replicas"]
            if type(replicas) is not int or not 0 <= replicas <= 255:
                raise UnencodableFrame("'replicas' is not a u8")
            flags |= _OK_REPLICAS
            parts.append(bytes((replicas,)))
        if "value" in obj:
            flags |= _OK_VALUE
            value = obj["value"]
            if value is None:
                parts.append(b"\x01")
            else:
                raw = self._need_text(obj, "value")
                parts.append(b"\x00" + _U16.pack(len(raw)) + raw)
        if "found" in obj:
            found = obj["found"]
            if type(found) is not bool:
                raise UnencodableFrame("'found' is not a bool")
            flags |= _OK_FOUND
            parts.append(b"\x01" if found else b"\x00")
        if "rack" in obj:
            rack = obj["rack"]
            if type(rack) is not int or not 0 <= rack <= 0xFFFF:
                raise UnencodableFrame("'rack' is not a u16")
            flags |= _OK_RACK
            parts.append(_U16.pack(rack))
        if "cross_rack" in obj:
            if obj["cross_rack"] is not True:
                raise UnencodableFrame("'cross_rack' must be absent or True")
            flags |= _OK_CROSS_RACK
        parts[0] = bytes((flags,))
        return self._frame(OP_OK, request_id, b"".join(parts))

    def _encode_err(self, obj: Dict[str, Any]) -> bytes:
        allowed = {"ok", "id", "error", "message"}
        if not set(obj) <= allowed:
            raise UnencodableFrame(
                f"fields {sorted(set(obj) - allowed)} have no binary form"
            )
        request_id = _need_u32(obj, "id")
        index = _ERR_INDEX.get(obj.get("error"))
        if index is None:
            raise UnencodableFrame(
                f"error code {obj.get('error')!r} has no binary index"
            )
        message = obj.get("message", "")
        if type(message) is not str:
            raise UnencodableFrame("'message' is not a string")
        raw = message.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise UnencodableFrame("'message' exceeds the u16 length field")
        body = bytes((index,)) + _U16.pack(len(raw)) + raw
        return self._frame(OP_ERR, request_id, body)

    # ------------------------------------------------------------- decoding

    def decode_body(self, opcode: int, request_id: int,
                    body: bytes) -> Dict[str, Any]:
        """One validated binary body back to its canonical message dict.

        Raises :class:`FrameError` for anything malformed -- wrong
        lengths, trailing bytes, invalid UTF-8, unknown error indices --
        never anything outside the frame-error taxonomy.
        """
        try:
            if opcode == OP_READ or opcode == OP_WRITE:
                return self._decode_rw(opcode, request_id, body)
            if opcode == OP_GET or opcode == OP_PUT:
                return self._decode_kv(opcode, request_id, body)
            if opcode == OP_OK:
                return self._decode_ok(request_id, body)
            if opcode == OP_ERR:
                return self._decode_err(request_id, body)
        except FrameError:
            raise
        except (struct.error, UnicodeDecodeError, IndexError,
                ValueError) as exc:
            raise FrameError(f"malformed binary body: {exc}") from exc
        raise FrameError(f"unknown binary opcode 0x{opcode:02x}")

    def _text(self, view: bytes) -> str:
        return bytes(view).decode("utf-8")

    def _decode_rw(self, opcode: int, request_id: int,
                   body: bytes) -> Dict[str, Any]:
        pair, lpn = _RW_FIXED.unpack_from(body)
        pos = _RW_FIXED.size
        out: Dict[str, Any]
        if opcode == OP_READ:
            flags = body[pos]
            pos += 1
            if flags & ~1:
                raise FrameError(f"unknown read flags 0x{flags:02x}")
            out = {"type": "read", "pair": pair, "lpn": lpn}
            if flags & 1:
                out["replica"] = True
        else:
            out = {"type": "write", "pair": pair, "lpn": lpn}
        out["id"] = request_id
        clen = body[pos]
        pos += 1
        if len(body) != pos + clen:
            raise FrameError("binary request body length mismatch")
        if clen:
            out["client"] = self._text(body[pos:pos + clen])
        return out

    def _decode_kv(self, opcode: int, request_id: int,
                   body: bytes) -> Dict[str, Any]:
        (klen,) = _U16.unpack_from(body)
        pos = 2
        key = self._text(body[pos:pos + klen])
        if len(body) < pos + klen:
            raise FrameError("binary request body length mismatch")
        pos += klen
        if opcode == OP_GET:
            out = {"type": "get", "key": key}
        else:
            (vlen,) = _U16.unpack_from(body, pos)
            pos += 2
            if len(body) < pos + vlen:
                raise FrameError("binary request body length mismatch")
            out = {"type": "put", "key": key,
                   "value": self._text(body[pos:pos + vlen])}
            pos += vlen
        out["id"] = request_id
        clen = body[pos]
        pos += 1
        if len(body) != pos + clen:
            raise FrameError("binary request body length mismatch")
        if clen:
            out["client"] = self._text(body[pos:pos + clen])
        return out

    def _decode_ok(self, request_id: int,
                   body: bytes) -> Dict[str, Any]:
        flags = body[0]
        if flags & ~0x7F:
            raise FrameError(f"unknown ok-response flags 0x{flags:02x}")
        pos = 1
        out: Dict[str, Any] = {"ok": True, "id": request_id}
        latency = storage = None
        if flags & _OK_LATENCY:
            (latency,) = _F64.unpack_from(body, pos)
            pos += 8
        if flags & _OK_STORAGE:
            (storage,) = _F64.unpack_from(body, pos)
            pos += 8
        if flags & _OK_REPLICAS:
            out["replicas"] = body[pos]
            pos += 1
        if flags & _OK_VALUE:
            is_null = body[pos]
            pos += 1
            if is_null > 1:
                raise FrameError("value null marker out of range")
            if is_null:
                out["value"] = None
            else:
                (vlen,) = _U16.unpack_from(body, pos)
                pos += 2
                if len(body) < pos + vlen:
                    raise FrameError("binary response body length mismatch")
                out["value"] = self._text(body[pos:pos + vlen])
                pos += vlen
        if flags & _OK_FOUND:
            found = body[pos]
            pos += 1
            if found > 1:
                raise FrameError("found marker out of range")
            out["found"] = bool(found)
        if flags & _OK_LATENCY:
            out["latency_us"] = latency
        if flags & _OK_STORAGE:
            out["storage_us"] = None if math.isnan(storage) else storage
        if flags & _OK_RACK:
            (out["rack"],) = _U16.unpack_from(body, pos)
            pos += 2
        if flags & _OK_CROSS_RACK:
            out["cross_rack"] = True
        if len(body) != pos:
            raise FrameError("binary response body length mismatch")
        return out

    def _decode_err(self, request_id: int,
                    body: bytes) -> Dict[str, Any]:
        index = body[0]
        if index >= len(_ERR_CODES):
            raise FrameError(f"unknown binary error index {index}")
        (mlen,) = _U16.unpack_from(body, 1)
        if len(body) != 3 + mlen:
            raise FrameError("binary response body length mismatch")
        out: Dict[str, Any] = {"ok": False, "error": _ERR_CODES[index]}
        if mlen:
            out["message"] = self._text(body[3:3 + mlen])
        out["id"] = request_id
        return out


#: The shared codec instance (stateless, so one is plenty).
BIN_CODEC = BinFrameCodec()


def decode_json_body(body: bytes) -> Dict[str, Any]:
    """The object one JSON frame's body encodes (length prefix already
    stripped); :class:`FrameError` if it is not a JSON object."""
    try:
        obj = json.loads(body)
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(
            f"frame must encode a JSON object, got {type(obj).__name__}"
        )
    return obj


def encode_frame_as(obj: Dict[str, Any], binary: bool) -> bytes:
    """Encode one message, preferring binary when asked and possible.

    With ``binary`` the hot shapes go out in protocol-v2 binary; any
    message the codec cannot express falls back to JSON (the peer's
    unified decoder accepts both, so mixing is always safe).
    """
    if binary:
        frame = BIN_CODEC.try_encode(obj)
        if frame is not None:
            return frame
    return encode_frame(obj)


# ---------------------------------------------------------------------------
# Stream decoding.
# ---------------------------------------------------------------------------

#: Compact the receive buffer only after this many consumed bytes --
#: amortized O(1) per byte instead of one memmove per frame.
_COMPACT_BYTES = 1 << 16

_VALID_OPCODES = frozenset((OP_READ, OP_WRITE, OP_GET, OP_PUT, OP_OK, OP_ERR))


class FrameDecoder:
    """Incremental decoder: feed bytes in, take decoded objects out.

    Accepts **both** framings interleaved on one stream -- each frame
    self-describes via its first byte (:data:`BIN_MAGIC` or a JSON
    length prefix).  :meth:`feed_tagged` additionally reports which
    codec each message arrived in, which is how the server answers in
    kind.

    The decoder never buffers more than one oversized length prefix --
    it raises :class:`FrameTooLarge` as soon as the prefix arrives, so a
    hostile peer cannot make the server allocate the advertised body.
    Internally the buffer is consumed through a moving offset with
    amortized compaction, so a large feed of many small frames costs
    O(bytes), not O(frames x bytes).
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume bytes; return every complete message they finish."""
        return [message for message, _ in self.feed_tagged(data)]

    def feed_tagged(self, data: bytes) -> List[Tuple[Dict[str, Any], bool]]:
        """Like :meth:`feed`, as ``(message, arrived_in_binary)`` pairs."""
        buffer = self._buffer
        buffer += data
        out: List[Tuple[Dict[str, Any], bool]] = []
        pos = self._pos
        end = len(buffer)
        try:
            while pos < end:
                if buffer[pos] == BIN_MAGIC:
                    if end - pos < BIN_HEADER_BYTES:
                        break
                    opcode, body_len, request_id = (
                        _BIN_HEADER_TAIL.unpack_from(buffer, pos + 1)
                    )
                    if body_len > self.max_frame_bytes:
                        raise FrameTooLarge(
                            f"frame of {body_len} bytes exceeds the "
                            f"{self.max_frame_bytes}-byte limit"
                        )
                    if opcode not in _VALID_OPCODES:
                        raise FrameError(
                            f"unknown binary opcode 0x{opcode:02x}"
                        )
                    total = BIN_HEADER_BYTES + body_len
                    if end - pos < total:
                        break
                    body = bytes(memoryview(buffer)[
                        pos + BIN_HEADER_BYTES: pos + total])
                    out.append((
                        BIN_CODEC.decode_body(opcode, request_id, body),
                        True,
                    ))
                    pos += total
                else:
                    if end - pos < _LEN.size:
                        break
                    (need,) = _LEN.unpack_from(buffer, pos)
                    if need > self.max_frame_bytes:
                        raise FrameTooLarge(
                            f"frame of {need} bytes exceeds the "
                            f"{self.max_frame_bytes}-byte limit"
                        )
                    if end - pos < _LEN.size + need:
                        break
                    start = pos + _LEN.size
                    out.append((decode_json_body(
                        bytes(memoryview(buffer)[start:start + need])
                    ), False))
                    pos += _LEN.size + need
        finally:
            self._pos = pos
            self._compact()
        return out

    def _compact(self) -> None:
        pos = self._pos
        if pos == 0:
            return
        buffer = self._buffer
        if pos == len(buffer):
            buffer.clear()
            self._pos = 0
        elif pos >= _COMPACT_BYTES and pos >= (len(buffer) >> 1):
            del buffer[:pos]
            self._pos = 0

    def close(self) -> None:
        """Signal EOF: leftover bytes mean the peer died mid-frame."""
        pending = len(self._buffer) - self._pos
        if pending:
            raise TruncatedFrame(
                f"connection closed mid-frame ({pending} bytes pending)"
            )


class FrameSplitter:
    """Cut a byte stream at frame boundaries *without* decoding bodies.

    Relays (the sharded :class:`~repro.service.router.ShardProxy`) splice
    backend responses through to clients byte-for-byte; all they need is
    frame granularity so locally generated responses never interleave
    inside a relayed frame.  The splitter understands both framings --
    JSON length prefixes and :data:`BIN_MAGIC` binary headers -- and
    enforces the same length rules as :class:`FrameDecoder` (oversized
    prefixes raise :class:`FrameTooLarge` before the body is buffered)
    but leaves every body untouched.

    Frames are returned as **memoryviews into the fed chunk** whenever a
    frame arrives whole, so the common relay path is zero-copy: the
    bytes travel socket -> splitter view -> socket without an
    intermediate copy.  Only frames that straddle chunk boundaries are
    stitched in an internal buffer (and that buffer is abandoned, never
    mutated, once views over it escape).
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List["memoryview"]:
        """Consume bytes; return every complete frame (header included)."""
        if self._buffer:
            # A partial frame is pending: stitch, scan, and keep only the
            # new tail in a *fresh* buffer so escaped views stay valid.
            buffer = self._buffer
            buffer += data
            source: Any = buffer
        else:
            source = data
        view = memoryview(source)
        out, consumed = self._scan(view)
        tail = bytearray(view[consumed:]) if consumed < len(view) else (
            bytearray()
        )
        self._buffer = tail
        return out

    def _scan(self, view: "memoryview") -> Tuple[List["memoryview"], int]:
        out: List["memoryview"] = []
        pos = 0
        end = len(view)
        while pos < end:
            if view[pos] == BIN_MAGIC:
                if end - pos < BIN_HEADER_BYTES:
                    break
                opcode = view[pos + 1]
                (body_len,) = _U16.unpack_from(view, pos + 2)
                if body_len > self.max_frame_bytes:
                    raise FrameTooLarge(
                        f"frame of {body_len} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit"
                    )
                if opcode not in _VALID_OPCODES:
                    raise FrameError(
                        f"unknown binary opcode 0x{opcode:02x}"
                    )
                total = BIN_HEADER_BYTES + body_len
            else:
                if end - pos < _LEN.size:
                    break
                (need,) = _LEN.unpack_from(view, pos)
                if need > self.max_frame_bytes:
                    raise FrameTooLarge(
                        f"frame of {need} bytes exceeds the "
                        f"{self.max_frame_bytes}-byte limit"
                    )
                total = _LEN.size + need
            if end - pos < total:
                break
            out.append(view[pos:pos + total])
            pos += total
        return out, pos

    def close(self) -> None:
        """Signal EOF: leftover bytes mean the peer died mid-frame."""
        if self._buffer:
            raise TruncatedFrame(
                f"stream ended mid-frame ({len(self._buffer)} bytes pending)"
            )


# ---------------------------------------------------------------------------
# Frame peeking (relay helpers: read routing facts without a full decode).
# ---------------------------------------------------------------------------


def frame_is_binary(frame: bytes) -> bool:
    """True when a complete frame is in the binary (v2) framing."""
    return len(frame) > 0 and frame[0] == BIN_MAGIC


def frame_request_id(frame: bytes) -> Any:
    """The ``id`` a complete frame carries (``None`` when it has none).

    Binary frames give it up from the fixed header; JSON frames pay one
    parse.  Raises :class:`FrameError` for JSON bodies that are
    malformed or not an object.
    """
    if frame_is_binary(frame):
        return _BIN_HEADER_TAIL.unpack_from(frame, 1)[2]
    return decode_json_body(bytes(frame[_LEN.size:])).get("id")


def bin_frame_route(frame: bytes) -> Optional[Tuple[str, Any]]:
    """The routing fact of a binary request frame, without a decode.

    Returns ``("pair", global_pair)`` for read/write, ``("key", key)``
    for get/put (and scan has no binary form), ``None`` for anything
    else.  Raises :class:`FrameError` when the frame is too short to
    hold the advertised field.
    """
    if not frame_is_binary(frame):
        return None
    opcode = frame[1]
    try:
        if opcode in (OP_READ, OP_WRITE):
            (pair,) = struct.unpack_from(">I", frame, BIN_HEADER_BYTES)
            return ("pair", pair)
        if opcode in (OP_GET, OP_PUT):
            (klen,) = _U16.unpack_from(frame, BIN_HEADER_BYTES)
            start = BIN_HEADER_BYTES + 2
            key = bytes(frame[start:start + klen])
            if len(key) != klen:
                raise FrameError("binary request body length mismatch")
            return ("key", key.decode("utf-8"))
    except (struct.error, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed binary body: {exc}") from exc
    return None


def rewrite_bin_pair(frame: bytes, local_pair: int) -> bytes:
    """A copy of a binary read/write frame with its pair field replaced.

    The pair index sits at a fixed offset, so a relay translating global
    to rack-local pair indices patches 4 bytes instead of re-encoding.
    """
    out = bytearray(frame)
    struct.pack_into(">I", out, BIN_HEADER_BYTES, local_pair)
    return bytes(out)


# ---------------------------------------------------------------------------
# Versioning and the request/response vocabulary.
# ---------------------------------------------------------------------------


def check_version(request: Dict[str, Any]) -> Optional[int]:
    """Return the unsupported version in a request, or ``None`` if fine.

    Frames without ``v`` are version-1 traffic by definition; a non-
    integer ``v`` is "a version we do not speak", not a malformed frame
    (future versions may well widen the type).
    """
    version = request.get("v")
    if version is None or version in SUPPORTED_VERSIONS:
        return None
    return version


def hello_response(request_id: Optional[Any] = None,
                   capabilities: Optional[List[str]] = None,
                   **fields: Any) -> Dict[str, Any]:
    """The server half of the HELLO exchange: version + capabilities."""
    return ok_response(
        request_id,
        v=PROTOCOL_VERSION,
        capabilities=sorted(capabilities or []),
        **fields,
    )


async def read_frame(reader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                     ) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    Understands both framings (the first byte decides, exactly as in
    :class:`FrameDecoder`).
    """
    import asyncio

    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrame("connection closed mid-length-prefix") from exc
    try:
        if first[0] == BIN_MAGIC:
            rest = await reader.readexactly(BIN_HEADER_BYTES - 1)
            opcode, body_len, request_id = _BIN_HEADER_TAIL.unpack(rest)
            if body_len > max_frame_bytes:
                raise FrameTooLarge(
                    f"frame of {body_len} bytes exceeds the "
                    f"{max_frame_bytes}-byte limit"
                )
            body = await reader.readexactly(body_len)
            return BIN_CODEC.decode_body(opcode, request_id, body)
        prefix = first + await reader.readexactly(_LEN.size - 1)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame("connection closed mid-length-prefix") from exc
    (length,) = _LEN.unpack(prefix)
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds the {max_frame_bytes}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from exc
    return decode_json_body(body)


def write_frame(writer, obj: Dict[str, Any]) -> None:
    """Queue one frame on an asyncio stream writer (caller drains)."""
    writer.write(encode_frame(obj))


def ok_response(request_id: Optional[Any] = None, **fields: Any) -> Dict[str, Any]:
    """A success response, echoing the request id when one was given."""
    out: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        out["id"] = request_id
    out.update(fields)
    return out


def error_response(code: str, message: str = "",
                   request_id: Optional[Any] = None) -> Dict[str, Any]:
    """A failure response with a short machine-readable code."""
    out: Dict[str, Any] = {"ok": False, "error": code}
    if message:
        out["message"] = message
    if request_id is not None:
        out["id"] = request_id
    return out
