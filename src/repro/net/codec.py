"""The wire codec: length-prefixed frames, tuple-preserving.

Protocol messages are plain Python values — tuples of strings, ints,
floats, ``None`` and nested tuples (pids like ``("acc", 3, 1)``, KV
commands like ``("put", "x", 1, ("seq", ("c0", 4)))``).  JSON alone
cannot carry them: it collapses tuples into lists, and protocol
payloads must round-trip *exactly* (pids are dict keys; sticky Quorum
values are compared with ``==``; the history checker hashes inputs).

Two codecs implement the same contract and are selectable per cluster:

* the **JSON codec** (the seed format, and the fallback) tags
  containers so tuples survive the trip:

  ========  =======================================
  tuple     ``{"t": [items...]}``
  list      ``{"l": [items...]}``
  dict      ``{"d": [[key, value], ...]}``
  packed    ``{"p": "<strict base64 of the bytes>"}``
  scalar    itself (str / int / float / bool / None)
  ========  =======================================

* the **binary codec** struct-packs the same value space with one tag
  byte per value (``N``/``T``/``F``/``i``/``I``/``f``/``s``/
  ``t``/``l``/``d``/``p``) — no quoting, no base-10 round trips, roughly
  2-3x smaller and cheaper to encode on the replication hot path.
  Binary bodies open with :data:`BINARY_MAGIC`, a byte no JSON body
  can start with, so a single :class:`FrameDecoder` handles either
  format on the wire and mixed configurations degrade gracefully.

``decode(encode(x)) == x`` for every value built from those shapes,
*and* the two codecs agree value-for-value — the parity property tests
in ``tests/test_net_codec.py`` check both over randomized payloads and
over every concrete message family the protocols emit.

Framing is a 4-byte big-endian length prefix followed by the body.
:data:`MAX_FRAME` bounds the body on both sides: the encoder refuses to
emit an oversized frame (the typed :exc:`FrameTooLarge`; the batching
coordinator sizes a decree beforehand and splits it first) and the decoder
refuses to buffer one announced by a corrupt or hostile peer (otherwise
a single bogus length prefix could balloon memory).  Whatever else is
wrong with a frame — bad UTF-8, an unhashable dict key, nesting past
:data:`MAX_DEPTH` — the decoder raises :exc:`FrameError` and nothing
else, so a reader can treat a corrupt peer like a dropped connection.

A value that consensus only stores, compares and echoes should cross
the codec once in its life.  :class:`Packed` holds such a value as the
bytes of its binary body.  Both codecs move those bytes unread (``p``,
a u32 length, the bytes; base64 in JSON); only
:meth:`Packed.unpack` parses them, as strictly as a frame.  A producer
builds one from bodies it has (``encode_body``, :func:`tuple_body`) and
sizes it by ``len`` and ``packed_size``.  Per hop,
``encode_frame(envelope, memo)`` splices the remembered body of a
broadcast message behind each destination's header (:class:`BodyMemo`).
"""

from __future__ import annotations

import base64
import functools
import json
import struct
from typing import Any, Iterator, Optional, Sequence, Tuple, Union

#: Maximum frame body size in bytes (1 MiB); both sides enforce it.
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")

#: first byte of every binary-codec body; JSON bodies are ASCII, so the
#: decoder dispatches on it without out-of-band configuration
BINARY_MAGIC = 0xB1
_MAGIC = bytes([BINARY_MAGIC])


class FrameError(ValueError):
    """A frame violated the wire protocol (size, encoding, or tagging)."""


class FrameTooLarge(FrameError):
    """An encoded frame body would exceed :data:`MAX_FRAME`.

    Typed apart from a malformed value.  The batching coordinator sizes
    by arithmetic and splits a decree, or refuses a single too-large
    operation per op, before this is raised — never a torn connection.
    """


#: Containers nested deeper than this are refused by both decoders with
#: a :exc:`FrameError`.  Protocol envelopes nest about eight deep (an
#: envelope around a message around a batch of session-tagged ops); a
#: hostile frame of thousands of nested one-tuples must not reach the
#: interpreter's recursion limit.
MAX_DEPTH = 64


def _too_deep() -> FrameError:
    return FrameError(f"payload nested deeper than MAX_DEPTH={MAX_DEPTH}")


_UNREAD = object()


class Packed(bytes):
    """A value held as the bytes of its binary body (no magic byte).

    Equal and hashed as those bytes, which is finer than ``==`` on the
    values (``1`` and ``1.0`` pack differently): for consensus that can
    only turn an agreement into a spurious switch, never into a wrong
    decision.  Whoever packs a value it holds attaches it, and never
    pays to read it back.
    """

    _value: Any = _UNREAD  # a decoder's Packed skips __new__

    def __new__(cls, body: bytes, value: Any = _UNREAD) -> "Packed":
        self = super().__new__(cls, body)
        self._value = value
        return self

    def unpack(self) -> Any:
        """The value, decoded on first use and kept: what a frame with
        this body decodes to, so bytes that are not exactly one binary
        body are a :exc:`FrameError` (every time, a failure is not kept)."""
        if self._value is _UNREAD:
            self._value = decode_body(_MAGIC + self)
        return self._value


def encode_payload(value: Any) -> Any:
    """Rewrite ``value`` into the tagged JSON-safe shape."""
    if isinstance(value, tuple):
        return {"t": [encode_payload(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_payload(v) for v in value]}
    if isinstance(value, dict):
        return {
            "d": [
                [encode_payload(k), encode_payload(v)]
                for k, v in value.items()
            ]
        }
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if type(value) is Packed:
        return {"p": base64.b64encode(value).decode("ascii")}
    raise FrameError(f"payload not wire-encodable: {value!r}")


def _untag(value: Any, depth: int) -> Any:
    if type(value) is not dict:
        return value
    if len(value) != 1:
        raise FrameError(f"bad container tag: {value!r}")
    ((tag, items),) = value.items()
    if tag == "p":
        # a leaf, like the string it travels as: nothing to descend into
        return Packed(base64.b64decode(items, validate=True))
    if depth >= MAX_DEPTH:
        raise _too_deep()
    depth += 1
    if tag == "t":
        return tuple([_untag(v, depth) for v in items])
    if tag == "l":
        return [_untag(v, depth) for v in items]
    if tag == "d":
        return {_untag(k, depth): _untag(v, depth) for k, v in items}
    raise FrameError(f"unknown container tag {tag!r}")


def decode_payload(value: Any) -> Any:
    """Invert :func:`encode_payload`; any malformed shape (an unknown
    tag, a non-list under a tag, an unhashable dict key, base64 that is
    not strict, nesting beyond :data:`MAX_DEPTH`) is a :exc:`FrameError`."""
    try:
        return _untag(value, 0)
    except FrameError:
        raise
    except (TypeError, ValueError) as exc:
        raise FrameError(f"bad tagged payload: {exc}") from exc


def dump_json(payload: Any) -> bytes:
    """The one JSON body encoding: compact, ASCII-only, key order kept.

    Wire frames, WAL records and the bytes a snapshot checksum covers
    are all this function over an :func:`encode_payload` shape, so "the
    journal encoding" the pipeline sizes against has one definition.
    """
    return json.dumps(
        payload, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
# one tag byte and its fixed-width field, packed in one call
_TAG_U32 = struct.Struct(">cI")
_TAG_I64 = struct.Struct(">cq")
_TAG_F64 = struct.Struct(">cd")


@functools.lru_cache(maxsize=1 << 12)
def _str_body(value: str) -> bytes:
    """A short string's binary body, tag, length and UTF-8: every frame
    repeats the same message kinds, role names, keys and clients."""
    raw = value.encode("utf-8")
    return _TAG_U32.pack(b"s", len(raw)) + raw


def _binary_encode(value: Any, out: bytearray) -> None:
    # exact-type dispatch, commonest leaves first (a decree is tuples of
    # strs and ints); subclasses take the isinstance chain below
    kind = type(value)
    if kind is str:
        raw = value.encode("utf-8")
        out += _TAG_U32.pack(b"s", len(raw))
        out += raw
    elif kind is tuple:
        out += _TAG_U32.pack(b"t", len(value))
        for item in value:
            # a tuple's commonest items inline, the rest one call down
            kind = type(item)
            if kind is str and len(item) <= 64:  # bounds the memo's bytes
                out += _str_body(item)
            elif kind is int and -(1 << 63) <= item < 1 << 63:
                out += _TAG_I64.pack(b"i", item)
            elif kind is Packed:
                out += _TAG_U32.pack(b"p", len(item))
                out += item
            else:
                _binary_encode(item, out)
    elif kind is int:
        try:
            out += _TAG_I64.pack(b"i", value)
        except struct.error:
            # arbitrary-precision escape hatch: decimal digits as bytes
            digits = str(value).encode("ascii")
            out += _TAG_U32.pack(b"I", len(digits))
            out += digits
    elif kind is Packed:
        out += _TAG_U32.pack(b"p", len(value))
        out += value
    elif value is None:
        out += b"N"
    elif kind is float:
        out += _TAG_F64.pack(b"f", value)
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is list:
        out += _TAG_U32.pack(b"l", len(value))
        for item in value:
            _binary_encode(item, out)
    elif kind is dict:
        out += _TAG_U32.pack(b"d", len(value))
        for key, val in value.items():
            _binary_encode(key, out)
            _binary_encode(val, out)
    else:
        # an instance of a subclass goes out as its builtin base (bool
        # cannot be subclassed, so no bool is taken for an int here)
        for base in (str, tuple, int, float, list, dict):
            if isinstance(value, base):
                _binary_encode(base(value), out)
                return
        raise FrameError(f"payload not wire-encodable: {value!r}")


_TAG_N, _TAG_T, _TAG_F = ord("N"), ord("T"), ord("F")
_TAG_i, _TAG_I, _TAG_f, _TAG_s = ord("i"), ord("I"), ord("f"), ord("s")
_TAG_t, _TAG_l, _TAG_d, _TAG_p = ord("t"), ord("l"), ord("d"), ord("p")


def _binary_decode(body: bytes, pos: int) -> Tuple[Any, int]:
    """Decode the value at ``body[pos]``; return it and the offset after
    it.  One loop: ``items`` fills the innermost open container (a
    dict's keys and values alternate) up to ``count``, and ``stack``
    holds the enclosing ones'.  Running off the end raises
    ``IndexError`` / ``struct.error``: a truncated frame."""
    stack: list = []
    kind, items, count = 0, None, 0
    while True:
        tag = body[pos]
        if tag == _TAG_s or tag == _TAG_p or tag == _TAG_I:
            (size,) = _U32.unpack_from(body, pos + 1)
            pos += 5 + size
            if pos > len(body):
                raise IndexError(pos)
            raw = body[pos - size:pos]
            value = (
                raw.decode("utf-8") if tag == _TAG_s
                else bytes.__new__(Packed, raw) if tag == _TAG_p
                else int(raw.decode("ascii"))
            )
        elif tag == _TAG_t or tag == _TAG_l or tag == _TAG_d:
            (size,) = _U32.unpack_from(body, pos + 1)
            pos += 5
            if len(stack) >= MAX_DEPTH:
                raise _too_deep()
            if size:
                stack.append((kind, items, count))
                kind, items = tag, []
                count = 2 * size if tag == _TAG_d else size
                continue
            value = () if tag == _TAG_t else [] if tag == _TAG_l else {}
        elif tag == _TAG_i:
            value = _I64.unpack_from(body, pos + 1)[0]
            pos += 9
        elif tag == _TAG_N or tag == _TAG_T or tag == _TAG_F:
            value, pos = None if tag == _TAG_N else tag == _TAG_T, pos + 1
        elif tag == _TAG_f:
            value = _F64.unpack_from(body, pos + 1)[0]
            pos += 9
        else:
            raise FrameError(f"unknown binary tag {bytes([tag])!r}")
        # hand the value to its container, closing every one it fills
        while items is not None:
            items.append(value)
            if len(items) < count:
                break
            value = (
                tuple(items) if kind == _TAG_t else items if kind == _TAG_l
                else dict(zip(items[::2], items[1::2]))
            )
            kind, items, count = stack.pop()
        else:
            return value, pos


def decode_body(body: bytes) -> Any:
    """Decode one frame body or WAL record, dispatching on the magic
    byte.  Whatever is wrong with the bytes, the caller sees a
    :exc:`FrameError`."""
    if body[:1] == _MAGIC:
        try:
            value, pos = _binary_decode(body, 1)
        except FrameError:
            raise
        except (IndexError, struct.error) as exc:
            raise FrameError("binary frame body truncated") from exc
        except (ValueError, TypeError) as exc:
            # invalid UTF-8, non-digits in a big int, unhashable dict key
            raise FrameError(f"bad binary frame body: {exc}") from exc
        if pos != len(body):
            raise FrameError(
                f"binary frame has {len(body) - pos} trailing bytes"
            )
        return value
    try:
        raw = json.loads(body)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors
        raise FrameError(f"frame body is not JSON: {exc}") from exc
    return decode_payload(raw)


def _too_large(size: int) -> FrameTooLarge:
    return FrameTooLarge(
        f"frame body of {size} bytes exceeds MAX_FRAME={MAX_FRAME}"
    )


class BodyMemo:
    """The encoded body of the last message one sender framed.

    A broadcast hands the *same message object* to consecutive
    destinations; passed to ``encode_frame``, the memo lets every frame
    after the first splice the remembered body behind its own
    ``(src, dst)`` header.  Keyed on object identity, which is sound
    because a message is never mutated after ``send`` (the rule
    :mod:`repro.mp.sim` states, and itself relies on).
    """

    __slots__ = ("message", "body")

    def __init__(self) -> None:
        self.message: Any = self  # matches no message
        self.body = b""

    def body_of(self, message: Any, codec: "Codec") -> bytes:
        if message is not self.message:
            self.body = codec.encode_body(message)
            self.message = message
        return self.body


class JsonCodec:
    """The seed wire format: compact tagged JSON bodies."""

    name = "json"

    def encode_body(self, value: Any) -> bytes:
        """``value`` as it appears inside a larger body."""
        return dump_json(encode_payload(value))

    def encode_frame(
        self, value: Any, memo: Optional[BodyMemo] = None
    ) -> bytes:
        """One wire frame.  With ``memo``, ``value`` is an envelope
        ``(src, dst, message)`` and the message body comes from (or is
        left in) the memo; the bytes are the same either way."""
        if memo is None:
            body = self.encode_body(value)
        else:
            src, dst, message = value
            body = b'{"t":[%b,%b,%b]}' % (
                self.encode_body(src),
                self.encode_body(dst),
                memo.body_of(message, self),
            )
        if len(body) > MAX_FRAME:
            raise _too_large(len(body))
        return _LEN.pack(len(body)) + body

    def packed_size(self, size: int) -> int:
        """Body bytes of a :class:`Packed` of ``size``: tag and base64."""
        return len('{"p":""}') + 4 * ((size + 2) // 3)


#: what every binary frame starts from: a length prefix still to be
#: filled in, then the magic byte
_BINARY_HEAD = bytes(_LEN.size) + _MAGIC
_ENVELOPE_HEAD = _TAG_U32.pack(b"t", 3)


class BinaryCodec:
    """Struct-packed bodies, one tag byte per value, magic-prefixed."""

    name = "binary"

    def encode_body(self, value: Any) -> bytearray:
        """``value`` as it appears inside a larger body (no magic)."""
        out = bytearray()
        _binary_encode(value, out)
        return out

    def encode_frame(
        self, value: Any, memo: Optional[BodyMemo] = None
    ) -> bytes:
        """One wire frame; ``memo`` as for :meth:`JsonCodec.encode_frame`."""
        out = bytearray(_BINARY_HEAD)
        if memo is None:
            _binary_encode(value, out)
        else:
            src, dst, message = value
            out += _ENVELOPE_HEAD
            _binary_encode(src, out)
            _binary_encode(dst, out)
            out += memo.body_of(message, self)
        size = len(out) - _LEN.size
        if size > MAX_FRAME:
            raise _too_large(size)
        _LEN.pack_into(out, 0, size)
        return bytes(out)

    def packed_size(self, size: int) -> int:
        """Body bytes of a :class:`Packed` of ``size``: tag, u32, bytes."""
        return _TAG_U32.size + size


def tuple_body(items: Sequence[bytes]) -> bytes:
    """The binary body of the tuple whose items have the bodies
    ``items``: how a :class:`Packed` is built from parts already encoded."""
    return _TAG_U32.pack(b"t", len(items)) + b"".join(items)


JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()

_CODECS = {"json": JSON_CODEC, "binary": BINARY_CODEC}


def get_codec(name: str) -> Union[JsonCodec, BinaryCodec]:
    """Look up a codec by cluster-config name (``json`` / ``binary``)."""
    try:
        return _CODECS[name]
    except KeyError:
        raise FrameError(f"unknown codec {name!r}") from None


class FrameDecoder:
    """Incremental frame parser: feed byte chunks, iterate messages.

    TCP gives a byte stream, not frames — a read may split a frame or
    glue several.  The decoder buffers across ``feed`` calls and yields
    each completed frame's decoded payload.  Each body self-describes
    its format (binary bodies start with :data:`BINARY_MAGIC`), so one
    decoder accepts frames from peers on either codec.  A frame that
    does not decode raises :exc:`FrameError` and nothing else.
    """

    def __init__(self) -> None:
        #: the start of a frame no chunk has completed yet
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Any]:
        """Consume ``data``; yield every message completed by it.

        Frames are parsed straight from the chunk, one copy per body;
        only a frame that a read split is buffered."""
        buffer = self._buffer
        if buffer or type(data) is not bytes:
            buffer += data
            data = bytes(buffer)
            buffer.clear()
        pos, size = 0, len(data)
        try:
            while size - pos >= _LEN.size:
                (length,) = _LEN.unpack_from(data, pos)
                if length > MAX_FRAME:
                    raise FrameError(
                        f"peer announced a {length}-byte frame "
                        f"(MAX_FRAME={MAX_FRAME})"
                    )
                end = pos + _LEN.size + length
                if end > size:
                    return
                body = data[pos + _LEN.size:end]
                pos = end
                yield decode_body(body)
        finally:
            buffer += data[pos:]


Codec = Union[JsonCodec, BinaryCodec]

__all__ = [
    "BINARY_CODEC",
    "BINARY_MAGIC",
    "BinaryCodec",
    "BodyMemo",
    "Codec",
    "FrameDecoder",
    "FrameError",
    "FrameTooLarge",
    "JSON_CODEC",
    "JsonCodec",
    "MAX_DEPTH",
    "MAX_FRAME",
    "Packed",
    "decode_body",
    "decode_payload",
    "dump_json",
    "encode_payload",
    "get_codec",
    "tuple_body",
]
