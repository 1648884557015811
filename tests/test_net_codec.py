"""Property tests for the wire codecs (`repro.net.codec`).

The codec contract is ``decode ∘ encode = id`` over every value the
protocols ever put on the wire: nested tuples (pids, tagged KV
commands), lists, dicts, and scalars.  Tested three ways — randomized
payloads via hypothesis, the concrete message family of every protocol
role, and the framing edges at :data:`MAX_FRAME`.

Two codecs implement that contract (tagged JSON and the struct-packed
binary format), so on top of each codec's round trip the *parity*
properties check they agree value-for-value, that one decoder handles
a mixed-codec stream via the magic-byte dispatch, and that both raise
the typed :exc:`FrameTooLarge` at the frame bound.

:class:`Packed` values (bytes both codecs carry without reading) are
leaves of every randomized payload below, well-formed, nested and
arbitrary alike: carrying them is the codecs' job, parsing them is
``unpack``'s, with the same typed failures as a frame.
"""

import base64
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    BINARY_CODEC,
    BINARY_MAGIC,
    BodyMemo,
    FrameDecoder,
    FrameError,
    FrameTooLarge,
    JSON_CODEC,
    MAX_DEPTH,
    MAX_FRAME,
    Packed,
    decode_payload,
    encode_payload,
    get_codec,
    tuple_body,
)

# ---------------------------------------------------------------------------
# randomized payloads
# ---------------------------------------------------------------------------

plain_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20)
)


def pack(value):
    return Packed(bytes(BINARY_CODEC.encode_body(value)))


#: packed leaves: a value's body, a body around a packed body (a nested
#: span), and bytes that are no body at all (the codecs carry those too)
packed = (
    st.recursive(plain_scalars, lambda inner: inner.map(pack), max_leaves=3)
    .map(pack)
    | st.binary(max_size=20).map(Packed)
)

scalars = plain_scalars | packed

#: hashable payloads usable as dict keys and set-free tuple members
hashable_payloads = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)

payloads = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(hashable_payloads, children, max_size=4)
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_payload_round_trip(value):
    assert decode_payload(encode_payload(value)) == value


@settings(max_examples=100, deadline=None)
@given(payloads)
def test_frame_round_trip(value):
    decoder = FrameDecoder()
    (decoded,) = decoder.feed(JSON_CODEC.encode_frame(value))
    assert decoded == value


@settings(max_examples=50, deadline=None)
@given(st.lists(payloads, min_size=1, max_size=5), st.data())
def test_stream_reassembly_at_arbitrary_chunking(values, data):
    """TCP may split/glue frames arbitrarily; the decoder must not care."""
    stream = b"".join(JSON_CODEC.encode_frame(v) for v in values)
    decoder = FrameDecoder()
    out = []
    position = 0
    while position < len(stream):
        size = data.draw(
            st.integers(min_value=1, max_value=len(stream) - position)
        )
        out.extend(decoder.feed(stream[position : position + size]))
        position += size
    assert out == values


# ---------------------------------------------------------------------------
# the concrete message families of Quorum / Paxos / Backup / SMR
# ---------------------------------------------------------------------------

KV_COMMANDS = [
    ("put", "alpha", 7, ("seq", ("c0", 4))),
    ("get", "beta", ("seq", ("c1", 1))),
    ("delete", "gamma", ("seq", ("c7", 19))),
]

PIDS = [
    ("qs", 3, 1),
    ("acc", 0, 2),
    ("coord", 12, 0),
    ("ctl", 0, 1),
    ("qcli", (("c0", 4), 2)),
    ("bcli", (("c1", 9), 1)),
]

MESSAGES = (
    [("q-propose", cmd) for cmd in KV_COMMANDS]
    + [("q-accept", cmd) for cmd in KV_COMMANDS]
    + [
        ("prepare", 7),
        ("promise", 7, -1, None),
        ("promise", 9, 4, KV_COMMANDS[0]),
        ("nack", 7, 12),
        ("accept", 7, KV_COMMANDS[1]),
        ("accepted", 7, KV_COMMANDS[1]),
        ("request", KV_COMMANDS[2]),
        ("decision", KV_COMMANDS[0]),
        ("register-learner", 5, ("bcli", (("c0", 4), 1))),
    ]
)


@pytest.mark.parametrize("message", MESSAGES, ids=[m[0] for m in MESSAGES])
@pytest.mark.parametrize("src", PIDS[:2], ids=["from-qs", "from-acc"])
def test_protocol_envelopes_round_trip(src, message):
    envelope = (src, PIDS[-1], message)
    decoder = FrameDecoder()
    (decoded,) = decoder.feed(JSON_CODEC.encode_frame(envelope))
    assert decoded == envelope
    # Exact types, not just equality: tuples must come back as tuples
    # (pids are dict keys, commands are compared with ==).
    assert type(decoded) is tuple
    assert type(decoded[2]) is tuple


def test_tuple_list_distinction_survives():
    value = (("a", 1), ["a", 1], {"k": ("v",)})
    decoded = decode_payload(encode_payload(value))
    assert type(decoded[0]) is tuple
    assert type(decoded[1]) is list
    assert type(decoded[2]["k"]) is tuple


# ---------------------------------------------------------------------------
# framing edges
# ---------------------------------------------------------------------------


def test_frame_just_under_limit_round_trips():
    # JSON overhead: quotes around the string, so body = len + 2.
    value = "x" * (MAX_FRAME - 2)
    decoder = FrameDecoder()
    (decoded,) = decoder.feed(JSON_CODEC.encode_frame(value))
    assert decoded == value


def test_oversized_frame_refused_by_encoder():
    with pytest.raises(FrameError, match="exceeds MAX_FRAME"):
        JSON_CODEC.encode_frame("x" * MAX_FRAME)


def test_oversized_announcement_refused_by_decoder():
    import struct

    decoder = FrameDecoder()
    bogus = struct.pack(">I", MAX_FRAME + 1)
    with pytest.raises(FrameError, match="announced"):
        list(decoder.feed(bogus))


def test_garbage_body_refused():
    import struct

    decoder = FrameDecoder()
    with pytest.raises(FrameError, match="not JSON"):
        list(decoder.feed(struct.pack(">I", 4) + b"\xff\xfe\xfd\xfc"))


def test_unencodable_payload_refused():
    with pytest.raises(FrameError, match="not wire-encodable"):
        encode_payload(object())


def test_unknown_container_tag_refused():
    with pytest.raises(FrameError, match="unknown container tag"):
        decode_payload({"z": []})


# ---------------------------------------------------------------------------
# JSON / binary parity
# ---------------------------------------------------------------------------


def _decode_one(frame):
    (value,) = FrameDecoder().feed(frame)
    return value


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_codec_parity_on_random_payloads(value):
    """Both codecs round-trip the same value space to the same result."""
    via_json = _decode_one(JSON_CODEC.encode_frame(value))
    via_binary = _decode_one(BINARY_CODEC.encode_frame(value))
    assert via_json == value
    assert via_binary == value


@pytest.mark.parametrize("message", MESSAGES, ids=[m[0] for m in MESSAGES])
def test_binary_protocol_envelopes_round_trip(message):
    envelope = (PIDS[0], PIDS[-1], message)
    decoded = _decode_one(BINARY_CODEC.encode_frame(envelope))
    assert decoded == envelope
    # exact container types, same as the JSON test above
    assert type(decoded) is tuple
    assert type(decoded[2]) is tuple


def test_binary_tuple_list_distinction_survives():
    value = (("a", 1), ["a", 1], {"k": ("v",)})
    decoded = _decode_one(BINARY_CODEC.encode_frame(value))
    assert type(decoded[0]) is tuple
    assert type(decoded[1]) is list
    assert type(decoded[2]["k"]) is tuple


def test_binary_unicode_round_trips():
    value = ("ключ", "héllo wörld", "🧪" * 40, "\x00\x7f")
    assert _decode_one(BINARY_CODEC.encode_frame(value)) == value


def test_binary_big_integers_round_trip():
    # beyond int64 the codec falls back to decimal digits; bools must
    # not be swallowed by the int path either
    value = (2 ** 100, -(2 ** 100), 2 ** 63 - 1, -(2 ** 63), True, False)
    decoded = _decode_one(BINARY_CODEC.encode_frame(value))
    assert decoded == value
    assert [type(v) for v in decoded] == [type(v) for v in value]


def test_mixed_codec_stream_decodes_uniformly():
    """One decoder serves peers on either codec (magic-byte dispatch)."""
    values = [("a", 1), {"k": (2, None)}, [True, "x"]]
    stream = b"".join(
        (BINARY_CODEC if i % 2 else JSON_CODEC).encode_frame(v)
        for i, v in enumerate(values)
    )
    assert list(FrameDecoder().feed(stream)) == values


def test_binary_frames_smaller_on_floats_and_unicode():
    # where the binary format's fixed-width packing wins: floats are 8
    # bytes instead of up to 17 decimal digits, and non-ASCII text is
    # raw UTF-8 instead of six-byte \uXXXX escapes
    value = (tuple(0.1 * i for i in range(20)), "значение" * 10)
    assert len(BINARY_CODEC.encode_frame(value)) < len(
        JSON_CODEC.encode_frame(value)
    )


def test_get_codec_lookup():
    assert get_codec("json") is JSON_CODEC
    assert get_codec("binary") is BINARY_CODEC
    with pytest.raises(FrameError, match="unknown codec"):
        get_codec("protobuf")


def test_binary_magic_never_starts_a_json_body():
    # the dispatch invariant: every JSON body is ASCII, the magic is not
    assert BINARY_MAGIC > 0x7F
    body = JSON_CODEC.encode_frame({"k": ("v",)})[4:]
    assert body[0] != BINARY_MAGIC


# ---------------------------------------------------------------------------
# binary framing edges
# ---------------------------------------------------------------------------


def test_binary_frame_just_under_limit_round_trips():
    # binary overhead for a str: magic + tag + u32 length = 6 bytes
    value = "x" * (MAX_FRAME - 6)
    assert _decode_one(BINARY_CODEC.encode_frame(value)) == value


def test_binary_oversized_frame_raises_typed_error():
    with pytest.raises(FrameTooLarge, match="exceeds MAX_FRAME"):
        BINARY_CODEC.encode_frame("x" * MAX_FRAME)


def test_json_oversized_frame_raises_typed_error():
    # FrameTooLarge is a FrameError: old call sites that catch the
    # broad class keep working, new ones can split-and-retry
    with pytest.raises(FrameTooLarge, match="exceeds MAX_FRAME"):
        JSON_CODEC.encode_frame("x" * MAX_FRAME)
    assert issubclass(FrameTooLarge, FrameError)


def test_binary_truncated_body_refused():
    # magic + tuple header announcing 3 items, but no items follow
    body = bytes([BINARY_MAGIC]) + b"t" + struct.pack(">I", 3)
    with pytest.raises(FrameError, match="truncated"):
        _decode_one(struct.pack(">I", len(body)) + body)


def test_binary_trailing_bytes_refused():
    body = bytes([BINARY_MAGIC]) + b"N" + b"junk"
    with pytest.raises(FrameError, match="trailing"):
        _decode_one(struct.pack(">I", len(body)) + body)


def test_binary_unknown_tag_refused():
    body = bytes([BINARY_MAGIC]) + b"Z"
    with pytest.raises(FrameError, match="unknown binary tag"):
        _decode_one(struct.pack(">I", len(body)) + body)


# ---------------------------------------------------------------------------
# typed degradation: whatever the bytes, FrameError and nothing else
# ---------------------------------------------------------------------------


def _binary_frame(body):
    body = bytes([BINARY_MAGIC]) + body
    return struct.pack(">I", len(body)) + body


def _json_frame(body):
    return struct.pack(">I", len(body)) + body


MALFORMED = {
    "invalid-utf8-in-s": _binary_frame(b"s" + struct.pack(">I", 2) + b"\xff\xfe"),
    "non-digits-in-I": _binary_frame(b"I" + struct.pack(">I", 3) + b"12x"),
    "list-as-d-key": _binary_frame(
        b"d" + struct.pack(">I", 1) + b"l" + struct.pack(">I", 0) + b"N"
    ),
    "5000-nested-tuples": _binary_frame(
        (b"t" + struct.pack(">I", 1)) * 5000 + b"N"
    ),
    "json-invalid-utf8": _json_frame(b"\xff\xff"),
    "json-100000-brackets": _json_frame(b"[" * 100_000),
    "json-list-as-d-key": _json_frame(b'{"d":[[{"l":[]},1]]}'),
    "json-non-list-under-tag": _json_frame(b'{"t":5}'),
    "json-nested-past-max-depth": _json_frame(
        b'{"t":[' * 200 + b"]}" * 200
    ),
    "empty-body": _json_frame(b""),
    "p-length-past-the-frame": _binary_frame(
        b"t" + struct.pack(">I", 2) + b"p" + struct.pack(">I", 4) + b"NNN"
    ),
    "p-length-missing": _binary_frame(b"p\x00\x00"),
    "json-p-outside-the-alphabet": _json_frame(b'{"p":"Tk5O!"}'),
    "json-p-bad-padding": _json_frame(b'{"p":"Tk5"}'),
    "json-p-not-a-string": _json_frame(b'{"p":[78]}'),
    "json-p-non-ascii": _json_frame(b'{"p":"Tk5\\u00e9"}'),
}


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_frame_is_a_frame_error(frame):
    with pytest.raises(FrameError):
        list(FrameDecoder().feed(frame))


def test_nesting_is_capped_at_max_depth_in_both_codecs():
    def nested(depth):
        value = None
        for _ in range(depth):
            value = (value,)
        return value

    for codec in (JSON_CODEC, BINARY_CODEC):
        at_cap = codec.encode_frame(nested(MAX_DEPTH))
        assert _decode_one(at_cap) == nested(MAX_DEPTH)
        with pytest.raises(FrameError, match="MAX_DEPTH"):
            _decode_one(codec.encode_frame(nested(MAX_DEPTH + 1)))


def test_malformed_frame_ends_the_read_loop_quietly():
    """The transport's reader treats a bad frame like a dropped
    connection; an untyped exception would kill the task unretrieved."""
    import asyncio

    from repro.net.transport import AddressBook, AsyncTransport

    async def scenario():
        book = AddressBook()
        server = AsyncTransport("node0", book)
        host, port = await server.start_server()
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(MALFORMED["invalid-utf8-in-s"])
        await writer.drain()
        await asyncio.sleep(0.05)
        # the server hung up on us; its loop saw no stray exception
        closed = await _reader.read()
        writer.close()
        await server.close()
        return closed

    errors = []
    loop = asyncio.new_event_loop()
    loop.set_exception_handler(lambda _loop, context: errors.append(context))
    try:
        assert loop.run_until_complete(scenario()) == b""
    finally:
        loop.close()
    assert errors == []


def _unpack_all(value):
    """Unpack every :class:`Packed` in ``value``, and those inside."""
    if type(value) is Packed:
        _unpack_all(value.unpack())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _unpack_all(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            _unpack_all(key)
            _unpack_all(item)


@settings(max_examples=300, deadline=None)
@given(payloads, st.sampled_from(["json", "binary"]), st.data())
def test_any_mutation_or_truncation_decodes_or_raises_frame_error(
    value, codec_name, data
):
    """Fuzz: one flipped byte or a cut anywhere in a valid frame of
    either codec yields a value, an incomplete frame, or FrameError,
    and so does unpacking whatever packed bytes the value carries."""
    frame = bytearray(get_codec(codec_name).encode_frame(value))
    if data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(frame) - 1))
        frame[index] = data.draw(st.integers(0, 255))
    else:
        cut = data.draw(st.integers(4, len(frame)))
        # keep the announced length: the body is what is cut short
        frame[:4] = struct.pack(">I", cut - 4)
        del frame[cut:]
    try:
        for decoded in FrameDecoder().feed(bytes(frame)):
            _unpack_all(decoded)
    except FrameError:
        pass


# ---------------------------------------------------------------------------
# how the two formats compare in size (no code rests on it since decrees
# are packed: a fact about plain values, which old WALs still hold)
# ---------------------------------------------------------------------------

#: the codec's whole value space, the awkward corners included
wide_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=20)
    | st.text(alphabet=st.characters(max_codepoint=0x1F), max_size=20)
    | st.text(alphabet=st.characters(min_codepoint=0x10000), max_size=8)
)
wide_hashable = st.recursive(
    wide_scalars.filter(lambda v: v == v),  # nan keys never compare equal
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=8,
)
wide_payloads = st.recursive(
    wide_scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(wide_hashable, children, max_size=5)
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(wide_payloads)
def test_a_frame_is_its_body_plus_a_fixed_header(value):
    """What ``SlotPipeline._fits`` adds up: a frame's size is its body's
    plus a constant, in both codecs."""
    binary = len(BINARY_CODEC.encode_body(value))
    journal = len(JSON_CODEC.encode_body(value))
    assert len(BINARY_CODEC.encode_frame(value)) == 4 + 1 + binary
    assert len(JSON_CODEC.encode_frame(value)) == 4 + journal


@pytest.mark.parametrize(
    "value",
    [
        False,
        [False] * 50,
        {None: False, True: False, False: False},
        "\x00" * 40,
        "\x7f\x1f" * 20,
        "🧪" * 40,
        "é" * 40,
        -(2 ** 63),
        -1.7976931348623157e308,
        (),
        [[], [[]], {}],
        {"": ""},
    ],
    ids=repr,
)
def test_six_times_bound_at_its_worst_cases(value):
    assert len(JSON_CODEC.encode_body(value)) + 1 <= 6 * len(
        BINARY_CODEC.encode_body(value)
    )


# ---------------------------------------------------------------------------
# packed values: carried as bytes, parsed on demand
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_packed_value_crosses_both_codecs_unread_and_unpacks(value):
    whole = pack(value)
    for codec in (JSON_CODEC, BINARY_CODEC):
        carried = _decode_one(codec.encode_frame(("q-accept", whole)))[1]
        assert type(carried) is Packed and carried == whole
        assert hash(carried) == hash(whole)
        assert carried._value is not value  # nothing was parsed on the way
        assert carried.unpack() == value
        assert carried.unpack() is carried.unpack()  # decoded once, kept


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=100))
def test_packed_size_is_the_size_in_a_body(raw):
    for codec in (JSON_CODEC, BINARY_CODEC):
        assert codec.packed_size(len(raw)) == len(
            codec.encode_body(Packed(raw))
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(payloads, max_size=5))
def test_tuple_body_of_bodies_is_the_body_of_the_tuple(values):
    assert tuple_body(
        [BINARY_CODEC.encode_body(v) for v in values]
    ) == BINARY_CODEC.encode_body(tuple(values))


def test_packed_is_equal_and_hashed_by_its_bytes():
    one, same, real = pack(1), pack(1), pack(1.0)
    assert one == same and hash(one) == hash(same)
    assert len({one, same, real}) == 2
    # finer than == on the values, and never equal to a plain value
    assert one.unpack() == real.unpack() and one != real
    assert one != 1 and one != (1,)
    # an attached value is trusted and never decoded
    assert Packed(b"\xff", "kept").unpack() == "kept"
    assert Packed(b"\xff", "kept") == Packed(b"\xff")


#: bytes the codecs carry and ``unpack`` refuses: the frame decoder's
#: whole taxonomy, one of each
UNPACKABLE = {
    "empty": b"",
    "truncated": b"t" + struct.pack(">I", 3) + b"N",
    "bad-utf8": b"s" + struct.pack(">I", 2) + b"\xff\xfe",
    "unknown-tag": b"Z",
    "trailing-bytes": b"NN",
    "past-max-depth": (b"t" + struct.pack(">I", 1)) * (MAX_DEPTH + 1) + b"N",
    "magic-byte-included": bytes([BINARY_MAGIC]) + b"N",
    "inner-length-past-the-end": b"p" + struct.pack(">I", 9) + b"N",
}


@pytest.mark.parametrize("raw", UNPACKABLE.values(), ids=UNPACKABLE.keys())
def test_unpacking_bad_bytes_is_a_frame_error_and_carrying_them_is_not(raw):
    for codec in (JSON_CODEC, BINARY_CODEC):
        carried = _decode_one(codec.encode_frame((Packed(raw),)))[0]
        assert carried == raw
        for _ in range(2):  # a failure is not cached as a value
            with pytest.raises(FrameError):
                carried.unpack()


def test_nested_packed_values_unpack_one_level_at_a_time():
    """Depth is counted per ``unpack``: bytes in bytes a thousand deep
    cost the interpreter no stack, and a packed leaf under
    ``MAX_DEPTH`` containers is a leaf in both codecs."""
    value = "core"
    for _ in range(1000):
        value = pack(("layer", value))
    for codec in (JSON_CODEC, BINARY_CODEC):
        if codec.packed_size(len(value)) > MAX_FRAME:
            continue
        carried = _decode_one(codec.encode_frame(value))
        for _ in range(1000):
            layer, carried = carried.unpack()
            assert layer == "layer"
        assert carried == "core"
    leaf = pack(("x", 1))
    for _ in range(MAX_DEPTH):
        leaf = (leaf,)
    for codec in (JSON_CODEC, BINARY_CODEC):
        assert _decode_one(codec.encode_frame(leaf)) == leaf


def test_strict_base64_is_what_the_json_codec_writes():
    raw = bytes(range(256))
    body = JSON_CODEC.encode_body(Packed(raw))
    assert body == b'{"p":"%b"}' % base64.b64encode(raw)
    assert decode_payload({"p": ""}) == Packed(b"")


# ---------------------------------------------------------------------------
# the broadcast splice
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["json", "binary"]),
    st.lists(
        st.tuples(
            hashable_payloads, hashable_payloads, st.integers(0, 2)
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(payloads, min_size=3, max_size=3),
)
def test_spliced_frame_equals_plain_frame(codec_name, sends, messages):
    """Whatever the order of sends — the same message to consecutive
    destinations, or again after a different one — a frame built
    through the memo is byte for byte the plain frame."""
    codec = get_codec(codec_name)
    memo = BodyMemo()
    for src, dst, which in sends:
        envelope = (src, dst, messages[which])
        assert codec.encode_frame(envelope, memo) == codec.encode_frame(
            envelope
        )


def test_memo_encodes_a_broadcast_body_once():
    message = ("q-propose", ("batch", tuple(KV_COMMANDS)))
    for codec in (JSON_CODEC, BINARY_CODEC):
        calls = []
        memo = BodyMemo()

        class Spy(type(codec)):
            def encode_body(self, value):
                calls.append(value)
                return super().encode_body(value)

        spy = Spy()
        for i in range(3):
            spy.encode_frame((PIDS[-1], ("qs", 3, i), message), memo)
        assert [v for v in calls if v is message] == [message]


def test_subclass_instances_encode_as_their_builtin_base():
    """The binary encoder dispatches on exact type; a namedtuple, an
    IntEnum or a str subclass must still take its base's path."""
    import collections
    import enum

    Point = collections.namedtuple("Point", "x y")

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    value = (Point(1, 2), Level.HIGH, Name("n"), collections.OrderedDict(a=1))
    plain = ((1, 2), 3, "n", {"a": 1})
    for codec in (JSON_CODEC, BINARY_CODEC):
        assert codec.encode_frame(value) == codec.encode_frame(plain)
