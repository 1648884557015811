"""The binary decoder is one loop over an explicit stack.

The oracle's decoder family (``tests/oracle.py``) holds ``decode_body``
and ``FrameDecoder.feed`` to the recursive decoder they replaced, kept
there as the reference: on every body, whole, truncated or with a byte
flipped, they give the same value or all raise ``FrameError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import assert_decoders_agree
from repro.net import codec
from repro.net.codec import (
    BINARY_CODEC,
    BINARY_MAGIC,
    FrameDecoder,
    FrameError,
    decode_body,
)

from .test_net_codec import wide_payloads

MAGIC = bytes([BINARY_MAGIC])


def body_of(value):
    return MAGIC + bytes(BINARY_CODEC.encode_body(value))


@settings(max_examples=400, deadline=None)
@given(wide_payloads, st.data())
def test_a_body_decodes_as_the_recursion_decoded_it(value, data):
    body = body_of(value)
    split = data.draw(st.integers(0, len(body) + 4))
    assert_decoders_agree(body, split)


@settings(max_examples=400, deadline=None)
@given(wide_payloads, st.data())
def test_a_truncated_body_fails_alike(value, data):
    body = body_of(value)
    cut = data.draw(st.integers(1, len(body)))
    assert_decoders_agree(body[:cut], data.draw(st.integers(0, cut + 4)))


@settings(max_examples=400, deadline=None)
@given(wide_payloads, st.data())
def test_a_flipped_byte_decodes_or_fails_alike(value, data):
    body = bytearray(body_of(value))
    at = data.draw(st.integers(1, len(body) - 1)) if len(body) > 1 else 0
    body[at] ^= data.draw(st.integers(1, 255))
    assert_decoders_agree(bytes(body), data.draw(st.integers(0, 8)))


@pytest.mark.parametrize("opener", [b"t", b"l", b"d"])
def test_a_hundred_thousand_deep_frame_is_a_frame_error(opener):
    # a dict's nested value sits behind a key
    level = opener + (1).to_bytes(4, "big") + (b"N" if opener == b"d" else b"")
    body = MAGIC + level * 100_000 + b"N"
    with pytest.raises(FrameError, match="MAX_DEPTH"):
        decode_body(body)
    frame = len(body).to_bytes(4, "big") + body
    with pytest.raises(FrameError, match="MAX_DEPTH"):
        list(FrameDecoder().feed(frame))


def test_a_planted_disagreement_is_reported(monkeypatch):
    """A decoder that reads ``T`` as ``1`` is equal to the reference by
    ``==``; the oracle compares decodings, and must say so."""
    real = codec._binary_decode

    def one_for_true(body, pos):
        if body[pos] == ord("T"):
            return 1, pos + 1
        return real(body, pos)

    monkeypatch.setattr(codec, "_binary_decode", one_for_true)
    assert_decoders_agree(body_of(("a", 2)))
    with pytest.raises(AssertionError, match="the decoders disagree"):
        assert_decoders_agree(body_of(True))
    assert oracle.decode_disagrees(body_of(False)) is None
