"""Unit tests for ClientHello wire encoding and parsing."""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tlslib.clienthello import ClientHello
from repro.tlslib.errors import TLSParseError
from repro.tlslib.extensions import ExtensionType
from repro.tlslib.grease import GREASE_VALUES
from repro.tlslib.versions import TLSVersion


def hello(**kwargs):
    defaults = dict(version=TLSVersion.TLS_1_2,
                    ciphersuites=[0xC02F, 0x009C, 0x000A],
                    extensions=[0, 10, 11, 13],
                    sni="device.vendor.com",
                    random=bytes(range(32)))
    defaults.update(kwargs)
    return ClientHello(**defaults)


class TestConstruction:
    def test_random_generated_when_missing(self):
        built = ClientHello(version=TLSVersion.TLS_1_2,
                            ciphersuites=[0xC02F])
        assert len(built.random) == 32

    def test_bad_random_length_rejected(self):
        with pytest.raises(ValueError):
            ClientHello(version=TLSVersion.TLS_1_2, ciphersuites=[0xC02F],
                        random=b"short")

    def test_sni_implies_server_name_extension(self):
        built = ClientHello(version=TLSVersion.TLS_1_2,
                            ciphersuites=[0xC02F], extensions=[10],
                            sni="a.b.com")
        assert built.extensions[0] == int(ExtensionType.SERVER_NAME)

    def test_grease_accessors(self):
        built = hello(ciphersuites=[0x0A0A, 0xC02F],
                      extensions=[0, 0x0A0A, 10])
        assert built.uses_grease_suites
        assert built.uses_grease_extensions
        assert built.suites_without_grease() == [0xC02F]
        assert 0x0A0A not in built.extensions_without_grease()


class TestRoundTrip:
    def test_basic_roundtrip(self):
        original = hello()
        parsed = ClientHello.from_bytes(original.to_bytes())
        assert parsed.version == original.version
        assert parsed.ciphersuites == list(original.ciphersuites)
        assert parsed.extensions == list(original.extensions)
        assert parsed.sni == original.sni
        assert parsed.random == original.random

    def test_roundtrip_without_extensions(self):
        original = hello(extensions=[], sni=None)
        parsed = ClientHello.from_bytes(original.to_bytes())
        assert parsed.extensions == []
        assert parsed.sni is None

    def test_roundtrip_with_session_id(self):
        original = hello(session_id=b"\x01\x02\x03")
        parsed = ClientHello.from_bytes(original.to_bytes())
        assert parsed.session_id == b"\x01\x02\x03"

    def test_roundtrip_all_versions(self):
        for version in TLSVersion:
            parsed = ClientHello.from_bytes(hello(version=version).to_bytes())
            assert parsed.version == version

    def test_large_suite_list(self):
        suites = list(range(0x0001, 0x0100, 3))
        parsed = ClientHello.from_bytes(hello(ciphersuites=suites).to_bytes())
        assert parsed.ciphersuites == suites

    def test_reencode_is_stable(self):
        wire = hello().to_bytes()
        assert ClientHello.from_bytes(wire).to_bytes() == wire


class TestParseErrors:
    def test_wrong_message_type(self):
        wire = bytearray(hello().to_bytes())
        wire[0] = 0x02  # ServerHello type
        with pytest.raises(TLSParseError):
            ClientHello.from_bytes(bytes(wire))

    def test_truncated_body(self):
        wire = hello().to_bytes()
        with pytest.raises(TLSParseError):
            ClientHello.from_bytes(wire[: len(wire) // 2])

    def test_odd_suite_vector(self):
        original = hello(extensions=[], sni=None)
        wire = bytearray(original.to_bytes())
        # Grow the declared suite-vector length by one byte.
        offset = 4 + 2 + 32 + 1  # type+len, version, random, empty sid
        length = int.from_bytes(wire[offset:offset + 2], "big")
        wire[offset:offset + 2] = (length + 1).to_bytes(2, "big")
        with pytest.raises(TLSParseError):
            ClientHello.from_bytes(bytes(wire))

    def test_unknown_version_rejected(self):
        wire = bytearray(hello().to_bytes())
        wire[4:6] = (0x0909).to_bytes(2, "big")
        with pytest.raises(TLSParseError):
            ClientHello.from_bytes(bytes(wire))

    def test_empty_input(self):
        with pytest.raises(TLSParseError):
            ClientHello.from_bytes(b"")

    def test_no_null_compression(self):
        wire = bytearray(hello(extensions=[], sni=None).to_bytes())
        # The compression vector is the last two bytes: length 1, method 0.
        assert wire[-2:] == b"\x01\x00"
        wire[-1] = 0x01
        with pytest.raises(TLSParseError, match="null compression"):
            ClientHello.from_bytes(bytes(wire))

    @staticmethod
    def _with_extension_blob(blob):
        """A wire hello whose extension vector is exactly ``blob``."""
        wire = hello(extensions=[], sni=None).to_bytes()
        body = wire[4:] + len(blob).to_bytes(2, "big") + blob
        return b"\x01" + len(body).to_bytes(3, "big") + body

    @pytest.mark.parametrize("blob", [
        b"\x00",                    # half an extension type
        b"\x00\x0a\x00",            # type, half a length
        b"\x00\x0a\x00\x05\x00",    # body shorter than declared
        b"\x00\x0a\x00\x00\x00",    # second extension cut short
    ])
    def test_truncated_extensions(self, blob):
        with pytest.raises(TLSParseError, match="truncated"):
            ClientHello.from_bytes(self._with_extension_blob(blob))

    def test_empty_extension_bodies_parse(self):
        parsed = ClientHello.from_bytes(
            self._with_extension_blob(b"\x00\x0a\x00\x00\x00\x00\x00\x00"))
        assert parsed.extensions == [10, 0]
        assert parsed.sni is None

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: b"\x01" + tail),
        st.tuples(st.integers(min_value=0, max_value=200),
                  st.binary(max_size=40)).map(
            lambda cut: _mutated_wire(*cut)),
    ))
    def test_arbitrary_bytes_parse_or_raise_parse_error(self, data):
        try:
            parsed = ClientHello.from_bytes(data)
        except TLSParseError:
            return
        assert isinstance(parsed, ClientHello)


def _mutated_wire(cut, junk):
    """A valid hello cut at ``cut`` bytes with ``junk`` appended."""
    wire = hello().to_bytes()
    return wire[:cut] + junk


#: Wire bytes of the encoder that built the suite vector one
#: ``struct.pack(">H", code)`` at a time; the encoder must keep them.
GOLDEN_WIRE = [
    (dict(ciphersuites=[0xC02F, 0xC030, 0x009C, 0x00FF],
          extensions=[0, 10, 11, 13], sni="api.example.com"),
     "010000550303000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f000008c02fc030009c00ff0100002400000014001200000f6170692e6578"
     "616d706c652e636f6d000a0000000b0000000d0000"),
    # GREASE suites and extensions, supported_versions, a session id.
    (dict(ciphersuites=[0x0A0A, 0x1301, 0x1302, 0xC02B, 0x5600],
          extensions=[0x1A1A, 0, 43, 10, 0xFAFA], sni="iot.vendor.net",
          session_id=b"\x07" * 32),
     "0100007d0303000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f200707070707070707070707070707070707070707070707070707070707"
     "070707000a0a0a13011302c02b56000100002a1a1a000000000013001100000e696f"
     "742e76656e646f722e6e6574002b0003020303000a0000fafa0000"),
    (dict(version=TLSVersion.TLS_1_0, ciphersuites=[0x0005, 0x000A],
          extensions=[], sni=None),
     "0100002b0301000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f0000040005000a0100"),
    (dict(ciphersuites=[], extensions=[43], sni=None),
     "010000300303000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
     "1c1d1e1f00000001000007002b0003020303"),
]


def _seeded_hellos(count=200, seed=12):
    """A fixed mix of hellos: random suites, GREASE, SNI, session ids."""
    rng = random.Random(seed)
    grease = sorted(GREASE_VALUES)
    versions = list(TLSVersion)
    for i in range(count):
        suites = [rng.randrange(0x10000) for _ in range(rng.randrange(0, 40))]
        if rng.random() < 0.3:
            suites.insert(0, rng.choice(grease))
        exts = rng.sample([0, 5, 10, 11, 13, 16, 23, 35, 43, 45, 51, 65281],
                          rng.randrange(0, 8))
        if rng.random() < 0.3:
            exts.append(rng.choice(grease))
        sni = (f"host{i}.example{rng.randrange(9)}.com"
               if rng.random() < 0.7 else None)
        yield ClientHello(
            version=rng.choice(versions), ciphersuites=suites,
            extensions=exts, sni=sni,
            random=bytes(rng.getrandbits(8) for _ in range(32)),
            session_id=bytes(rng.getrandbits(8)
                             for _ in range(rng.choice([0, 32]))))


class TestGoldenWire:
    @pytest.mark.parametrize("fields,expected", GOLDEN_WIRE)
    def test_encoding_is_byte_identical(self, fields, expected):
        assert hello(**fields).to_bytes().hex() == expected

    def test_seeded_mix_digest(self):
        digest = hashlib.sha256()
        for built in _seeded_hellos():
            digest.update(built.to_bytes())
        assert digest.hexdigest() == (
            "f2ce8d6e4f0f6e0401a1080684174a755fd7b21c9970d26693f79fae1440d634")

    def test_seeded_mix_round_trips(self):
        for built in _seeded_hellos():
            parsed = ClientHello.from_bytes(built.to_bytes())
            assert parsed.ciphersuites == built.ciphersuites
            assert parsed.extensions == built.extensions
            assert parsed.sni == built.sni
