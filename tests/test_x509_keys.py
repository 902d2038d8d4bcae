"""Unit tests for RSA keys and signatures."""

import pickle
import random

import pytest

from repro.x509.errors import SignatureError
from repro.x509.keys import (
    KeyPool, RSAKeyPair, RSAPublicKey, _pad_digest, generate_keypair)


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512, rng=random.Random(7))


class TestGeneration:
    def test_modulus_size(self, keypair):
        assert keypair.public.bit_length == 512
        assert keypair.public.byte_length == 64

    def test_deterministic_given_rng(self):
        a = generate_keypair(512, rng=random.Random(99))
        b = generate_keypair(512, rng=random.Random(99))
        assert a.public.n == b.public.n

    def test_different_seeds_different_keys(self):
        a = generate_keypair(512, rng=random.Random(1))
        b = generate_keypair(512, rng=random.Random(2))
        assert a.public.n != b.public.n

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_public_exponent(self, keypair):
        assert keypair.public.e == 65537


class TestSignVerify:
    def test_sign_verify_roundtrip(self, keypair):
        message = b"the quick brown fox"
        signature = keypair.sign(message)
        keypair.public.verify(message, signature)  # no exception

    def test_signature_deterministic(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_tampered_message_fails(self, keypair):
        signature = keypair.sign(b"original")
        assert not keypair.public.verifies(b"tampered", signature)

    def test_tampered_signature_fails(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[10] ^= 0xFF
        assert not keypair.public.verifies(b"message", bytes(signature))

    def test_wrong_key_fails(self, keypair):
        other = generate_keypair(512, rng=random.Random(55))
        signature = keypair.sign(b"message")
        assert not other.public.verifies(b"message", signature)

    def test_wrong_length_raises(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", b"\x01\x02")

    def test_out_of_range_signature(self, keypair):
        too_big = (keypair.public.n + 1).to_bytes(
            keypair.public.byte_length, "big", signed=False) \
            if keypair.public.n + 1 < 1 << (8 * keypair.public.byte_length) \
            else b"\xff" * keypair.public.byte_length
        with pytest.raises(SignatureError):
            keypair.public.verify(b"m", too_big)

    def test_fingerprint_stability(self, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        other = generate_keypair(512, rng=random.Random(3))
        assert keypair.public.fingerprint() != other.public.fingerprint()


class TestKeyPool:
    def test_cycles_deterministically(self):
        pool_a = KeyPool(size=4, rng=random.Random(0))
        pool_b = KeyPool(size=4, rng=random.Random(0))
        for _ in range(6):
            assert pool_a.take().public.n == pool_b.take().public.n

    def test_wraps_around(self):
        pool = KeyPool(size=2, rng=random.Random(0))
        first = pool.take()
        pool.take()
        assert pool.take().public.n == first.public.n

    def test_default_pool_keys_shared_across_instances(self):
        pool_a, pool_b = KeyPool(), KeyPool()
        assert isinstance(pool_a._keys, tuple)
        assert pool_a._keys is pool_b._keys

    def test_default_pool_take_state_is_per_instance(self):
        pool_a, pool_b = KeyPool(), KeyPool()
        first = pool_a.take()
        pool_a.take()
        assert pool_b.take() is first

    def test_default_pool_matches_fixed_seed(self):
        rng = random.Random(0xC0FFEE)
        expected = [generate_keypair(512, rng=rng) for _ in range(2)]
        pool = KeyPool()
        assert [pool.take(), pool.take()] == expected


class TestCRTSigning:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2023])
    def test_crt_signature_equals_plain_exponentiation(self, seed):
        key = generate_keypair(512, rng=random.Random(seed))
        assert key.crt is not None
        for i in range(8):
            message = b"message %d" % i
            padded = int.from_bytes(
                _pad_digest(message, key.public.byte_length), "big")
            expected = pow(padded, key.d, key.public.n)
            assert int.from_bytes(key.sign(message), "big") == expected

    def test_crt_field_is_consistent(self, keypair):
        p, q, dp, dq, qinv = keypair.crt
        assert p * q == keypair.public.n
        assert dp == keypair.d % (p - 1) and dq == keypair.d % (q - 1)
        assert qinv * q % p == 1

    def test_crt_less_keypair_signs_and_verifies(self, keypair):
        plain = RSAKeyPair(public=keypair.public, d=keypair.d)
        assert plain.crt is None
        signature = plain.sign(b"legacy")
        keypair.public.verify(b"legacy", signature)
        assert signature == keypair.sign(b"legacy")

    def test_crt_takes_no_part_in_equality_or_repr(self, keypair):
        plain = RSAKeyPair(public=keypair.public, d=keypair.d)
        assert plain == keypair
        assert repr(plain) == repr(keypair)

    def test_pickle_without_crt_field_still_signs(self, keypair):
        # A keypair pickled before the field existed restores with no
        # ``crt`` in its state; the class default takes over.
        restored = pickle.loads(pickle.dumps(keypair))
        del restored.__dict__["crt"]
        assert restored.crt is None
        restored.public.verify(b"old", restored.sign(b"old"))
