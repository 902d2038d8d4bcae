"""Unit tests for the ciphersuite registry and security classification."""

import pytest

from repro.tlslib.ciphersuites import (
    EMPTY_RENEGOTIATION_INFO_SCSV,
    FALLBACK_SCSV,
    REGISTRY,
    SecurityLevel,
    classify_suite,
    codes_by_names,
    suite_by_code,
    suite_by_name,
)


class TestRegistryIntegrity:
    def test_codes_match_keys(self):
        for code, suite in REGISTRY.items():
            assert suite.code == code

    def test_names_unique(self):
        names = [suite.name for suite in REGISTRY.values()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        suite = suite_by_name("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256")
        assert suite.code == 0xC02F

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            suite_by_name("TLS_NOT_A_SUITE")

    def test_every_real_suite_has_components(self):
        for suite in REGISTRY.values():
            if not suite.is_signaling:
                assert suite.kx
                assert suite.cipher


class TestNameParsing:
    def test_gcm_suite_components(self):
        suite = suite_by_code(0xC02F)
        assert suite.kx == "ECDHE_RSA"
        assert suite.cipher == "AES_128_GCM"
        assert suite.mac == "AEAD"
        assert suite.prf_hash == "SHA256"

    def test_cbc_suite_components(self):
        suite = suite_by_name("TLS_RSA_WITH_AES_128_CBC_SHA")
        assert suite.components() == ("RSA", "AES_128_CBC", "SHA")

    def test_3des_components(self):
        suite = suite_by_name("TLS_RSA_WITH_3DES_EDE_CBC_SHA")
        assert suite.cipher == "3DES_EDE_CBC"

    def test_anon_normalized(self):
        suite = suite_by_name("TLS_DH_anon_WITH_AES_128_CBC_SHA")
        assert suite.kx == "DH_ANON"
        assert suite.is_anon

    def test_krb5_export_cipher(self):
        suite = suite_by_name("TLS_KRB5_EXPORT_WITH_DES_CBC_40_SHA")
        assert suite.kx == "KRB5_EXPORT"
        assert suite.is_export

    def test_ccm_without_hash_is_aead(self):
        suite = suite_by_name("TLS_RSA_WITH_AES_128_CCM")
        assert suite.mac == "AEAD"
        assert suite.prf_hash is None

    def test_tls13_suite(self):
        suite = suite_by_name("TLS_AES_128_GCM_SHA256")
        assert suite.kx == "TLS13"
        assert suite.is_pfs

    def test_null_cipher(self):
        suite = suite_by_name("TLS_RSA_WITH_NULL_SHA256")
        assert suite.is_null_cipher


class TestSecurityClassification:
    @pytest.mark.parametrize("name,expected", [
        ("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", SecurityLevel.OPTIMAL),
        ("TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256",
         SecurityLevel.OPTIMAL),
        ("TLS_AES_256_GCM_SHA384", SecurityLevel.OPTIMAL),
        ("TLS_RSA_WITH_AES_128_GCM_SHA256", SecurityLevel.SUBOPTIMAL),
        ("TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA", SecurityLevel.SUBOPTIMAL),
        ("TLS_RSA_WITH_AES_256_CBC_SHA", SecurityLevel.SUBOPTIMAL),
        ("TLS_RSA_WITH_RC4_128_SHA", SecurityLevel.VULNERABLE),
        ("TLS_RSA_WITH_3DES_EDE_CBC_SHA", SecurityLevel.VULNERABLE),
        ("TLS_RSA_WITH_DES_CBC_SHA", SecurityLevel.VULNERABLE),
        ("TLS_RSA_EXPORT_WITH_RC4_40_MD5", SecurityLevel.VULNERABLE),
        ("TLS_DH_anon_WITH_AES_128_CBC_SHA", SecurityLevel.VULNERABLE),
        ("TLS_RSA_WITH_NULL_MD5", SecurityLevel.VULNERABLE),
    ])
    def test_levels(self, name, expected):
        assert suite_by_name(name).security_level == expected

    def test_md5_mac_alone_is_not_vulnerable(self):
        # The paper explicitly excludes MD5/SHA-1 MACs from "vulnerable".
        suite = suite_by_name("TLS_RSA_WITH_RC4_128_MD5")
        assert "MD5" not in suite.vulnerable_components()

    def test_vulnerable_components_tags(self):
        suite = suite_by_name("TLS_RSA_EXPORT_WITH_RC2_CBC_40_MD5")
        assert set(suite.vulnerable_components()) == {"EXPORT", "RC2"}

    def test_des40_tagged_des_and_export(self):
        suite = suite_by_name("TLS_RSA_EXPORT_WITH_DES40_CBC_SHA")
        assert set(suite.vulnerable_components()) == {"DES", "EXPORT"}

    def test_3des_not_tagged_des(self):
        suite = suite_by_name("TLS_RSA_WITH_3DES_EDE_CBC_SHA")
        assert suite.vulnerable_components() == ["3DES"]

    def test_vulnerable_components_returns_fresh_list(self):
        suite = suite_by_name("TLS_RSA_EXPORT_WITH_RC2_CBC_40_MD5")
        first = suite.vulnerable_components()
        first.append("POISON")
        first.sort(reverse=True)
        second = suite.vulnerable_components()
        assert second == ["EXPORT", "RC2"]
        assert second is not suite.vulnerable_components()

    def test_clean_suite_memo_cannot_be_poisoned(self):
        suite = suite_by_name("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256")
        suite.vulnerable_components().append("RC4")
        assert suite.vulnerable_components() == []
        assert suite.security_level == SecurityLevel.OPTIMAL


class TestSignalingAndUnknown:
    def test_scsvs_are_signaling(self):
        assert suite_by_code(EMPTY_RENEGOTIATION_INFO_SCSV).is_signaling
        assert suite_by_code(FALLBACK_SCSV).is_signaling

    def test_scsv_has_no_vulnerabilities(self):
        assert suite_by_code(FALLBACK_SCSV).vulnerable_components() == []

    def test_unknown_code_placeholder(self):
        suite = suite_by_code(0x9999)
        assert suite.is_signaling
        assert suite.name == "UNKNOWN_9999"

    def test_grease_code_placeholder(self):
        suite = suite_by_code(0x1A1A)
        assert suite.name.startswith("GREASE_")

    def test_classify_signaling_is_suboptimal(self):
        assert classify_suite(FALLBACK_SCSV) == SecurityLevel.SUBOPTIMAL

    def test_codes_by_names_preserves_order(self):
        names = ["TLS_RSA_WITH_AES_256_CBC_SHA",
                 "TLS_RSA_WITH_AES_128_CBC_SHA"]
        assert codes_by_names(names) == [0x0035, 0x002F]
