"""Unit tests for the probing substrate (authorities, network, prober)."""

import pytest

from repro.core.issuers import leaf_issuer_org
from repro.inspector.timeline import CAPTURE_END, PROBE_TIME
from repro.probing.authorities import (
    NETFLIX_PUBLIC_CHAINED,
    PRIVATE_CAS,
    PUBLIC_CAS,
    AuthorityEcosystem,
)
from repro.probing.network import UNREACHABLE_AFTER, UnreachableError
from repro.probing.prober import Prober
from repro.probing.vantage import VANTAGE_POINTS
from repro.x509.validation import ChainStatus


class TestAuthorityEcosystem:
    def test_33_issuer_organizations(self, study):
        assert len(study.ecosystem.issuer_organizations()) == 33
        assert len(PUBLIC_CAS) == 16
        assert len(PRIVATE_CAS) == 17

    def test_public_private_categorization(self, study):
        ecosystem = study.ecosystem
        assert ecosystem.is_public_trust("DigiCert")
        assert ecosystem.is_public_trust("Amazon")
        assert not ecosystem.is_public_trust("Roku")
        assert not ecosystem.is_public_trust("Netflix")

    def test_union_store_holds_all_public_roots(self, study):
        for ca in study.ecosystem.public.values():
            assert study.ecosystem.union_store.contains(ca.root)

    def test_private_roots_not_in_stores(self, study):
        for ca in study.ecosystem.private.values():
            assert not study.ecosystem.union_store.contains(ca.root)

    def test_netflix_chained_issuer(self, study):
        chained = study.ecosystem.issuer(NETFLIX_PUBLIC_CHAINED)
        leaf, _key = chained.issue_leaf("api.netflix.com", now=PROBE_TIME)
        assert leaf_issuer_org(leaf) == "Netflix"
        # The chain validates against the public VeriSign root.
        report = study.validator().validate(
            chained.chain_for(leaf), at=PROBE_TIME + 86_400,
            hostname="api.netflix.com")
        assert report.status is ChainStatus.OK

    def test_unknown_issuer_rejected(self, study):
        with pytest.raises(KeyError):
            study.ecosystem.issuer("Nonexistent CA")


class TestNetwork:
    def test_all_snis_have_endpoints(self, study, network):
        assert set(network.endpoints) == {s.fqdn for s in
                                          study.world.servers}

    def test_unreachable_hosts_raise_after_cutoff(self, study, network):
        dead = next(s for s in study.world.servers if s.unreachable)
        hello = Prober(network)._hello(dead.fqdn)
        from repro.tlslib.handshake import TLSClient
        flight = TLSClient().first_flight(hello)
        with pytest.raises(UnreachableError):
            network.connect(dead.fqdn, flight, at=PROBE_TIME)
        # The same host still answered during the capture window.
        assert network.connect(dead.fqdn, flight, at=CAPTURE_END)

    def test_cutoff_constant_sane(self):
        assert CAPTURE_END < UNREACHABLE_AFTER < PROBE_TIME

    def test_shared_certificates_identical(self, study, network):
        groups = {}
        for spec in study.world.servers:
            if spec.share:
                groups.setdefault(spec.share, []).append(spec.fqdn)
        shared = [fqdns for fqdns in groups.values() if len(fqdns) > 1]
        assert shared, "expected shared certificate groups"
        for fqdns in shared[:10]:
            prints = {network.endpoint(f).leaf("us").fingerprint()
                      for f in fqdns}
            assert len(prints) == 1

    def test_geo_variants_differ(self, study, network):
        spec = next(s for s in study.world.servers if s.geo_variant)
        endpoint = network.endpoint(spec.fqdn)
        assert endpoint.leaf("us").fingerprint() != \
            endpoint.leaf("eu").fingerprint()

    def test_non_variant_same_everywhere(self, study, network):
        spec = next(s for s in study.world.servers
                    if not s.geo_variant and not s.unreachable)
        endpoint = network.endpoint(spec.fqdn)
        assert endpoint.leaf("us").fingerprint() == \
            endpoint.leaf("asia").fingerprint()

    def test_leaf_covers_host(self, study, network):
        for spec in study.world.reachable_servers()[:40]:
            if spec.cn_mismatch:
                continue
            assert network.endpoint(spec.fqdn).leaf("us").covers_host(
                spec.fqdn), spec.fqdn

    def test_cn_mismatch_leaf_does_not_cover(self, network):
        endpoint = network.endpoint("a2.tuyaus.com")
        assert not endpoint.leaf("us").covers_host("a2.tuyaus.com")

    def test_historical_reissue_same_issuer(self, study, network):
        # Pick a short-lived public certificate and rewind to 2019.
        spec = next(s for s in study.world.reachable_servers()
                    if s.issuer == "DigiCert" and not s.geo_variant
                    and s.chain == "ok" and not s.share)
        now_chain = network.chain_at(spec.fqdn, at=PROBE_TIME)
        then_chain = network.chain_at(spec.fqdn, at=CAPTURE_END)
        assert then_chain[0].is_time_valid(CAPTURE_END)
        assert leaf_issuer_org(now_chain[0]) == \
            leaf_issuer_org(then_chain[0])
        assert now_chain[0].fingerprint() != then_chain[0].fingerprint()

    def test_ip_assignment(self, study, network):
        for spec in study.world.servers[:50]:
            endpoint = network.endpoint(spec.fqdn)
            assert len(endpoint.ips) >= 1


class TestProber:
    def test_probe_one_success(self, study, network):
        spec = study.world.reachable_servers()[0]
        result = Prober(network).probe_one(spec.fqdn, VANTAGE_POINTS[0])
        assert result.reachable
        assert result.leaf is not None
        assert result.negotiated_version is not None

    def test_probe_one_unreachable(self, study, network):
        dead = next(s for s in study.world.servers if s.unreachable)
        result = Prober(network).probe_one(dead.fqdn, VANTAGE_POINTS[0])
        assert not result.reachable
        assert result.error

    def test_probe_all_covers_vantages(self, certificates):
        assert certificates.vantages() == ["frankfurt", "new-york",
                                           "singapore"]

    def test_dataset_counts(self, certificates):
        assert len(certificates.reachable_fqdns()) == 1151
        leaves = certificates.leaf_certificates()
        assert 700 <= len(leaves) <= 900

    def test_memo_returns_equal_certificates_for_shared_cert(
            self, study, network):
        groups = {}
        for spec in study.world.reachable_servers():
            if spec.share and not spec.geo_variant:
                groups.setdefault(spec.share, []).append(spec.fqdn)
        fqdns = next(f for f in groups.values() if len(f) > 1)
        prober = Prober(network)
        first, second = (prober.probe_one(fqdn, VANTAGE_POINTS[0])
                         for fqdn in fqdns[:2])
        assert first.leaf.to_der() == second.leaf.to_der()
        assert first.leaf is second.leaf
        fresh = Prober(network).probe_one(fqdns[1], VANTAGE_POINTS[0])
        assert fresh.chain == second.chain
        assert fresh.signature_bytes() == second.signature_bytes()

    def test_chain_parsed_from_wire(self, study, certificates):
        # Every returned certificate went through DER bytes.
        result = certificates.result(
            study.world.reachable_servers()[0].fqdn)
        for certificate in result.chain:
            assert certificate.to_der()

    def test_ip_sharing_stats(self, certificates, network):
        ips = certificates.ips_by_leaf(network)
        multi = sum(1 for v in ips.values() if len(v) > 1)
        assert 0.5 <= multi / len(ips) <= 0.85    # paper: 64.96%
        assert max(len(v) for v in ips.values()) <= 93
