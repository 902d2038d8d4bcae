"""Certificate Transparency: RFC 6962-style Merkle-tree logs.

Section 5.4 of the paper queries CT (via crt.sh) for every captured leaf.
We model the log ecosystem faithfully enough that "is this certificate
logged?" is a real query against real logs: a :class:`CTLog` is an
append-only Merkle tree over certificate DER with RFC 6962 hashing
(leaf hash ``SHA256(0x00 || entry)``, node hash ``SHA256(0x01 || l || r)``),
signed certificate timestamps on submission, and audit (inclusion) proofs
that verify against the tree head.

Public-trust CAs submit their leafs on issuance (browser CT enforcement);
the private vendor CAs in the study never do — which is precisely the
visibility gap the paper highlights.
"""

import hashlib
from dataclasses import dataclass


def _leaf_hash(entry):
    return hashlib.sha256(b"\x00" + entry).digest()


def _node_hash(left, right):
    return hashlib.sha256(b"\x01" + left + right).digest()


@dataclass(frozen=True)
class SignedCertificateTimestamp:
    """A log's promise to include an entry: log id, index, timestamp."""

    log_id: str
    index: int
    timestamp: int


@dataclass(frozen=True)
class InclusionProof:
    """An RFC 6962 audit path for one leaf."""

    log_id: str
    leaf_index: int
    tree_size: int
    audit_path: tuple


class CTLog:
    """A single append-only certificate transparency log."""

    def __init__(self, log_id):
        self.log_id = log_id
        self._entries = []
        self._index_by_fingerprint = {}

    def __len__(self):
        return len(self._entries)

    def submit(self, certificate, timestamp=0):
        """Append a certificate (idempotent per fingerprint); return an SCT."""
        return self.submit_der(certificate.to_der(), timestamp)

    def submit_der(self, der, timestamp=0):
        """:meth:`submit` for a certificate already encoded as ``der``."""
        fingerprint = hashlib.sha256(der).hexdigest()
        existing = self._index_by_fingerprint.get(fingerprint)
        if existing is not None:
            return SignedCertificateTimestamp(self.log_id, existing, timestamp)
        index = len(self._entries)
        self._entries.append(der)
        self._index_by_fingerprint[fingerprint] = index
        return SignedCertificateTimestamp(self.log_id, index, timestamp)

    def contains(self, certificate):
        return certificate.fingerprint() in self._index_by_fingerprint

    # --- Merkle tree ----------------------------------------------------------

    def tree_head(self):
        """Merkle tree hash over the current entries (RFC 6962 MTH)."""
        return self._mth([_leaf_hash(e) for e in self._entries])

    @classmethod
    def _mth(cls, hashes):
        if not hashes:
            return hashlib.sha256(b"").digest()
        if len(hashes) == 1:
            return hashes[0]
        split = cls._largest_power_of_two_below(len(hashes))
        return _node_hash(cls._mth(hashes[:split]), cls._mth(hashes[split:]))

    @staticmethod
    def _largest_power_of_two_below(n):
        power = 1
        while power * 2 < n:
            power *= 2
        return power

    def prove_inclusion(self, certificate):
        """Return an :class:`InclusionProof`, or None if not logged."""
        index = self._index_by_fingerprint.get(certificate.fingerprint())
        if index is None:
            return None
        hashes = [_leaf_hash(e) for e in self._entries]
        path = self._audit_path(index, hashes)
        return InclusionProof(log_id=self.log_id, leaf_index=index,
                              tree_size=len(hashes), audit_path=tuple(path))

    @classmethod
    def _audit_path(cls, index, hashes):
        if len(hashes) <= 1:
            return []
        split = cls._largest_power_of_two_below(len(hashes))
        if index < split:
            return cls._audit_path(index, hashes[:split]) + [cls._mth(hashes[split:])]
        return (cls._audit_path(index - split, hashes[split:])
                + [cls._mth(hashes[:split])])

    def verify_inclusion(self, certificate, proof):
        """Recompute the tree head from the proof and compare."""
        if proof.log_id != self.log_id or proof.tree_size != len(self._entries):
            return False
        computed = self._root_from_path(
            _leaf_hash(certificate.to_der()), proof.leaf_index,
            proof.tree_size, list(proof.audit_path))
        return computed == self.tree_head()

    @classmethod
    def _root_from_path(cls, leaf_hash, index, size, path):
        if size == 1:
            return leaf_hash if not path else None
        split = cls._largest_power_of_two_below(size)
        sibling = path[-1]
        rest = path[:-1]
        if index < split:
            left = cls._root_from_path(leaf_hash, index, split, rest)
            return None if left is None else _node_hash(left, sibling)
        right = cls._root_from_path(leaf_hash, index - split, size - split, rest)
        return None if right is None else _node_hash(sibling, right)


class CTLogSet:
    """The log ecosystem: several logs queried as one (crt.sh-style)."""

    def __init__(self, log_ids=("argon", "xenon", "nessie")):
        self.logs = [CTLog(log_id) for log_id in log_ids]

    def submit(self, certificate, timestamp=0):
        """Submit to every log (as CAs do to satisfy SCT-count policies)."""
        der = certificate.to_der()
        return [log.submit_der(der, timestamp) for log in self.logs]

    def query(self, certificate):
        """True when any log contains the certificate."""
        return any(log.contains(certificate) for log in self.logs)

    def prove(self, certificate):
        """Inclusion proofs from every log that has the certificate."""
        proofs = (log.prove_inclusion(certificate) for log in self.logs)
        return [proof for proof in proofs if proof is not None]
