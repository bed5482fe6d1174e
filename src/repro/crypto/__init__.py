"""Cryptographic layer: bilinear groups, SSW predicate encryption, encoding."""

from repro.crypto.recordcipher import RecordCipher
from repro.crypto.serialize import (
    PAPER_ELEMENT_BYTES,
    ElementSizeModel,
    deserialize_ciphertext,
    deserialize_token,
    serialize_ciphertext,
    serialize_token,
)
from repro.crypto.ssw import (
    SSWCiphertext,
    SSWSecretKey,
    SSWToken,
    ssw_encrypt,
    ssw_gen_token,
    ssw_prepare_tokens,
    ssw_query,
    ssw_query_element_count,
    ssw_query_pairing_count,
    ssw_setup,
)

__all__ = [
    "PAPER_ELEMENT_BYTES",
    "RecordCipher",
    "ElementSizeModel",
    "SSWCiphertext",
    "SSWSecretKey",
    "SSWToken",
    "deserialize_ciphertext",
    "deserialize_token",
    "serialize_ciphertext",
    "serialize_token",
    "ssw_encrypt",
    "ssw_gen_token",
    "ssw_prepare_tokens",
    "ssw_query",
    "ssw_query_element_count",
    "ssw_query_pairing_count",
    "ssw_setup",
]
