"""Fuzzy-extractor key services and the encrypted toy-accelerator frontend."""

from .aead import AeadBox, CipheredBlob
from .fuzzy import HelperData, SecretKey, fe_generate, fe_reproduce
from .netservice import (SecureAccelerator, decode_network, decode_vector,
                         encode_network, encode_vector, reference_forward)

__all__ = [
    "AeadBox", "CipheredBlob", "HelperData", "SecretKey", "SecureAccelerator",
    "decode_network", "decode_vector", "encode_network", "encode_vector",
    "fe_generate", "fe_reproduce", "reference_forward",
]
