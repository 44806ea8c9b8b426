"""SHA-256 and BLAKE2b from CPython's builtin hash modules.

The standard library's OpenSSL-backed hash module loads libcrypto,
about 3.6 MB of resident memory, to give digests that the builtin
modules give byte for byte. So it is imported only as the fallback for
a build without them, as ``random`` does for sha512. SHA-256 lives in
``_sha2`` from Python 3.12 on and in ``_sha256`` before.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
