"""CPython's builtin hash modules, which need no OpenSSL.

``instances.instance_hash`` takes its SHA-256 from here, and ``cli.run``
asks here whether ``hashlib`` can serve without OpenSSL's ``_hashlib``.
This module imports neither numpy nor ``hashlib``.
"""

import sys
from importlib.util import find_spec

#: The builtin modules that ``hashlib`` serves every algorithm from
#: when ``_hashlib`` is missing; the first holds SHA-256.
_BUILTINS = (
    ("_sha2", "_md5", "_sha1", "_sha3", "_blake2")
    if sys.version_info >= (3, 12)
    else ("_sha256", "_sha512", "_md5", "_sha1", "_sha3", "_blake2")
)


def builtin_sha256():
    """The ``sha256`` constructor of CPython's builtin module (``_sha2``
    on Python 3.12+, ``_sha256`` on 3.10 and 3.11), or None for an
    interpreter built without it."""
    try:
        return __import__(_BUILTINS[0]).sha256
    except ImportError:
        return None


def hashlib_needs_no_openssl() -> bool:
    """Whether every module in ``_BUILTINS`` is present, so ``hashlib``
    imports without ``_hashlib`` and logs no missing algorithm.  The
    modules are looked up, not loaded."""
    return all(find_spec(name) is not None for name in _BUILTINS)
