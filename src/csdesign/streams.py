"""Named deterministic random streams.

Every source of randomness in the library draws from a counter-based
Philox generator keyed by ``(seed, label)``.  Labels are short strings
naming the purpose of the stream ("dictionary", "codes", "noise", ...),
hashed to a 64-bit key, so adding a new consumer of randomness never
perturbs the draws of an existing one.  Identical ``(seed, label)``
pairs always reproduce the same stream, on any platform.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

__all__ = ["stream", "derive_seed"]

_MASK64 = (1 << 64) - 1


def _label_key(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the deterministic generator for stream `label` under `seed`.

    Parameters
    ----------
    seed : int
        Root seed, taken modulo 2**64.
    label : str
        Name of the stream, e.g. ``"noise"`` or ``"phi0"``.
    """
    return np.random.Generator(
        np.random.Philox(key=[operator.index(seed) & _MASK64, _label_key(label)])
    )


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from `(seed, label)`.

    Used by sweep harnesses to give every grid point its own root seed;
    the child is itself expanded into named streams.
    """
    payload = (operator.index(seed) & _MASK64).to_bytes(8, "little") + label.encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
