"""Process-stable seeding for every workload generator family.

Each generator takes its seed as an argument and reads nothing from the
environment, so a seed (a design letter's fixed seed, a family's case
seed, a fuzz ``--seed``) always means the same bytes.

:func:`stable_seed` folds arbitrary labelled parts (ints, strings) into
one seed via SHA-256.  Generators must use this instead of
``hash()``/``tuple.__hash__`` — Python salts string hashing per process
(``PYTHONHASHSEED``), so a ``hash()``-derived seed silently breaks
cross-process reproducibility.
"""

from __future__ import annotations

import hashlib
import random


def stable_seed(*parts: object) -> int:
    """A process-independent seed from labelled parts.

    Unlike ``hash(tuple)``, the result never depends on
    ``PYTHONHASHSEED``: two processes (a run and its resume, a worker
    and its supervisor) always derive the same seed from the same
    parts.
    """
    digest = hashlib.sha256(
        "\x00".join(repr(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stable_rng(*parts: object) -> random.Random:
    """A ``random.Random`` seeded via :func:`stable_seed`."""
    return random.Random(stable_seed(*parts))
