"""Seeded workload inputs.

The program under test receives only the operation bytes generated
here, so one seed always yields one input set.  Values are ASCII: the
replicated ``KeyValueStore`` decodes operations as UTF-8 and raises
``BftError`` on anything else, which would abort the whole simulation.
"""

from __future__ import annotations

import random
import string
from typing import List, Tuple

_VALUE_ALPHABET = string.ascii_letters + string.digits


def _value(rng: random.Random, nbytes: int) -> str:
    return "".join(rng.choices(_VALUE_ALPHABET, k=nbytes))


def closed_loop_ops(
    seed: int, clients: int, ops: int, value_bytes: int
) -> List[List[Tuple[int, bytes]]]:
    """Per-client lists of ``(op_index, PUT operation)``.

    Keys are ``user<n>`` with a seeded number of 1 to 6 digits, so the
    request sizes (and with them the modeled wire times) follow the seed.
    Op ``i`` belongs to client ``i % clients``.
    """
    if clients < 1 or ops < clients:
        raise ValueError("need at least one op per client")
    rng = random.Random(seed)
    per_client: List[List[Tuple[int, bytes]]] = [[] for _ in range(clients)]
    for index in range(ops):
        digits = rng.randint(1, 6)
        key = f"user{rng.randrange(10 ** digits)}"
        operation = f"PUT {key}={_value(rng, value_bytes)}".encode("ascii")
        per_client[index % clients].append((index, operation))
    return per_client
