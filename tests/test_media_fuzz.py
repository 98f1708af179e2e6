"""Mutation fuzz over every MediaParser subclass.

Each parser gets one batch of clean fixture payloads interleaved with
seeded truncate / bit-flip / splice mutants plus ``b""`` and a null:
no exception may escape, the output schema must not depend on the
poison, every dead-lettered row is all-null, and every clean row must
equal its row from a clean-only batch (poison never leaks into its
neighbours).  Stdlib ``random`` only, so the run is reproducible.
"""

import random

import pyarrow as pa
import pytest

from alco_ray.stages import jpeg  # noqa: F401  (registers JpegDecoder)
from alco_ray.stages.multimodal import MediaParser


def _subclasses(cls) -> list:
    """Every subclass, also of subclasses: a parser that shares its
    fixture by inheritance is fuzzed too."""
    return [c for sub in cls.__subclasses__()
            for c in (sub, *_subclasses(sub))]


#: a parser with no fixture (``media_type`` and ``payload``, its own or
#: inherited) fails both tests below, so no parser skips fuzzing
PARSERS = _subclasses(MediaParser)
N_CLEAN = 12        # covers every fixture's id-rotated branches
N_MUTANTS = 300


def _clean_payloads(cls) -> list:
    ids = pa.table({"doc_id": pa.array(range(N_CLEAN), pa.int64())})
    return cls.encode(ids)["payload"].to_pylist()


def _mutant(rng: random.Random, clean: list) -> bytes:
    p = bytearray(rng.choice(clean))
    kind = rng.randrange(3)
    if kind == 0:                                   # truncate
        return bytes(p[:rng.randrange(len(p))])
    if kind == 1:                                   # flip 1-3 bits
        for _ in range(rng.randint(1, 3)):
            p[rng.randrange(len(p))] ^= 1 << rng.randrange(8)
        return bytes(p)
    q = rng.choice(clean)                           # splice two payloads
    return bytes(p[:rng.randrange(len(p))]) + q[rng.randrange(len(q)):]


def _decode(cls, payloads: list) -> pa.Table:
    return cls()(pa.table({
        "doc_id": pa.array(range(len(payloads)), pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
    }))


@pytest.mark.parametrize("cls", PARSERS, ids=lambda c: c.__name__)
def test_null_and_empty_payloads_dead_letter(cls):
    valid = _clean_payloads(cls)[1]
    out = _decode(cls, [valid, None, b""])
    assert out["decode_ok"].to_pylist() == [True, False, False]


@pytest.mark.parametrize("cls", PARSERS, ids=lambda c: c.__name__)
def test_mutants_dead_letter_per_row(cls):
    clean = _clean_payloads(cls)
    reference = _decode(cls, clean)
    assert all(reference["decode_ok"].to_pylist())

    rng = random.Random(f"media-fuzz:{cls.__name__}")
    payloads = [_mutant(rng, clean) for _ in range(N_MUTANTS)]
    payloads += [b"", None]
    slots = sorted(rng.sample(range(len(payloads) + N_CLEAN), N_CLEAN))
    for slot, p in zip(slots, clean):
        payloads.insert(slot, p)

    out = _decode(cls, payloads)
    assert out.schema == reference.schema
    assert out["doc_id"].to_pylist() == list(range(len(payloads)))
    rows = out.to_pylist()
    fields = cls.schema.names
    for r in rows:
        if not r["decode_ok"]:
            assert all(r[f] is None for f in fields), r
    for slot, want in zip(slots, reference.to_pylist()):
        got = dict(rows[slot], doc_id=want["doc_id"])
        assert got == want, f"{cls.__name__}: clean row at {slot}"
