"""Byte-stable checkpoint container.

Layout: magic line, 8-byte big-endian header length, JSON header (sorted
keys, no whitespace), then a blob of concatenated little-endian float64
arrays. The header records every array's (name, shape, offset), all RNG
stream states, optimizer counters, and the run config, so save(load(x))
reproduces x byte for byte. It also records the blob's length and sha256,
which loading verifies, so a truncated or corrupted file fails loudly.
Full checkpoints embed the replay buffer for exact resume; policy
checkpoints omit it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

MAGIC = b"MUSCLERL-CKPT-1\n"
VERSION = 2


def _sanitize(obj):
    """Make RNG state dicts JSON-safe (numpy ints/arrays -> python ints/lists)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def save_checkpoint(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write atomically: meta must be JSON-safe after sanitizing."""
    order = sorted(arrays)
    blobs = []
    index = []
    offset = 0
    digest = hashlib.sha256()
    for name in order:
        a = np.ascontiguousarray(arrays[name], dtype=np.float64)
        raw = a.astype("<f8", copy=False).tobytes()
        index.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
        digest.update(raw)
    header = {"version": VERSION, "meta": _sanitize(meta), "arrays": index,
              "blob_bytes": offset, "blob_sha256": digest.hexdigest()}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">Q", len(header_bytes)))
        fh.write(header_bytes)
        for raw in blobs:
            fh.write(raw)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a musclerl checkpoint")
        try:
            (hlen,) = struct.unpack(">Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode())
        except (struct.error, ValueError) as err:
            raise ValueError(f"{path}: unreadable checkpoint header ({err})") from None
        if header.get("version") != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        blob = fh.read()
    if len(blob) != header["blob_bytes"]:
        raise ValueError(f"{path}: checkpoint data is {len(blob)} bytes, its header "
                         f"says {header['blob_bytes']}; the file is truncated or damaged")
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise ValueError(f"{path}: checkpoint data fails its sha256 check; the file is corrupt")
    arrays = {}
    entries = header["arrays"]
    for i, ent in enumerate(entries):
        start = ent["offset"]
        end = entries[i + 1]["offset"] if i + 1 < len(entries) else len(blob)
        a = np.frombuffer(blob[start:end], dtype="<f8").astype(np.float64)
        arrays[ent["name"]] = a.reshape(ent["shape"]).copy()
    return header["meta"], arrays
