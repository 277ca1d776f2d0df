"""Byte-stable checkpoint container.

Layout: magic line, 8-byte big-endian header length, JSON header (sorted
keys, no whitespace), then a blob of concatenated little-endian float64
arrays. The header records every array's (name, shape, offset), all RNG
stream states, optimizer counters, and the run config, so save(load(x))
reproduces x byte for byte. It also records the blob's length and sha256,
and the sha256 of the header itself (of its canonical JSON without that
field). Loading verifies both digests, and that the arrays tile the blob
from offset 0 with nothing left over, so a truncated, corrupted or edited
file fails loudly with its path, and no array is returned before the whole
blob has passed its check.

Both directions stream: saving hashes, then writes, each array's own
buffer, and loading reads each array straight into its new float64 array,
hashing as it goes. So neither holds a second copy of the data. Full
checkpoints embed the replay buffer for exact resume; policy checkpoints
hold the actor alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"MUSCLERL-CKPT-1\n"
VERSION = 3


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


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _header_digest(header: dict) -> str:
    """sha256 of the header's canonical JSON without its own digest."""
    return hashlib.sha256(_canonical(
        {k: v for k, v in header.items() if k != "header_sha256"})).hexdigest()


def _layout_problem(header: dict) -> str | None:
    """Why the array index does not tile the blob exactly, or None if it does."""
    offset = 0
    for ent in header["arrays"]:
        if ent["offset"] != offset:
            return f"array {ent['name']!r} starts at byte {ent['offset']}, not {offset}"
        if not all(isinstance(n, int) and n >= 0 for n in ent["shape"]):
            return f"array {ent['name']!r} has shape {ent['shape']}"
        offset += 8 * math.prod(ent["shape"])
    if offset != header["blob_bytes"]:
        return f"its arrays fill {offset} bytes, its blob {header['blob_bytes']}"
    return None


def _arrays_f8(arrays: dict[str, np.ndarray]):
    """(name, contiguous little-endian float64 array) in name order, copying only on need."""
    return ((name, np.ascontiguousarray(arrays[name], dtype="<f8")) for name in sorted(arrays))


def save_checkpoint(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write atomically: meta must be JSON-safe after sanitizing.

    The blob is hashed, then written, from each array's own buffer.
    """
    index = []
    offset = 0
    digest = hashlib.sha256()
    for name, a in _arrays_f8(arrays):
        index.append({"name": name, "shape": list(a.shape), "offset": offset})
        offset += a.nbytes
        digest.update(a)
    header = {"version": VERSION, "meta": _sanitize(meta), "arrays": index,
              "blob_bytes": offset, "blob_sha256": digest.hexdigest()}
    header["header_sha256"] = _header_digest(header)
    header_bytes = _canonical(header)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, a in _arrays_f8(arrays):
            fh.write(a)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of a checkpoint whose header and data pass their checks."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a musclerl checkpoint")
        try:
            (hlen,) = struct.unpack(">Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode())
            if not isinstance(header, dict):
                raise ValueError("not a JSON object")
        except (struct.error, ValueError) as err:
            raise ValueError(f"{path}: unreadable checkpoint header ({err})") from None
        if header.get("version") != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')}")
        if header.get("header_sha256") != _header_digest(header):
            raise ValueError(f"{path}: checkpoint header fails its sha256 check; "
                             "the file is corrupt or was edited")
        try:
            problem = _layout_problem(header)
        except (KeyError, TypeError) as err:
            problem = f"malformed array index ({err!r})"
        if problem is not None:
            raise ValueError(f"{path}: checkpoint header does not lay out its data: {problem}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != header["blob_bytes"]:
            raise ValueError(f"{path}: checkpoint data is {size} bytes, its header "
                             f"says {header['blob_bytes']}; the file is truncated or damaged")
        arrays = {}
        digest = hashlib.sha256()
        for ent in header["arrays"]:
            a = np.empty(ent["shape"], dtype="<f8")
            fh.readinto(a)
            digest.update(a)
            arrays[ent["name"]] = a
    if digest.hexdigest() != header["blob_sha256"]:
        raise ValueError(f"{path}: checkpoint data fails its sha256 check; the file is corrupt")
    return header["meta"], arrays
