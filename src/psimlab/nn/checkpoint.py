"""Checkpoints: JSON header + raw little-endian float64 parameter blob.

The header records layer parameter names/shapes in declaration order plus
arbitrary metadata; it carries a SHA-256 of the blob so corruption and
mismatched loads fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, params, meta=None):
    """``params`` is a list of (name, float64 array) in declaration order.

    The blob is hashed and written one array at a time, never joined."""
    arrays = [np.ascontiguousarray(p, dtype="<f8") for _, p in params]
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr)
    header = {
        "format": "psimlab-checkpoint-v1",
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params],
        "blob_sha256": digest.hexdigest(),
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for arr in arrays:
            fh.write(arr)


def load_checkpoint(path):
    """Returns (list of (name, array), meta dict)."""
    with open(path, "rb") as fh:
        prefix = fh.read(8)
        hlen = int.from_bytes(prefix, "little")
        if len(prefix) < 8 or hlen > os.fstat(fh.fileno()).st_size - 8:
            raise CheckpointError(f"{path}: truncated header")
        header_bytes = fh.read(hlen)
        blob = fh.read()
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: undecodable header: {exc}") from None
    if not isinstance(header, dict) or \
            header.get("format") != "psimlab-checkpoint-v1":
        raise CheckpointError(f"{path}: unknown checkpoint format")
    try:
        digest = header["blob_sha256"]
        layout = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        meta = header["meta"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from None
    if hashlib.sha256(blob).hexdigest() != digest:
        raise CheckpointError(f"{path}: parameter blob hash mismatch")
    params = []
    offset = 0
    for name, shape in layout:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count,
                            offset=offset).reshape(shape).copy()
        params.append((name, arr))
        offset += count * 8
    if offset != len(blob):
        raise CheckpointError(f"{path}: blob length does not match header")
    return params, meta
