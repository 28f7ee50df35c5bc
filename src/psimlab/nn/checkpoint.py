"""Checkpoints: JSON header + raw little-endian float64 parameter blob.

The header records layer parameter names/shapes in declaration order plus
arbitrary metadata; it carries a SHA-256 of the blob so corruption and
mismatched loads fail loudly.  Both ways stream: a save hashes and writes
one array at a time, and a load checks the file's length against the
header before it reads any array, reads each array the caller keeps
straight into its destination, streams the rest through one small buffer,
and compares the hash at the end.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# bytes of the one buffer that every array a load does not keep streams
# through
SKIP_BUFFER_BYTES = 1 << 20


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


def _header(path, fh):
    """The checked header's entries as (name, shape), its hash and its
    meta."""
    prefix = fh.read(8)
    hlen = int.from_bytes(prefix, "little")
    size = os.fstat(fh.fileno()).st_size
    if len(prefix) < 8 or hlen > size - 8:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: undecodable header: {exc}") from None
    if not isinstance(header, dict) or \
            header.get("format") != "psimlab-checkpoint-v1":
        raise CheckpointError(f"{path}: unknown checkpoint format")
    try:
        digest = header["blob_sha256"]
        layout = [(e["name"], e["shape"]) for e in header["params"]]
        meta = header["meta"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from None
    for name, shape in layout:
        # each side an int, not a bool, and no shape larger than the file
        # even where another side is 0, so that numpy can hold it
        if not (isinstance(name, str) and isinstance(shape, list) and all(
                type(n) is int and n >= 0 for n in shape) and
                8 * math.prod(max(n, 1) for n in shape) <= size):
            raise CheckpointError(f"{path}: malformed header entry "
                                  f"{name!r} of shape {shape!r}")
    if 8 + hlen + 8 * sum(math.prod(s) for _, s in layout) != size:
        raise CheckpointError(f"{path}: blob length does not match header")
    return [(n, tuple(s)) for n, s in layout], digest, meta


def _check_plan(path, layout, wanted):
    """Raise ``CheckpointError`` unless each name of ``wanted`` has an
    entry of its shape."""
    names = {name for name, _ in layout}
    for name in wanted:
        if name not in names:
            raise CheckpointError(f"{path}: no entry {name!r}")
    for name, shape in layout:
        want = wanted.get(name)
        want = getattr(want, "shape", want)
        if want is not None and shape != tuple(want):
            raise CheckpointError(f"{path}: {name} has shape {shape}, "
                                  f"expected {tuple(want)}")


def load_checkpoint(path, plan=None):
    """Returns (list of (name, array), meta dict).

    Without ``plan`` every entry is returned.  ``plan(meta)`` is called
    once the header and the file's length check out; it returns a dict
    that maps each name the caller expects to the C-contiguous float64
    array to read that entry into, or to the shape the entry must have
    if the caller does not keep it.  An expected name that the header
    lacks or shapes otherwise raises ``CheckpointError`` before any array
    is read, and only the plan's arrays are returned.  Every array is
    hashed as it is read, and one that is not finite raises
    ``CheckpointError`` once the hash checks out.
    """
    with open(path, "rb") as fh:
        layout, digest, meta = _header(path, fh)
        if plan is None:
            wanted = {name: np.empty(shape, dtype="<f8")
                      for name, shape in layout}
        else:
            wanted = plan(meta)
            _check_plan(path, layout, wanted)
        skipped = [math.prod(shape) for name, shape in layout
                   if not isinstance(wanted.get(name), np.ndarray)]
        buf = np.empty(max(1, min(max(skipped, default=0),
                                  SKIP_BUFFER_BYTES // 8)))
        running = hashlib.sha256()
        kept, not_finite = [], None
        for name, shape in layout:
            dst = wanted.get(name)
            if isinstance(dst, np.ndarray):
                kept.append((name, dst))
                views = [dst.reshape(-1)]
            else:
                count = math.prod(shape)
                views = [buf[:min(buf.size, count - i)]
                         for i in range(0, count, buf.size)]
            for view in views:
                if fh.readinto(view.view(np.uint8)) != view.nbytes:
                    raise CheckpointError(f"{path}: truncated blob")
                running.update(view)
                if not_finite is None and not np.isfinite(view).all():
                    not_finite = name
    if running.hexdigest() != digest:
        raise CheckpointError(f"{path}: parameter blob hash mismatch")
    if not_finite is not None:
        raise CheckpointError(f"{path}: {not_finite} is not finite")
    return kept, meta
