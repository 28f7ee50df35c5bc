"""File formats: PFM rasters with JSON sidecars, profiles as CSV."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .image import Image, PhaseMap
from .metrics import Profile


def pfm_data(data) -> np.ndarray:
    """``data`` as the float32 a PFM stores; ``ValueError`` unless it is 2D
    and every value is finite in float32."""
    with np.errstate(over="ignore"):
        data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2:
        raise ValueError("PFM writer expects a 2D array")
    if not np.isfinite(data).all():
        raise ValueError("PFM data is not finite in float32")
    return data


def write_pfm(path, data: np.ndarray):
    """Grayscale PFM: 'Pf' header, little-endian float32, bottom-up scanlines."""
    try:
        data = pfm_data(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{width} {height}\n".encode("ascii"))
        fh.write(b"-1.0\n")  # negative scale marks little-endian
        fh.write(np.flipud(data).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"Pf":
            raise ValueError(f"{path}: not a grayscale PFM file")
        try:
            width, height = map(int, fh.readline().split())
            scale = float(fh.readline())
        except ValueError:
            raise ValueError(f"{path}: malformed PFM header") from None
        if width < 1 or height < 1:
            raise ValueError(f"{path}: malformed PFM header")
        # checked against the file size first: a corrupt header must not
        # make the read allocate what the file does not hold
        want = 4 * width * height
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have < want:
            raise ValueError(f"{path}: truncated PFM, {have} of {want} "
                             f"data bytes")
        raw = fh.read(want)
    data = np.frombuffer(raw, dtype="<f4" if scale < 0 else ">f4")
    # a signalling NaN warns in the cast; callers check finiteness themselves
    with np.errstate(invalid="ignore"):
        return np.flipud(data.reshape(height, width)).astype(np.float64)


def write_sidecar(pfm_path, role: str, units: str, **extra):
    """JSON sidecar next to a PFM, carrying role/units/provenance fields."""
    meta = {"role": role, "units": units}
    meta.update(extra)
    path = Path(str(pfm_path) + ".json")
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def read_sidecar(pfm_path) -> dict:
    path = Path(str(pfm_path) + ".json")
    if not path.exists():
        return {}
    meta = json.loads(path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: sidecar is not a JSON object")
    return meta


def save_image(path, image: Image, **meta):
    write_pfm(path, image.data)
    write_sidecar(path, role="intensity", units="arbitrary", **meta)


def save_phase(path, phase: PhaseMap, **meta):
    write_pfm(path, phase.data)
    write_sidecar(path, role="phase", units="radians",
                  wrapped=phase.wrapped, **meta)


def load_phase(path) -> PhaseMap:
    wrapped = bool(read_sidecar(path).get("wrapped", False))
    return PhaseMap(read_pfm(path), wrapped=wrapped)


def write_profile_csv(path, profile: Profile):
    """Two-column CSV (pixel_index, value); segment comments at boundaries."""
    boundaries = set(profile.boundaries)
    segment = 0
    with open(path, "w") as fh:
        fh.write("pixel_index,value\n")
        for i, v in enumerate(profile.values):
            if i in boundaries:
                segment += 1
                fh.write(f"# segment={segment}\n")
            fh.write(f"{i},{float(v)!r}\n")

