"""File formats: tag-stream binaries, histogram CSVs, flat key-value reports."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import CoincidenceHistogram, ConfigError, TagStream

TAGSTREAM_MAGIC = b"PFTG"
TAGSTREAM_VERSION = 1

# little-endian header: magic, version u16, channel_id u16, count u64
_HEADER = struct.Struct("<4sHHQ")


def write_tagstream(path: str | Path, stream: TagStream) -> None:
    """Write ``stream`` as unsigned 64-bit tags; a negative tag raises ConfigError."""
    if len(stream) and stream.tags[0] < 0:  # tags are sorted, so the first is the least
        raise ConfigError(f"{path}: negative tag {stream.tags[0]} cannot be stored unsigned")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TAGSTREAM_MAGIC, TAGSTREAM_VERSION, stream.channel_id, len(stream)))
        fh.write(stream.tags.astype("<u8").tobytes())


def read_tagstream(path: str | Path) -> TagStream:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: truncated tag-stream header")
        magic, version, channel_id, count = _HEADER.unpack(header)
        if magic != TAGSTREAM_MAGIC:
            raise ConfigError(f"{path}: bad magic {magic!r}")
        if version != TAGSTREAM_VERSION:
            raise ConfigError(f"{path}: unsupported version {version}")
        raw = fh.read(8 * count)
        if len(raw) != 8 * count:
            raise ConfigError(f"{path}: truncated tag data")
    tags = np.frombuffer(raw, dtype="<u8").astype(np.int64)
    return TagStream(channel_id=channel_id, tags=tags)


def write_histogram_csv(path: str | Path, hist: CoincidenceHistogram) -> None:
    with open(path, "w") as fh:
        fh.write("bin_center_ps,counts\n")
        for center, count in zip(hist.bin_centers(), hist.counts):
            fh.write(f"{center:.1f},{count}\n")


def read_histogram_csv(path: str | Path) -> CoincidenceHistogram:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two bins")
    centers, counts = data[:, 0], data[:, 1]
    widths = np.diff(centers)
    width = widths[0]
    if not np.allclose(widths, width):
        raise ConfigError(f"{path}: bin centers are not equally spaced")
    return CoincidenceHistogram(
        bin_width_ps=int(round(width)),
        offset_ps=float(centers[0]),
        counts=np.rint(counts).astype(np.int64),
    )


def write_report(path: str | Path, items: dict) -> None:
    """Flat ``key = value`` text report."""
    with open(path, "w") as fh:
        for key, value in items.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.10g}\n")
            else:
                fh.write(f"{key} = {value}\n")


def read_report(path: str | Path) -> dict:
    items: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}: malformed report line {line!r}")
        try:
            items[key] = int(value)
        except ValueError:
            try:
                items[key] = float(value)
            except ValueError:
                items[key] = value
    return items
