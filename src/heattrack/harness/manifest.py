"""Deterministic run artifacts: CSV tables and a plain-text manifest.

Identical configuration and seed must reproduce identical bytes, so all
floats are printed with 17 significant digits, rows keep a fixed order,
line endings are LF, and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

__all__ = ["format_value", "write_csv", "RunManifest"]

# The one copy of the version: packaging reads it from here.
VERSION = "0.1.0"
TOOL_ID = f"heattrack {VERSION}"

BLOCK_ROWS = 256    # rows formatted, written and hashed at a time


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row_blocks(rows):
    """The table body as text, ``BLOCK_ROWS`` rows at a time."""
    if (isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype == np.float64):
        # One ``%`` per block with the ``.17g`` of ``format_value``.
        template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            yield (template * block.shape[0]) % tuple(block.ravel().tolist())
        return
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        yield "".join(",".join(map(format_value, row)) + "\n"
                      for row in block)


def write_csv(path: str, header, rows) -> str:
    """Write rows deterministically; returns the content sha256.

    ``rows`` is an iterable of rows, or a 2-D float64 array written with
    the same bytes.  The file and its digest are fed block by block, so
    the whole payload is never held in memory.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for text in chain([",".join(header) + "\n"], _row_blocks(rows)):
            data = text.encode("utf-8")
            handle.write(data)
            digest.update(data)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Key-value record of one run: config digest, outputs, assertions."""

    command: str
    config_digest: str
    seed: int
    tolerances: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)      # filename -> sha256
    assertions: dict = field(default_factory=dict)   # name -> (ok, value)
    status: str = "ok"

    def record_output(self, name: str, digest: str):
        self.outputs[name] = digest

    def record_assertion(self, name: str, ok: bool, value: float):
        self.assertions[name] = (bool(ok), float(value))

    @property
    def all_passed(self) -> bool:
        return all(ok for ok, _ in self.assertions.values())

    def render(self) -> str:
        lines = [
            f"tool={TOOL_ID}",
            f"command={self.command}",
            f"config_sha256={self.config_digest}",
            f"seed={self.seed}",
            f"status={self.status}",
        ]
        for key in sorted(self.tolerances):
            lines.append(f"tolerance.{key}={format_value(self.tolerances[key])}")
        for key in sorted(self.outputs):
            lines.append(f"output.{key}={self.outputs[key]}")
        for key in sorted(self.assertions):
            ok, value = self.assertions[key]
            state = "pass" if ok else "fail"
            lines.append(f"assertion.{key}={state} value={format_value(value)}")
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str) -> str:
        """Write ``manifest.txt`` into ``out_dir``; returns its sha256."""
        payload = self.render().encode("utf-8")
        with open(os.path.join(out_dir, "manifest.txt"), "wb") as handle:
            handle.write(payload)
        return hashlib.sha256(payload).hexdigest()
