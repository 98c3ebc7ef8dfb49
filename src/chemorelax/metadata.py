"""Installed distributions' versions, for the run manifest, without importing
:mod:`importlib.metadata`, which pulls in ``email``, ``csv``, ``zipfile`` and
``socket`` (about 20 ms of CPU and 1.1 MiB per process) for one string.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["PackageNotFoundError", "version"]

# importlib.metadata's error of this name is a ModuleNotFoundError: catching
# this one catches it too
PackageNotFoundError = ModuleNotFoundError


def version(name: str) -> str:
    """The ``Version:`` header of the first ``<name>-*.dist-info/METADATA`` on
    sys.path, which is where importlib.metadata.version reads an installed
    wheel's; PackageNotFoundError if there is none."""
    for entry in sys.path:
        for meta in sorted(Path(entry or ".").glob(f"{name}-*.dist-info/METADATA")):
            if "-" in meta.parent.stem[len(name) + 1:]:   # another distribution's, name-*-x
                continue
            with open(meta, encoding="utf-8") as fh:
                for line in iter(fh.readline, "\n"):   # the headers end at a blank line
                    if line.startswith("Version:"):
                        return line[len("Version:"):].strip()
                    if not line:
                        break
    raise PackageNotFoundError(name)
