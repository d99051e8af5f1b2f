"""Artifacts appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path: Path | str, newline: str | None = None) -> Iterator[TextIO]:
    """Write UTF-8 text to a temporary file beside `path`, then move it onto `path`.

    The file takes its name only once the block has finished; if the block
    raises, the temporary file is removed and an earlier file at `path` is
    left as it was. `newline` is passed to `open`: "" for CSV writers.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)
