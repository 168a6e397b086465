"""All-or-nothing text output."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 with "\\n" line ends.

    The text goes to a temporary file in the same directory, which then
    replaces `path` in one rename, so an interrupted write leaves either
    the old file or the new one, never a part of either.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
