"""Path-or-stream handling shared by the package's CSV readers and writers."""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def open_text(path_or_buf, mode: str = "r"):
    """Yield a text stream for ``path_or_buf``.

    A path is opened as UTF-8 with ``newline=""`` (rows are written with
    explicit ``\\n`` and read back verbatim) and closed on exit; an already
    open stream is yielded as is and left open for its owner.
    """
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield path_or_buf
