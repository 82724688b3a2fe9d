"""Path-or-stream handling and the float-row CSV writer shared by the package."""
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


def write_rows(path_or_buf, header: str, rows) -> None:
    """Write ``header``, then each row as comma-separated float reprs, LF-terminated."""
    with open_text(path_or_buf, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
