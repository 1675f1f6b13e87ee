"""Generated sections of hand-written docs.

A doc brackets a generated section between two marker lines; the code
that owns the section regenerates it in place, and a check mode reports
drift without writing (the CI docs-drift gates run it that way).
"""

from typing import Type

from repro.common.errors import ReproError


def update_generated_section(
    path: str,
    begin: str,
    end: str,
    content: str,
    check: bool = False,
    error: Type[ReproError] = ReproError,
) -> bool:
    """Rewrite the section of ``path`` between ``begin`` and ``end``.

    Returns True when the section already held ``content``.  With
    ``check`` the file is never written.

    Raises:
        error: When the doc is missing either marker.
    """
    with open(path) as handle:
        text = handle.read()
    start = text.find(begin)
    stop = text.find(end)
    if start == -1 or stop == -1 or stop < start:
        raise error(
            f"{path} is missing the generated-section markers "
            f"{begin!r} / {end!r}"
        )
    start += len(begin)
    updated = text[:start] + "\n" + content + "\n" + text[stop:]
    current = updated == text
    if not current and not check:
        with open(path, "w") as handle:
            handle.write(updated)
    return current
