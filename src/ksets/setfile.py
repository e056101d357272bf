"""Line-oriented text format for projector/context sets.

Grammar ('#' starts a comment, blank lines ignored):

    file     := "dim" INT NEWLINE (rayline | projline | ctxline)*
    rayline  := "ray" ID entry{d}     -- a rank-1 projector unless grouped
    projline := "proj" ID rayID+      -- groups declared rays into one projector
    ctxline  := "ctx" projOrRayID+

Scalar entries follow the grammar in cyclo.parse_scalar.  Parsing validates
the finished set; serialize emits a canonical document whose re-parse is
structurally identical.
"""

from __future__ import annotations

from .cyclo import parse_scalar, render_scalar
from .errors import (
    ScalarSyntaxError,
    SetSyntaxError,
    UnknownReferenceError,
)
from .model import KSSet, Projector, Ray, ensure_valid


def parse(text: str, name: str | None = None) -> KSSet:
    """Parse and validate a set file; errors carry the offending line."""
    dimension: int | None = None
    rays: dict[str, Ray] = {}
    ray_order: list[str] = []
    grouped: dict[str, str] = {}  # ray id -> proj id that consumed it
    projlines: list[tuple[int, str, list[str]]] = []
    ctxlines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if dimension is None:
            # isdigit() is also true for superscripts such as '²', which
            # int() rejects; isdecimal() is true for what int() reads.
            if keyword != "dim" or len(tokens) != 2 or not tokens[1].isdecimal():
                raise SetSyntaxError("expected 'dim <positive integer>'", lineno)
            try:
                dimension = int(tokens[1])
            except ValueError:  # more digits than int() converts
                raise SetSyntaxError("dimension too large", lineno) from None
            if dimension < 1:
                raise SetSyntaxError("dimension must be positive", lineno)
            continue
        if keyword == "ray":
            if len(tokens) != 2 + dimension:
                raise SetSyntaxError(
                    f"ray needs an id and {dimension} entries", lineno
                )
            rid = tokens[1]
            if rid in rays:
                raise SetSyntaxError(f"duplicate ray id {rid}", lineno)
            try:
                entries = [parse_scalar(tok) for tok in tokens[2:]]
            except ScalarSyntaxError as exc:
                raise SetSyntaxError(str(exc), lineno) from exc
            rays[rid] = Ray(entries)
            ray_order.append(rid)
        elif keyword == "proj":
            if len(tokens) < 3:
                raise SetSyntaxError("proj needs an id and at least one ray", lineno)
            pid = tokens[1]
            members = tokens[2:]
            for rid in members:
                if rid not in rays:
                    raise UnknownReferenceError(
                        f"proj {pid} references undeclared ray {rid}", lineno
                    )
                if rid in grouped:
                    raise SetSyntaxError(
                        f"ray {rid} grouped twice (proj {grouped[rid]} and {pid})",
                        lineno,
                    )
                grouped[rid] = pid
            projlines.append((lineno, pid, members))
        elif keyword == "ctx":
            if len(tokens) < 2:
                raise SetSyntaxError("ctx needs at least one member", lineno)
            ctxlines.append((lineno, tokens[1:]))
        else:
            raise SetSyntaxError(f"unknown keyword {keyword!r}", lineno)

    if dimension is None:
        raise SetSyntaxError("empty document: missing 'dim' line")

    proj_members: dict[str, list[str]] = {}
    for ln, pid, members in projlines:
        if pid in proj_members:
            raise SetSyntaxError(f"duplicate projector id {pid}", ln)
        if pid in rays and pid not in grouped:
            raise SetSyntaxError(f"projector id {pid} collides with a ray id", ln)
        proj_members[pid] = members

    # Projector order follows the file: a rank-1 ray at its ray line, a
    # grouped projector at its first member's ray line.
    projectors: dict[str, Projector] = {}
    for rid in ray_order:
        if rid in grouped:
            pid = grouped[rid]
            if pid not in projectors:
                projectors[pid] = Projector(
                    tuple(rays[m] for m in proj_members[pid])
                )
        else:
            if rid in proj_members:
                raise SetSyntaxError(f"projector id {rid} collides with a ray id")
            projectors[rid] = Projector((rays[rid],))

    contexts = []
    for lineno, members in ctxlines:
        resolved = []
        for mid in members:
            if mid in projectors:
                resolved.append(mid)
            elif mid in grouped:
                raise UnknownReferenceError(
                    f"context references ray {mid} grouped into proj {grouped[mid]}",
                    lineno,
                )
            else:
                raise UnknownReferenceError(
                    f"context references undeclared id {mid}", lineno
                )
        contexts.append(tuple(resolved))

    s = KSSet(dimension, projectors, contexts, name=name)
    ensure_valid(s)
    return s


def serialize(s: KSSet) -> str:
    """Canonical text for a validated set.

    Rank-1 projectors become single ray lines under their own id; a rank-r
    projector emits its span rays as '<id>.1' ... '<id>.r' followed by a
    proj line.  Contexts keep their stored order.
    """
    lines = [f"dim {s.dimension}"]
    if s.name:
        lines.insert(0, f"# {s.name}")
    for pid, proj in s.projectors.items():
        if proj.rank == 1:
            entries = " ".join(render_scalar(e) for e in proj.span[0].entries)
            lines.append(f"ray {pid} {entries}")
        else:
            members = []
            for k, ray in enumerate(proj.span, start=1):
                rid = f"{pid}.{k}"
                entries = " ".join(render_scalar(e) for e in ray.entries)
                lines.append(f"ray {rid} {entries}")
                members.append(rid)
            lines.append(f"proj {pid} {' '.join(members)}")
    for ctx in s.contexts:
        lines.append(f"ctx {' '.join(ctx)}")
    return "\n".join(lines) + "\n"
