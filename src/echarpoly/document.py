"""The on-disk tensor format: a strict JSON document with string rationals.

Entries are keyed by 1-based comma-joined indices ("1,2,1") and valued by
integer or p/q strings; floats never appear so parsing cannot contaminate
the exact arithmetic.  A JSON member given twice is refused.  Each entry is
read in one pass: one match of its key (ASCII digits and commas) and one
of its value (``parse_rational``), ints read once, one range check.  The
document keeps what it parsed, 0-based index tuples to nonzero Fractions,
and ``to_hypermatrix`` hands them over without parsing or checking them
again.  The canonical text (sorted keys, reduced fractions) is made from
them when ``entries`` is read, so parse(print(doc)) is the identity on
emitted documents.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import format_rational, parse_rational
from .tensor import Hypermatrix


class DocumentError(ValueError):
    """The input is not a valid tensor document."""


_ALLOWED_KEYS = {"order", "dim", "entries"}

#: ASCII digits only: int() would also take signs, whitespace, "_" and other scripts' digits.
_INDEX_RE = re.compile(r"[0-9]+(?:,[0-9]+)*")


@dataclass(frozen=True)
class TensorDocument:
    order: int
    dim: int
    values: dict[tuple[int, ...], Fraction] = field(hash=False)  # 0-based index -> nonzero value

    @property
    def entries(self) -> tuple[tuple[str, str], ...]:
        """Sorted (1-based index string, canonical rational string) pairs."""
        return tuple(
            (",".join(str(i + 1) for i in idx), format_rational(v))
            for idx, v in sorted(self.values.items())
        )

    @classmethod
    def from_json(cls, text: str) -> "TensorDocument":
        try:
            payload = json.loads(text, object_pairs_hook=_unique_members)
        except DocumentError:
            raise
        except (ValueError, RecursionError) as exc:
            # besides JSONDecodeError: an integer past int()'s digit limit, and nesting
            # past the recursion limit
            raise DocumentError(f"invalid JSON: {exc}") from exc
        return cls.from_mapping(payload)

    @classmethod
    def from_mapping(cls, payload) -> "TensorDocument":
        if not isinstance(payload, dict):
            raise DocumentError("document must be a JSON object")
        unknown = set(payload) - _ALLOWED_KEYS
        if unknown:
            raise DocumentError(f"unknown fields: {sorted(unknown)}")
        missing = _ALLOWED_KEYS - set(payload)
        if missing:
            raise DocumentError(f"missing fields: {sorted(missing)}")
        order, dim = payload["order"], payload["dim"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 2:
            raise DocumentError(f"order must be an integer >= 2, got {order!r}")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise DocumentError(f"dim must be an integer >= 1, got {dim!r}")
        raw = payload["entries"]
        if not isinstance(raw, dict):
            raise DocumentError("entries must be an object")
        values: dict[tuple[int, ...], Fraction] = {}
        for key, value in raw.items():
            idx = _parse_index(key, order, dim)
            try:
                rational = parse_rational(value)
            except ValueError as exc:
                raise DocumentError(f"entry {key!r}: {exc}") from exc
            if idx in values:
                raise DocumentError(f"duplicate index {key!r}")
            values[idx] = rational
        return cls(order, dim, {idx: v for idx, v in values.items() if v})

    @classmethod
    def from_hypermatrix(cls, A: Hypermatrix) -> "TensorDocument":
        return cls(A.order, A.dim, dict(A.entries))

    def to_hypermatrix(self) -> Hypermatrix:
        return Hypermatrix.from_checked(self.order, self.dim, dict(self.values))

    def to_json(self) -> str:
        return json.dumps(
            {"order": self.order, "dim": self.dim, "entries": dict(self.entries)},
            indent=2,
        )


def _unique_members(pairs: list) -> dict:
    """A JSON object's members as a dict; a name given twice is refused."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise DocumentError(f"duplicate member {name!r}")
            seen.add(name)
    return members


def _parse_index(key: str, order: int, dim: int) -> tuple[int, ...]:
    """The 0-based index tuple of a 1-based key such as "1,2,1"."""
    if not isinstance(key, str):
        raise DocumentError(f"entry key must be a string, got {key!r}")
    parts = key.split(",")
    if len(parts) != order:
        raise DocumentError(f"index {key!r} must have {order} components")
    if _INDEX_RE.fullmatch(key) is None:
        raise DocumentError(f"index {key!r} is not a tuple of integers")
    try:
        idx = [int(part) - 1 for part in parts]
    except ValueError as exc:  # more digits than int() reads, as for a value
        raise DocumentError(f"index {key!r}: {exc}") from None
    if min(idx) < 0 or max(idx) >= dim:
        raise DocumentError(f"index {key!r} out of range 1..{dim}")
    return tuple(idx)
