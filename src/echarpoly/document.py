"""The on-disk tensor format: a strict JSON document with string rationals.

Entries are keyed by 1-based comma-joined indices ("1,2,1") and valued by
integer or p/q strings; floats never appear so parsing cannot contaminate
the exact arithmetic.  Serialization is canonical (sorted keys, reduced
fractions), so parse(print(doc)) is the identity on emitted documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .rational import format_rational, parse_rational
from .tensor import Hypermatrix


class DocumentError(ValueError):
    """The input is not a valid tensor document."""


_ALLOWED_KEYS = {"order", "dim", "entries"}


@dataclass(frozen=True)
class TensorDocument:
    order: int
    dim: int
    entries: tuple[tuple[str, str], ...]  # sorted (index-string, rational-string)

    @classmethod
    def from_json(cls, text: str) -> "TensorDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
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
        parsed: dict[tuple[int, ...], Fraction] = {}
        for key, value in raw.items():
            idx = _parse_index(key, order, dim)
            try:
                rational = parse_rational(value)
            except (ValueError, TypeError) as exc:
                raise DocumentError(f"entry {key!r}: {exc}") from exc
            if idx in parsed:
                raise DocumentError(f"duplicate index {key!r}")
            parsed[idx] = rational
        entries = tuple(
            (",".join(str(i) for i in idx), format_rational(v))
            for idx, v in sorted(parsed.items())
            if v != 0
        )
        return cls(order=order, dim=dim, entries=entries)

    @classmethod
    def from_hypermatrix(cls, A: Hypermatrix) -> "TensorDocument":
        entries = tuple(
            (",".join(str(i + 1) for i in idx), format_rational(v))
            for idx, v in sorted(A.entries.items())
        )
        return cls(order=A.order, dim=A.dim, entries=entries)

    def to_hypermatrix(self) -> Hypermatrix:
        mapping = {
            tuple(int(part) for part in key.split(",")): Fraction(value)
            for key, value in self.entries
        }
        return Hypermatrix.from_one_based(self.order, self.dim, mapping)

    def to_json(self) -> str:
        return json.dumps(
            {"order": self.order, "dim": self.dim, "entries": dict(self.entries)},
            indent=2,
        )


def _parse_index(key: str, order: int, dim: int) -> tuple[int, ...]:
    if not isinstance(key, str):
        raise DocumentError(f"entry key must be a string, got {key!r}")
    parts = key.split(",")
    if len(parts) != order:
        raise DocumentError(f"index {key!r} must have {order} components")
    # int() would also take signs, whitespace, "_" and non-ASCII digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise DocumentError(f"index {key!r} is not a tuple of integers")
    idx = tuple(int(part) for part in parts)
    if any(not 1 <= i <= dim for i in idx):
        raise DocumentError(f"index {key!r} out of range 1..{dim}")
    return idx
