"""Binary matrix encoding of flat queries.

A query becomes an L x (1 + B) matrix of 0/1 values. Each row is one
sequence element: the first bit says whether the payload is a vocabulary
token ID (0) or a quantized numeric literal (1); the remaining B bits are
the payload in big-endian binary.

The layout is fixed by the vocabulary, not by the individual query:

    row 0:                     target token
    per continuous attribute:  [attribute token, lower literal, upper literal]
    per nominal attribute:     [attribute token, member token]

Attributes appear in template order (which is schema order). A query that
does not filter some attribute leaves that attribute's rows as padding
(all zeros, reserved token ID 0), so every query from one template encodes
to the same shape and decoding is unambiguous. TokenVocabulary.slots is
the one statement of this layout.

Continuous literals are stored as k = round(value * scale) using the
attribute's quantization scale; decoding returns k / scale. Literals must
fit in B bits and be non-negative, otherwise NumericOverflow; B is at most
63, so every payload fits an int64.

encode_workload is the one encoder. A query has three parts (its target,
its BETWEEN tuple and its IN tuple) and a workload has few distinct ones,
so one walk numbers the distinct parts and only those are encoded: a
payload row each, then array operations scale and range-check the
literals and expand the payloads to bits. Parts fill disjoint rows, so a
query's matrix is the OR of its parts' matrices. encode() is its
one-query case. decode() accepts a query it reads back only if encode()
gives the matrix again, bit for bit. as_bits() is the one 0/1 rule for
every reader of bits, and check_scale() the one rule for a quantization
scale. Encodings are not stored: the CLI's train and eval encode the
labeled workload they read, and a checkpoint carries the vocabulary.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .artifacts import an_int, an_object, strings
from .errors import MalformedMatrix, NumericOverflow, UnknownToken
from .queries import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    InFilter,
    number_parts,
)


def _bits_needed(value: int) -> int:
    return max(int(value).bit_length(), 1)


def check_scale(name: str, x) -> None:
    """Raise TypeError or ValueError naming `name` unless `x`, a
    quantization scale, is a finite positive real that is not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{name} is {x!r}, not a number")
    if not 0 < x < float("inf"):
        raise ValueError(f"{name} is {x!r}, not a finite positive number")


def member_token(attr: str, member: str) -> str:
    """Vocabulary token for a nominal member, namespaced by its attribute."""
    return f"{attr}={member}"


@dataclass(frozen=True)
class TokenVocabulary:
    """Token-to-ID table plus the sequence layout it implies.

    IDs are assigned from 1 (0 is padding): targets first, then per
    continuous attribute its name token, then per nominal attribute its
    name token followed by its member tokens in sorted order. bit_width is
    the payload width B, wide enough for the largest ID (else ValueError)
    and the largest quantized literal seen when the vocabulary was built.
    Every numeric scale passes check_scale.
    slots gives the (attribute, first row) of each filter block, in layout
    order, and sequence_length the row count L.
    """

    targets: tuple[str, ...]
    cont_attrs: tuple[str, ...]
    nom_attrs: tuple[str, ...]
    members: dict
    numeric_scales: dict
    bit_width: int

    def __post_init__(self):
        entries = {}
        for token in self.targets:
            entries[token] = len(entries) + 1
        for attr in self.cont_attrs:
            entries[attr] = len(entries) + 1
        for attr in self.nom_attrs:
            entries[attr] = len(entries) + 1
            for m in self.members[attr]:
                entries[member_token(attr, m)] = len(entries) + 1
        if len(entries) >> self.bit_width:
            raise ValueError(f"token IDs up to {len(entries)} do not fit in {self.bit_width} bits")
        for attr, x in self.numeric_scales.items():
            check_scale(f"numeric_scales[{attr!r}]", x)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_id_to_token", {i: t for t, i in entries.items()})
        slots, row = [], 1
        for attrs, height in ((self.cont_attrs, 3), (self.nom_attrs, 2)):
            for attr in attrs:
                slots.append((attr, row))
                row += height
        object.__setattr__(self, "slots", tuple(slots))
        object.__setattr__(self, "sequence_length", row)
        # Constants of encode_workload: (first row, attribute id) of each
        # filter block; per literal row, its block's first row, attribute
        # and bound; and the scale of every row (1 for token rows).
        n_cont = len(self.cont_attrs)
        blocks = [(a, (j, entries[a])) for a, j in slots]
        literals = {j + k: (j, a, bound) for a, j in slots[:n_cont]
                    for k, bound in ((1, "lower"), (2, "upper"))}
        scale_row = np.ones(row)
        scale_row[list(literals)] = [self.scale(a) for _, a, _ in literals.values()]
        object.__setattr__(self, "_cont_blocks", dict(blocks[:n_cont]))
        object.__setattr__(self, "_nom_blocks", dict(blocks[n_cont:]))
        object.__setattr__(self, "_literals", literals)
        object.__setattr__(self, "_lit_rows", np.array(list(literals), dtype=np.intp))
        object.__setattr__(self, "_lit_attr_rows", np.array([j for j, _, _ in literals.values()], dtype=np.intp))
        object.__setattr__(self, "_scale_row", scale_row)

    @property
    def row_width(self) -> int:
        return 1 + self.bit_width

    @property
    def size(self) -> int:
        return len(self.entries)

    def token_id(self, token: str) -> int:
        try:
            return self.entries[token]
        except KeyError:
            raise UnknownToken(f"token {token!r} is not in the vocabulary") from None

    def scale(self, attr: str) -> float:
        return float(self.numeric_scales.get(attr, 1.0))

    def content_hash(self) -> str:
        payload = json.dumps(self.to_record(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_record(self) -> dict:
        return {
            "targets": list(self.targets),
            "cont_attrs": list(self.cont_attrs),
            "nom_attrs": list(self.nom_attrs),
            "members": {a: list(ms) for a, ms in self.members.items()},
            "numeric_scales": dict(self.numeric_scales),
            "bit_width": self.bit_width,
        }

    @classmethod
    def from_record(cls, rec: dict, content_hash: str) -> "TokenVocabulary":
        """The vocabulary of a to_record() dict, which must have
        `content_hash` (else ValueError). It is read strictly: a field of
        another type raises TypeError naming it, where a loose read would
        change it (a string into its characters, 12.9 into 12)."""
        members = an_object("members", rec["members"])
        vocab = cls(
            targets=strings("targets", rec["targets"]),
            cont_attrs=strings("cont_attrs", rec["cont_attrs"]),
            nom_attrs=strings("nom_attrs", rec["nom_attrs"]),
            members={a: strings(f"members[{a!r}]", ms) for a, ms in members.items()},
            numeric_scales=dict(an_object("numeric_scales", rec["numeric_scales"])),
            bit_width=an_int("bit_width", rec["bit_width"]),
        )
        if vocab.content_hash() != content_hash:
            raise ValueError(f"its content hash is not {json.dumps(content_hash)}")
        return vocab


def build_vocabulary(queries: Iterable, template) -> TokenVocabulary:
    """Derive the vocabulary and payload width from a workload.

    Targets and filterable attributes come from the template; nominal
    members are collected from the workload's IN filters and sorted per
    attribute so the ID assignment does not depend on query order.
    """
    members: dict[str, set] = {a: set() for a in template.nom_filter_attrs}
    max_literal = 0
    for c, part in number_parts(queries)[0]:
        if c == 2:
            for f in part:
                if f.attr not in members:
                    raise UnknownToken(f"IN filter on {f.attr!r} not covered by the template")
                members[f.attr].add(f.member)
        elif c == 1:
            for f in part:
                max_literal = max(max_literal, int(np.rint(f.upper * template.scale(f.attr))))
    vocab_size = (
        len(template.targets)
        + len(template.cont_filter_attrs)
        + sum(1 + len(ms) for ms in members.values())
    )
    bit_width = max(_bits_needed(vocab_size), _bits_needed(max_literal))
    return TokenVocabulary(
        targets=tuple(t.token() for t in template.targets),
        cont_attrs=tuple(template.cont_filter_attrs),
        nom_attrs=tuple(template.nom_filter_attrs),
        members={a: tuple(sorted(ms)) for a, ms in members.items()},
        numeric_scales=dict(template.numeric_scales),
        bit_width=bit_width,
    )


def as_bits(X) -> np.ndarray:
    """X as uint8 0/1 cells, a uint8 array without a copy; else MalformedMatrix."""
    bits = np.asarray(X)
    if not ((bits == 0) | (bits == 1)).all():
        raise MalformedMatrix("matrix cells must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def _payload_weights(bit_width: int) -> np.ndarray:
    """Place value of each payload bit, most significant first."""
    return 1 << np.arange(bit_width - 1, -1, -1, dtype=np.int64)


def encode(query: FlatQuery, vocab: TokenVocabulary) -> np.ndarray:
    """Encode one flat query as an (L, 1+B) uint8 matrix."""
    return encode_workload([query], vocab)[0]


def encode_workload(queries: Iterable, vocab: TokenVocabulary) -> np.ndarray:
    """Encode (optionally labeled) queries into an (n, L, 1+B) tensor.

    One walk numbers the distinct parts of the queries (number_parts), and
    each distinct part fills one row of a payload array: token IDs, and
    filter bounds that are then scaled and rounded to literals in one step.
    One range check covers every literal, a BETWEEN block is present where
    its attribute token is non-zero, which gives the literal flags, and
    np.unpackbits of the big-endian payloads gives each part's bits. Parts
    fill disjoint rows, so each query's matrix is the OR of its parts'.
    Parts are encoded in the order the walk first meets them, and an
    UnknownToken stops the walk but gives way to an overflow in the rows
    filled before it, so the error named is the one a per-query encoder
    would raise first; B may be at most 63.
    """
    L, B = vocab.sequence_length, vocab.bit_width
    if B > 63:
        raise NumericOverflow(f"payload width {B} exceeds 63 bits")
    parts, index = number_parts(queries)
    cont_blocks, nom_blocks = vocab._cont_blocks, vocab._nom_blocks
    members = {}  # (attr, member) -> (first row, attribute id, member id)

    def member_ids(attr, member):
        if attr not in nom_blocks:
            raise UnknownToken(f"IN filter on {attr!r} not covered by the vocabulary")
        ids = members[attr, member] = (*nom_blocks[attr], vocab.token_id(member_token(attr, member)))
        return ids

    rows, unknown = [], None
    try:
        for c, part in parts:
            row = [0] * L
            rows.append(row)
            if c == 2:
                for f in part:
                    j, attr_id, member_id = members.get((f.attr, f.member)) or member_ids(f.attr, f.member)
                    row[j] = attr_id
                    row[j + 1] = member_id
            elif c == 1:
                for f in part:
                    if f.attr not in cont_blocks:
                        raise UnknownToken(f"BETWEEN filter on {f.attr!r} not covered by the vocabulary")
                    j, attr_id = cont_blocks[f.attr]
                    row[j : j + 3] = attr_id, f.lower, f.upper
            else:
                row[0] = vocab.token_id(part.token())
    except UnknownToken as exc:
        unknown = exc
    payload = np.array(rows, dtype=np.float64).reshape(len(rows), L)
    np.rint(payload * vocab._scale_row, out=payload)
    fits = (payload >= 0) & (payload < (1 << B))
    if not fits.all():
        i, j = np.argwhere(~fits)[0]  # token IDs fit, so a literal
        _, attr, bound = vocab._literals[j]
        raise NumericOverflow(
            f"literal {payload[i, j]:.0f} for {attr} {bound} bound does not fit in {B} unsigned bits"
        )
    if unknown is not None:
        raise unknown

    # Each payload as a (1+B)-bit big-endian word: its top bit, the flag,
    # is 0 after the range check and is then set for literals.
    size = next(s for s in (1, 2, 4, 8) if 8 * s > B)
    words = payload.astype(f">u{size}")[..., None].view(np.uint8)
    part_bits = np.ascontiguousarray(np.unpackbits(words, axis=-1)[..., 8 * size - 1 - B :])
    part_bits[:, vocab._lit_rows, 0] = payload[:, vocab._lit_attr_rows] != 0
    out = part_bits.take(index[:, 0], axis=0)
    for c in (1, 2):
        out |= part_bits.take(index[:, c], axis=0)
    return out


def decode(matrix: np.ndarray, vocab: TokenVocabulary) -> FlatQuery:
    """Invert encode(): the query whose encoding is `matrix`, bit for bit.

    A filter block is present when its attribute row is non-zero; one that
    gives no filter (inverted bounds, another attribute's member) is left
    out. Unless encode() gives `matrix` back, MalformedMatrix names the
    first row that differs, so decode accepts exactly what encode produces.
    """
    mat = as_bits(matrix)
    expected = (vocab.sequence_length, vocab.row_width)
    if mat.shape != expected:
        raise MalformedMatrix(f"expected shape {expected}, got {mat.shape}")
    payloads = (mat[:, 1:].astype(np.int64) @ _payload_weights(vocab.bit_width)).tolist()
    target_token = vocab._id_to_token.get(payloads[0])
    if target_token not in vocab.targets:
        raise MalformedMatrix(f"row 0: token ID {payloads[0]} is not an aggregation target")
    func_name, _, rest = target_token.partition("(")
    target = AggregationTarget(AggregationFunction(func_name), rest[:-1])

    betweens, ins, present = [], [], mat.any(axis=1).tolist()
    for k, (attr, j) in enumerate(vocab.slots):
        if not present[j]:
            continue
        if k < len(vocab.cont_attrs):
            lo, hi = (payloads[j + i] / vocab.scale(attr) for i in (1, 2))
            if lo <= hi:
                betweens.append(BetweenFilter(attr, lo, hi))
        else:
            token = vocab._id_to_token.get(payloads[j + 1], "")
            if token.startswith(f"{attr}="):
                ins.append(InFilter(attr, token[len(attr) + 1 :]))
    query = FlatQuery(target, tuple(betweens), tuple(ins))
    try:
        again = encode(query, vocab)
    except NumericOverflow as exc:  # B > 63, or a literal float64 cannot carry back
        raise MalformedMatrix(f"not an encoding under this vocabulary: {exc}") from None
    differs = np.flatnonzero((again != mat).any(axis=1))
    if differs.size:
        raise MalformedMatrix(f"row {differs[0]} is not in the encoding of {query.to_sql()!r}")
    return query
