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
to the same shape and decoding is unambiguous.

Continuous literals are stored as k = round(value * scale) using the
attribute's quantization scale; decoding returns k / scale. Literals must
fit in B bits and be non-negative, otherwise NumericOverflow; B is at most
63, so every payload fits an int64.

encode_workload is the one encoder: a Python pass over the query fields
fills an (n, L) payload array, and array operations scale and range-check
the literals and expand the payloads to bits. encode() is its one-query
case, and decode() and row_token_ids() read payloads back with the same
bit weights. as_bits() is the one 0/1 rule for every reader of bits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import parsing, read_artifact, save_npz, write_json
from .errors import CorruptArtifact, MalformedMatrix, NumericOverflow, UnknownToken
from .queries import (
    AggregationFunction,
    AggregationTarget,
    BetweenFilter,
    FlatQuery,
    InFilter,
    LabeledQuery,
)

PADDING_ID = 0
VOCAB_VERSION = 1


def _bits_needed(value: int) -> int:
    return max(int(value).bit_length(), 1)


def member_token(attr: str, member: str) -> str:
    """Vocabulary token for a nominal member, namespaced by its attribute."""
    return f"{attr}={member}"


@dataclass(frozen=True)
class TokenVocabulary:
    """Token-to-ID table plus the sequence layout it implies.

    IDs are assigned from 1 (0 is padding): targets first, then per
    continuous attribute its name token, then per nominal attribute its
    name token followed by its member tokens in sorted order. bit_width is
    the payload width B, wide enough for the largest ID and the largest
    quantized literal seen when the vocabulary was built.
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
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_id_to_token", {i: t for t, i in entries.items()})

    @property
    def sequence_length(self) -> int:
        return 1 + 3 * len(self.cont_attrs) + 2 * len(self.nom_attrs)

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

    def token_of(self, token_id: int) -> str:
        token = self._id_to_token.get(token_id)
        if token is None:
            raise MalformedMatrix(f"token ID {token_id} is not in the vocabulary")
        return token

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
    def from_record(cls, rec: dict) -> "TokenVocabulary":
        return cls(
            targets=tuple(rec["targets"]),
            cont_attrs=tuple(rec["cont_attrs"]),
            nom_attrs=tuple(rec["nom_attrs"]),
            members={a: tuple(ms) for a, ms in rec["members"].items()},
            numeric_scales=dict(rec["numeric_scales"]),
            bit_width=int(rec["bit_width"]),
        )


def build_vocabulary(queries: list, template) -> TokenVocabulary:
    """Derive the vocabulary and payload width from a workload.

    Targets and filterable attributes come from the template; nominal
    members are collected from the workload's IN filters and sorted per
    attribute so the ID assignment does not depend on query order.
    """
    members: dict[str, set] = {a: set() for a in template.nom_filter_attrs}
    max_literal = 0
    for q in queries:
        fq = q.query if isinstance(q, LabeledQuery) else q
        for f in fq.in_filters:
            if f.attr not in members:
                raise UnknownToken(f"IN filter on {f.attr!r} not covered by the template")
            members[f.attr].add(f.member)
        for f in fq.between_filters:
            s = template.scale(f.attr)
            k = int(np.rint(f.upper * s))
            max_literal = max(max_literal, k)
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


# Queries per np.unpackbits call; bounds the transient bit arrays.
_UNPACK_CHUNK = 8192


def encode(query: FlatQuery, vocab: TokenVocabulary) -> np.ndarray:
    """Encode one flat query as an (L, 1+B) uint8 matrix."""
    return encode_workload([query], vocab)[0]


def encode_workload(queries: list, vocab: TokenVocabulary) -> np.ndarray:
    """Encode a list of (optionally labeled) queries into an (n, L, 1+B) tensor.

    One pass over the query fields fills an (n, L) array of payloads: token
    IDs, and filter bounds that are then scaled and rounded to literals in
    one step. A BETWEEN block is present where its attribute token is
    non-zero, which gives the literal-flag plane. One range check covers
    every literal, and np.unpackbits of the big-endian payloads gives the
    bits. Raises UnknownToken and NumericOverflow like a per-query encoder
    would; B may be at most 63.
    """
    L, B = vocab.sequence_length, vocab.bit_width
    if B > 63:
        raise NumericOverflow(f"payload width {B} exceeds 63 bits")
    n_cont = len(vocab.cont_attrs)
    cont_slots = {a: (1 + 3 * k, vocab.token_id(a)) for k, a in enumerate(vocab.cont_attrs)}
    nom_slots = {a: (1 + 3 * n_cont + 2 * k, vocab.token_id(a)) for k, a in enumerate(vocab.nom_attrs)}

    rows = []
    for q in queries:
        fq = q.query if isinstance(q, LabeledQuery) else q
        row = [0] * L
        row[0] = vocab.token_id(fq.target.token())
        for f in fq.between_filters:
            if f.attr not in cont_slots:
                raise UnknownToken(f"BETWEEN filter on {f.attr!r} not covered by the vocabulary")
            j, attr_id = cont_slots[f.attr]
            row[j : j + 3] = attr_id, f.lower, f.upper
        for f in fq.in_filters:
            if f.attr not in nom_slots:
                raise UnknownToken(f"IN filter on {f.attr!r} not covered by the vocabulary")
            j, attr_id = nom_slots[f.attr]
            row[j : j + 2] = attr_id, vocab.token_id(member_token(f.attr, f.member))
        rows.append(row)
    payload = np.array(rows, dtype=np.float64).reshape(len(rows), L)

    # Columns of the lower and upper bound of each BETWEEN block, in order.
    attr_cols = [j for j, _ in cont_slots.values() for _ in (1, 2)]
    lit_cols = [j + k for j, _ in cont_slots.values() for k in (1, 2)]
    scales = [vocab.scale(a) for a in vocab.cont_attrs for _ in (1, 2)]
    lits = np.rint(payload[:, lit_cols] * scales)
    bad = ~((lits >= 0) & (lits < (1 << B)))
    if bad.any():
        i, c = np.argwhere(bad)[0]
        raise NumericOverflow(
            f"literal {lits[i, c]:.0f} for {vocab.cont_attrs[c // 2]} "
            f"{('lower', 'upper')[c % 2]} bound does not fit in {B} unsigned bits"
        )
    payload[:, lit_cols] = lits
    is_literal = np.zeros(payload.shape, dtype=bool)
    is_literal[:, lit_cols] = payload[:, attr_cols] != 0

    out = np.empty((len(rows), L, 1 + B), dtype=np.uint8)
    out[:, :, 0] = is_literal
    size = next(s for s in (1, 2, 4, 8) if 8 * s >= B)
    for start in range(0, len(rows), _UNPACK_CHUNK):
        chunk = payload[start : start + _UNPACK_CHUNK].astype(f">u{size}")
        bits = np.unpackbits(chunk[..., None].view(np.uint8), axis=-1)
        out[start : start + _UNPACK_CHUNK, :, 1:] = bits[..., 8 * size - B :]
    return out


def decode(matrix: np.ndarray, vocab: TokenVocabulary) -> FlatQuery:
    """Invert encode(); raises MalformedMatrix on anything that is not a
    well-formed encoding under this vocabulary."""
    mat = as_bits(matrix)
    expected = (vocab.sequence_length, vocab.row_width)
    if mat.shape != expected:
        raise MalformedMatrix(f"expected shape {expected}, got {mat.shape}")
    payloads = mat[:, 1:].astype(np.int64) @ _payload_weights(vocab.bit_width)

    def is_padding(row):
        return not row.any()

    def token_at(r, what):
        row = mat[r]
        if row[0] != 0:
            raise MalformedMatrix(f"row {r}: expected a token row for {what}, got a literal")
        token_id = int(payloads[r])
        if token_id == PADDING_ID:
            raise MalformedMatrix(f"row {r}: unexpected padding where {what} should be")
        return vocab.token_of(token_id)

    def literal_at(r, what):
        row = mat[r]
        if row[0] != 1:
            raise MalformedMatrix(f"row {r}: expected a numeric literal for {what}")
        return int(payloads[r])

    target_token = token_at(0, "the aggregation target")
    if target_token not in vocab.targets:
        raise MalformedMatrix(f"row 0: {target_token!r} is not an aggregation target")
    func_name, _, rest = target_token.partition("(")
    target = AggregationTarget(AggregationFunction(func_name), rest.rstrip(")"))

    betweens = []
    r = 1
    for attr in vocab.cont_attrs:
        chunk = mat[r : r + 3]
        if all(is_padding(row) for row in chunk):
            r += 3
            continue
        if any(is_padding(row) for row in chunk):
            raise MalformedMatrix(f"rows {r}..{r + 2}: partially padded BETWEEN block")
        if token_at(r, "a filter attribute") != attr:
            raise MalformedMatrix(f"row {r}: expected attribute token {attr!r}")
        s = vocab.scale(attr)
        lo = literal_at(r + 1, "the lower bound") / s
        hi = literal_at(r + 2, "the upper bound") / s
        if lo > hi:
            raise MalformedMatrix(f"rows {r + 1}..{r + 2}: bounds out of order ({lo} > {hi})")
        betweens.append(BetweenFilter(attr, lo, hi))
        r += 3
    ins = []
    for attr in vocab.nom_attrs:
        chunk = mat[r : r + 2]
        if all(is_padding(row) for row in chunk):
            r += 2
            continue
        if any(is_padding(row) for row in chunk):
            raise MalformedMatrix(f"rows {r}..{r + 1}: partially padded IN block")
        if token_at(r, "a filter attribute") != attr:
            raise MalformedMatrix(f"row {r}: expected attribute token {attr!r}")
        mtok = token_at(r + 1, "a member")
        prefix = f"{attr}="
        if not mtok.startswith(prefix):
            raise MalformedMatrix(f"row {r + 1}: {mtok!r} is not a member of {attr!r}")
        ins.append(InFilter(attr, mtok[len(prefix):]))
        r += 2
    return FlatQuery(target, tuple(betweens), tuple(ins))


def row_token_ids(X: np.ndarray) -> np.ndarray:
    """Token IDs stored at row 0, the target, across a whole encoded tensor."""
    payload = np.asarray(X)[:, 0, 1:].astype(np.int64)
    return payload @ _payload_weights(payload.shape[1])


# -- encoded tensor files -----------------------------------------------------

ENCODED_VERSION = 1


def save_encoded(path, X: np.ndarray, y: np.ndarray, support: np.ndarray,
                 meta: dict | None = None) -> None:
    """Store an encoded workload: 0/1 inputs, labels, supports and metadata."""
    arrays = {"X": as_bits(X), "y": np.asarray(y, dtype=np.float64),
              "support": np.asarray(support, dtype=np.int64)}
    save_npz(path, "encoded", ENCODED_VERSION, arrays, {"count": len(X), **(meta or {})})


def load_encoded(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    meta, arrays = read_artifact(path, "encoded", ENCODED_VERSION)
    with parsing(path, "encoded"):
        return arrays["X"], arrays["y"], arrays["support"], meta


# -- vocabulary files -------------------------------------------------------

def save_vocabulary(vocab: TokenVocabulary, path: str | Path, meta: dict | None = None) -> None:
    doc = {"kind": "vocabulary", "version": VOCAB_VERSION, **(meta or {}), **vocab.to_record()}
    doc["content_hash"] = vocab.content_hash()
    write_json(path, doc)


def load_vocabulary(path: str | Path) -> tuple[TokenVocabulary, dict]:
    doc, _ = read_artifact(path, "vocabulary", VOCAB_VERSION)
    with parsing(path, "vocabulary"):
        vocab = TokenVocabulary.from_record(doc)
    if doc.get("content_hash") != vocab.content_hash():
        raise CorruptArtifact(f"{path}: content hash does not match the vocabulary")
    return vocab, doc
