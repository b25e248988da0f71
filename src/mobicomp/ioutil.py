"""The one place input files are opened and CSVs are written; also atomic
writes, hashing and canonical JSON.

Canonical JSON is the exact text of ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"`` for a document made of the exact types every
written document holds: ``dict`` with ``str`` keys, ``list``, ``tuple``,
``str``, ``int``, ``float``, ``bool`` and ``None``. Anything else, a subclass
or a non-str key too, raises ``TypeError``. ``dump_json`` renders it by
columns, with one renderer (``_texts``): the values of a list are encoded
together, each distinct value of a long repeating column once, a list of
dicts is woven from one column per key and the constant key and indent text
in one join, and a column of mixed types renders each value as a column of
one. Only the root and its direct children are written chunk by chunk; each
deeper value is rendered whole (see there).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from operator import itemgetter
from pathlib import Path

from .errors import InvalidInputError


# Characters of a text encoded at a time by atomic_write_text
_TEXT_SLICE = 1 << 20


def _umask() -> int:
    # os.umask can only be read by setting it; it is put back at once
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` via a temp file in the same directory, then rename.
    The file gets the mode a plain ``open(path, "w")`` would give: 0o666
    less the umask. If a chunk raises, the old file stays and the temp file
    is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    _atomic_write(path, [data])


def atomic_write_text(path: str | Path, text: str) -> None:
    """``text`` as UTF-8, encoded and written ``_TEXT_SLICE`` characters at a
    time, so no bytes copy of the whole text is held beside it."""
    slices = range(0, len(text), _TEXT_SLICE)
    _atomic_write(path, (text[i : i + _TEXT_SLICE].encode("utf-8") for i in slices))


def write_csv(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Atomically write ``rows`` as UTF-8 CSV in ``csv``'s default dialect,
    which writes every float, ``np.float64`` too, as ``float.__repr__``."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


class _Indents(dict):
    """``"\\n"`` plus two spaces per level, built once per depth."""

    def __missing__(self, depth: int) -> str:
        text = self[depth] = "\n" + "  " * depth
        return text


_INDENT = _Indents()
# json's text of the three floats float.__repr__ writes otherwise
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Encoders of the exact scalar types
_SCALARS = {
    str: _encode_str,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
# Depths written chunk by chunk; a value below them is rendered whole.
_STREAMED_DEPTHS = 2
# Size of the strided sample that tells whether a column repeats
_SAMPLE = 64


def _key(key) -> str:
    """An encoded str key with its separator (``'"w": '``)."""
    if type(key) is not str:
        raise TypeError(f"keys must be str, not {key.__class__.__name__}")
    return _encode_str(key) + ": "


def _entries(o):
    """The brackets, the key heads of a dict (``None`` for a list or tuple)
    and the values of an exact list, tuple or dict; ``None`` for anything
    else."""
    if type(o) is list or type(o) is tuple:
        return "[]", None, list(o)
    if type(o) is dict:
        # sorted() raises TypeError on mixed key types
        items = sorted(o.items())
        return "{}", [_key(k) for k, _ in items], [v for _, v in items]
    return None


def _encoded(values: list, kind: type) -> list[str]:
    """The texts of ``values``, all of the exact scalar type ``kind``. A long
    float or str column whose strided sample of ``_SAMPLE`` values repeats
    encodes each distinct value once; one holding a zero does not, as
    ``0.0`` and ``-0.0`` are one dict key."""
    distinct = values
    n = len(values)
    if (kind is float or kind is str) and n >= 2 * _SAMPLE:
        sample = values[:: n // _SAMPLE]
        if len(set(sample)) < len(sample) * 3 // 4:
            codes = dict.fromkeys(values)
            if 0.0 not in codes:  # never true of str keys
                distinct = list(codes)
    texts = list(map(_SCALARS[kind], distinct))
    if kind is float and not all(map(isfinite, distinct)):
        texts = [_NONFINITE.get(t, t) for t in texts]
    if distinct is values:
        return texts
    return list(map(dict(zip(distinct, texts)).__getitem__, values))


def _weave(openers: list[str], cols: list[list[str]], glue: list[str], end: str) -> str:
    """One join of ``openers[i] + cols[0][i] + glue[0] + cols[1][i] + ... +
    cols[-1][i]`` over every row ``i``, then ``end``."""
    step = 2 * len(cols)
    parts = [None, None, *chain.from_iterable((g, None) for g in glue)] * len(openers)
    parts[::step] = openers
    for j, col in enumerate(cols):
        parts[2 * j + 1 :: step] = col
    parts.append(end)
    return "".join(parts)


def _rows(dicts: list, depth: int):
    """Exact dicts that share one non-empty key set as ``(opening, columns,
    glue, closing)``: the text of dict ``i`` is ``opening + columns[0][i] +
    glue[0] + columns[1][i] + ... + closing``, one column per sorted key.
    ``None`` if they do not share one. The keys are those of the first dict
    (``_key`` refuses one that is not a str); the others are read by them."""
    first = dicts[0]
    if not first or set(map(type, dicts)) != {dict} or set(map(len, dicts)) != {len(first)}:
        return None
    keys = sorted(first)
    try:
        cols = [list(map(itemgetter(k), dicts)) for k in keys]
    except KeyError:  # same size, another key set
        return None
    heads = [_INDENT[depth + 1] + _key(k) for k in keys]
    texts = [_texts(col, depth + 1) for col in cols]
    return "{" + heads[0], texts, ["," + h for h in heads[1:]], _INDENT[depth] + "}"


def _lists(lists: list, depth: int) -> list[str]:
    """The text of each of ``lists``: their members as one column, or as the
    columns of ``_rows``, woven with the brackets and separators in one join
    that is cut after each list."""
    members = list(chain.from_iterable(lists))
    if not members:
        return ["[]"] * len(lists)
    rows = _rows(members, depth + 1) or ("", [_texts(members, depth + 1)], [], "")
    opening, cols, glue, closing = rows
    nl = _INDENT[depth + 1]
    openers = [closing + "," + nl + opening] * len(members)
    # canonical JSON holds no raw NUL, so one ends each list's text
    cut = "\0" if len(lists) > 1 else ""
    first, last = "[" + nl + opening, closing + _INDENT[depth] + "]" + cut
    i, pending = 0, ""
    for n in map(len, lists):
        if n:
            openers[i] = pending + first
            pending = last
            i += n
        else:
            pending += "[]" + cut
    text = _weave(openers, cols, glue, pending)
    return text.split(cut)[:-1] if cut else [text]


def _texts(values: list, depth: int) -> list[str]:
    """The JSON text of each of ``values``, all at ``depth``. A column of
    mixed types renders each value as a one-value column; a value of any
    other type than those ``dump_json`` takes raises ``TypeError``."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALARS:
        return _encoded(values, kind)
    if kind is list or kind is tuple:
        return _lists(values, depth)
    rows = _rows(values, depth) if kind is dict else None
    if rows is not None:
        opening, cols, glue, closing = rows
        openers = [opening] + [closing + "\0" + opening] * (len(values) - 1)
        text = _weave(openers, cols, glue, closing)
        return text.split("\0") if len(values) > 1 else [text]
    if len(values) > 1:
        return [_texts([v], depth)[0] for v in values]
    if kind is dict:  # one dict that no rows describe is empty
        return ["{}"]
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _stream(o, depth: int, out: list[str]) -> None:
    """Append the text of ``o`` to ``out``: a non-empty container above
    ``_STREAMED_DEPTHS`` chunk by chunk, anything else whole."""
    entries = _entries(o) if depth < _STREAMED_DEPTHS else None
    if entries is None or not entries[2]:
        out.append(_texts([o], depth)[0])
        return
    (opening, closing), heads, values = entries
    nl = _INDENT[depth + 1]
    out.append(opening)
    for i, v in enumerate(values):
        out.append(("," if i else "") + nl + (heads[i] if heads else ""))
        _stream(v, depth + 1, out)
    out.append(_INDENT[depth] + closing)


def dump_json(obj) -> str:
    """Canonical JSON of a document made of exact ``dict`` (with ``str``
    keys), ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool`` and
    ``None``: exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    the reference the tests compare against. Any other value raises
    ``TypeError``, a subclass of one of these types (an ``IntEnum``, an
    ``np.float64``, an ``OrderedDict``, a namedtuple) and a non-str key
    included, although ``json.dumps`` writes them.

    The standard library uses its C encoder only without ``indent``; with it,
    every value passes up through a stack of Python generators. Here values
    are rendered by columns (``_texts``). A list whose values share one
    scalar type is one ``map`` of that type's encoder; in a long float or
    str column that repeats, each distinct value is encoded once
    (``_encoded``). A list of dicts sharing one key set is split into one
    column per key, and a list of lists or tuples into the one column of
    their members; the columns are interleaved with the constant text
    between them (keys, indents, brackets, separators) and joined once
    (``_weave``), and a join that holds several lists is cut at the NUL put
    after each, a character canonical JSON never holds raw. A column of
    mixed types renders each value as a column of its own. The keys of a
    column of dicts are checked on its first dict, the others are read by
    them. The root and its direct children are written chunk by chunk into
    one list joined at the end; each deeper value (one user's block of a
    discover payload) is rendered whole, so the document is built once, by
    that join, and no column outlives its block.
    """
    out: list[str] = []
    _stream(obj, 0, out)
    out.append("\n")
    return "".join(out)


def read_input(path: str | Path) -> bytes:
    """The bytes of an input file; a missing or unreadable file is an
    ``InvalidInputError`` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror}") from None


@contextmanager
def open_text(path: str | Path) -> Iterator[io.TextIOBase]:
    """A UTF-8 input file opened for ``csv``. A missing, unreadable or non-UTF-8
    file is an ``InvalidInputError`` naming it, also when the failing read is
    one made inside the ``with`` block."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_json_object(path: str | Path) -> dict:
    """The object a UTF-8 JSON file holds; a file that is unreadable, not
    valid JSON or not an object is an ``InvalidInputError`` naming it."""
    data = read_input(path)
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise InvalidInputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    return doc


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
