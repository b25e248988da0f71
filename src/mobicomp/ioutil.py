"""The one place input files are opened and CSVs are written; also atomic
writes, hashing and canonical JSON.

Canonical JSON is the exact text of ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"``. ``dump_json`` renders it by columns: the values of
a list are encoded together, a list of dicts one column per key. Only the
root and its direct children are written chunk by chunk; each deeper value
is rendered whole (see there).
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
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from operator import add, itemgetter
from pathlib import Path

from .errors import InvalidInputError


def _umask() -> int:
    # os.umask can only be read by setting it; it is put back at once
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename. The file
    gets the mode a plain ``open(path, "w")`` would give: 0o666 less the
    umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


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
# Encoders of the exact scalar types; bool is found here before int.
_SCALARS = {
    str: _encode_str,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
# Depths written chunk by chunk; a value below them is rendered whole.
_STREAMED_DEPTHS = 2


def _scalar_fallback(o) -> str | None:
    """json's text of a scalar of any type, tested in json's order (a str,
    int or float subclass such as ``IntEnum`` or ``np.float64`` is written
    as its base type); ``None`` for anything else."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    return None


def _key(key) -> str:
    """An encoded dict key with its separator (``'"w": '``); a bool, int,
    float or None key is converted as json converts it."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _scalar_fallback(key)
    return _encode_str(key) + ": "


def _entries(o):
    """json's view of a list, tuple or dict: its brackets, the key heads of a
    dict (``None`` for the others) and its values; ``None`` for anything else."""
    if isinstance(o, (list, tuple)):
        return "[]", None, list(o)
    if isinstance(o, dict):
        # sorted() raises TypeError on mixed key types, as json's does
        items = sorted(o.items())
        return "{}", [_key(k) for k, _ in items], [v for _, v in items]
    return None


class _Templates(dict):
    """The ``%`` template of a dict with the given sorted str keys, written
    at the given depth with one ``%s`` per value."""

    def __missing__(self, shape: tuple) -> str:
        ordered, depth = shape
        nl = _INDENT[depth + 1]
        heads = (_key(k).replace("%", "%%") + "%s" for k in ordered)
        text = self[shape] = "{" + nl + ("," + nl).join(heads) + _INDENT[depth] + "}"
        return text


class _Renderer:
    """Renders a list of values at one depth by columns (see ``dump_json``),
    with the dict templates of one document."""

    def __init__(self):
        self.templates = _Templates()

    def texts(self, values: list, depth: int) -> list[str]:
        """The JSON text of each of ``values``, all at ``depth``."""
        kinds = set(map(type, values))
        if len(kinds) == 1:
            kind = kinds.pop()
            encode = _SCALARS.get(kind)
            if encode is not None:
                texts = list(map(encode, values))
                if kind is float and not all(map(isfinite, values)):
                    texts = [_NONFINITE.get(t, t) for t in texts]
                return texts
            if kind is dict:
                texts = self.dicts(values, depth)
                if texts is not None:
                    return texts
            elif kind is list:
                return self.lists(values, depth)
        return [self.value(v, depth) for v in values]

    def dicts(self, dicts: list[dict], depth: int) -> list[str] | None:
        """Exact dicts that share one all-str key set, one column per key;
        ``None`` if they do not share one."""
        orders = set(map(tuple, dicts))
        first = orders.pop()
        keyset = set(first)
        if not all(type(k) is str for k in first) or any(keyset != set(o) for o in orders):
            return None
        if not first:
            return ["{}"] * len(dicts)
        ordered = tuple(sorted(first))
        cols = [self.texts(list(map(itemgetter(k), dicts)), depth + 1) for k in ordered]
        return list(map(self.templates[ordered, depth].__mod__, zip(*cols)))

    def lists(self, lists: list[list], depth: int) -> list[str]:
        """Exact lists: their members rendered as one column, then re-joined."""
        texts = iter(self.texts(list(chain.from_iterable(lists)), depth + 1))
        nl = _INDENT[depth + 1]
        sep, head, tail = "," + nl, "[" + nl, _INDENT[depth] + "]"
        return [head + sep.join(islice(texts, n)) + tail if n else "[]" for n in map(len, lists)]

    def value(self, o, depth: int) -> str:
        """One value of any type; what json refuses raises ``TypeError``."""
        text = _scalar_fallback(o)
        if text is not None:
            return text
        entries = _entries(o)
        if entries is None:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        brackets, heads, values = entries
        if not values:
            return brackets
        texts = self.texts(values, depth + 1)
        if heads is not None:
            texts = map(add, heads, texts)
        nl = _INDENT[depth + 1]
        return brackets[0] + nl + ("," + nl).join(texts) + _INDENT[depth] + brackets[1]

    def stream(self, o, depth: int, out: list[str]) -> None:
        """Append the text of ``o`` to ``out``: a non-empty container above
        ``_STREAMED_DEPTHS`` chunk by chunk, anything else whole."""
        entries = _entries(o) if depth < _STREAMED_DEPTHS else None
        if entries is None or not entries[2]:
            out.append(self.texts([o], depth)[0])
            return
        (opening, closing), heads, values = entries
        nl = _INDENT[depth + 1]
        out.append(opening)
        for i, v in enumerate(values):
            out.append(("," if i else "") + nl + (heads[i] if heads else ""))
            self.stream(v, depth + 1, out)
        out.append(_INDENT[depth] + closing)


def dump_json(obj) -> str:
    """Canonical JSON: for every object ``json.dumps`` accepts, exactly
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, the reference the
    tests compare against; what ``json.dumps`` refuses raises ``TypeError``.

    The standard library uses its C encoder only without ``indent``; with it,
    every value passes up through a stack of Python generators. Here values
    are rendered by columns: a list whose values share one exact scalar type
    is one ``map`` of that type's encoder; a list of exact dicts sharing one
    all-str key set is split into one column per key, each rendered so, and
    its rows filled into a ``%`` template kept per key set and depth; a list
    of lists is rendered as the one column of their members. Any other value
    (a subclass, a tuple, a non-str key, a mixed list) is rendered one by
    one. The root and its direct children are written chunk by chunk into one
    list joined at the end; each deeper value (one user's block of a
    discover payload) is rendered whole, so the document is built once, by
    that join, and no column outlives its block.
    """
    out: list[str] = []
    _Renderer().stream(obj, 0, out)
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
