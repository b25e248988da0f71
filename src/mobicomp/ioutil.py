"""Small file helpers: atomic writes, hashing, canonical JSON.

Canonical JSON is the exact text of ``json.dumps(obj, indent=2,
sort_keys=True) + "\\n"``; ``dump_json`` produces it in one pass (see there).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import repeat
from json.encoder import encode_basestring_ascii as _encode_str
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


class _Indents(dict):
    """``"\\n"`` plus two spaces per level, built once per depth."""

    def __missing__(self, depth: int) -> str:
        text = self[depth] = "\n" + "  " * depth
        return text


_INDENT = _Indents()
# float.__repr__ writes these three; no other scalar's JSON text equals one
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_fallback(o) -> str:
    """``json``'s handling of a value whose type is not an exact scalar type:
    ``""`` marks a container, a subclass of str, int or float is written as
    its base type (``IntEnum``, ``np.float64``), anything else is refused."""
    if isinstance(o, (list, tuple, dict)):
        return ""
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# Encoders of the exact scalar types; bool is found here before int.
_SCALARS = {
    str: _encode_str,
    float: float.__repr__,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalars(values) -> list[str]:
    """JSON text of each value, ``""`` for a list, tuple or dict."""
    get = _SCALARS.get
    texts = [get(type(v), _scalar_fallback)(v) for v in values]
    if "nan" in texts or "inf" in texts or "-inf" in texts:
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


class _Keys(dict):
    """Encoded dict keys with their separator (``'"w": '``), one entry per
    distinct str key. Other keys are converted as json does (bool is an int)
    on every use: 1, 1.0 and True hash alike but are written differently."""

    def __missing__(self, key) -> str:
        if isinstance(key, str):
            text = _encode_str(key) + ": "
        elif key is None or isinstance(key, (int, float)):
            text = _encode_str(_scalars([key])[0]) + ": "
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        if type(key) is str:
            self[key] = text
        return text


class _Shapes(dict):
    """For a dict's keys in insertion order and its depth: the keys sorted,
    and the ``%`` template of the dict written with scalar values. Only
    all-str key sets are kept, for the reason given at ``_Keys``."""

    def __init__(self, keys: _Keys):
        super().__init__()
        self.keys = keys

    def __missing__(self, shape: tuple) -> tuple[list, str]:
        key_order, depth = shape
        # sorted() raises TypeError on mixed key types, as json's
        # sorted(dct.items()) does; both order distinct keys alike
        ordered = sorted(key_order)
        nl = _INDENT[depth + 1]
        heads = (self.keys[k].replace("%", "%%") + "%s" for k in ordered)
        entry = ordered, "{" + nl + ("," + nl).join(heads) + _INDENT[depth] + "}"
        if all(type(k) is str for k in ordered):
            self[shape] = entry
        return entry


def dump_json(obj) -> str:
    """Canonical JSON: for every object ``json.dumps`` accepts, exactly
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, the reference the
    tests compare against; what ``json.dumps`` refuses raises ``TypeError``.

    The standard library uses its C encoder only without ``indent``; with it,
    every chunk passes up through a stack of Python generators. Here one
    recursive pass appends to one list, and a dict or list holding only
    scalars (every candidate of a discover payload) becomes one string: a
    dict through a template kept per key set and depth, a list with a join.
    """
    out: list[str] = []
    append = out.append
    keys = _Keys()
    shapes = _Shapes(keys)

    def container(o, depth: int, lead: str) -> None:
        # ``lead`` (what precedes ``o``: separator, indent, key) goes in front
        # of the first chunk, so a scalar-only container is a single append.
        is_dict = isinstance(o, dict)
        opening, closing = "{}" if is_dict else "[]"
        if not o:
            append(lead + opening + closing)
            return
        if type(o) is dict:
            ordered, template = shapes[tuple(o), depth]
            values = [o[k] for k in ordered]
            texts = _scalars(values)
            if all(texts):
                append(lead + template % tuple(texts))
                return
            heads = [keys[k] for k in ordered]
        elif is_dict:  # a subclass: json reads its items()
            items = sorted(o.items())
            heads = [keys[k] for k, _ in items]
            values = [v for _, v in items]
            texts = _scalars(values)
        else:
            values, texts = o, _scalars(o)
            if all(texts):
                nl = _INDENT[depth + 1]
                append(f"{lead}[{nl}{(',' + nl).join(texts)}{_INDENT[depth]}]")
                return
            heads = repeat("")
        nl = _INDENT[depth + 1]
        sep = "," + nl
        lead += opening + nl
        for i, (head, value, text) in enumerate(zip(heads, values, texts)):
            if i:
                lead += sep
            if text:
                lead += head + text
            else:
                container(value, depth + 1, lead + head)
                lead = ""
        append(lead + _INDENT[depth] + closing)

    top = _scalars([obj])[0]
    if top:
        return top + "\n"
    container(obj, 0, "")
    append("\n")
    return "".join(out)


def read_input(path: str | Path) -> bytes:
    """The bytes of an input file; a missing or unreadable file is an
    ``InvalidInputError`` naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror}") from None


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
