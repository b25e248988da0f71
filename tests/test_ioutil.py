import ast
import enum
import json
import math
import os
import random
import re
import tracemalloc
from collections import OrderedDict, namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobicomp
from mobicomp import ioutil, oracle
from mobicomp.errors import InvalidInputError
from mobicomp.ioutil import atomic_write_bytes, atomic_write_text, dump_json, open_text, write_csv

from conftest import line_user, make_env, service_tracking


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Subclasses of the JSON types, which json writes as their base type and
# dump_json refuses
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Tag(str):
    pass


class Bag(dict):
    pass


class Row(list):
    pass


Pair = namedtuple("Pair", "left right")

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 1.5e300, math.nan, math.inf, -math.inf]
)
texts = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "é", " ", "\U0001f600", '"\\/'])
scalars = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, True, False])
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | floats
    | texts
)


def dicts(children, keys=st.lists(texts, max_size=6)):
    def build(keys):
        return st.lists(children, min_size=len(keys), max_size=len(keys)).map(
            lambda vals: dict(zip(keys, vals))
        )

    return keys.flatmap(build)


values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        dicts(children),
    ),
    max_leaves=40,
)


# A list of dicts that share one key set is rendered by columns; the cells of
# a column are drawn from one of these, the mixed ones included.
column_cells = st.sampled_from([
    st.integers() | st.booleans(),
    floats,
    floats | st.integers(),
    texts,
    st.none() | texts,
    st.booleans() | st.none(),
    scalars,
    st.lists(st.lists(scalars, max_size=3), max_size=3),
    st.lists(st.lists(scalars, max_size=3).map(tuple), max_size=3),
    st.lists(st.fixed_dictionaries({"x": floats, "%s": st.integers()}), max_size=3),
])
column_keys = st.lists(texts | st.sampled_from(["a", "b", "%s", "%%", "%(a)s"]), unique=True, max_size=4)


@st.composite
def dict_columns(draw):
    """At least two dicts with one key set, each in its own insertion order,
    sometimes with a tuple, an empty dict or a dict of the same size with
    other keys in the list, sometimes nested in a discover-shaped payload."""
    keys = draw(column_keys)
    n = draw(st.integers(2, 6))
    cols = {k: draw(st.lists(draw(column_cells), min_size=n, max_size=n)) for k in keys}
    rows = [{k: cols[k][i] for k in draw(st.permutations(keys))} for i in range(n)]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        others = [lambda d: tuple(d.values()), lambda d: {}, lambda d: {k + "'": v for k, v in d.items()}]
        rows[i] = draw(st.sampled_from(others))(rows[i])
    if draw(st.booleans()):
        return {"meta": {}, "users": [{"user_id": "u", "steps": rows}, {"steps": []}]}
    return rows


# lists of lists, flattened into one column and re-joined
nested_lists = st.lists(st.lists(st.lists(scalars, max_size=3), max_size=3), min_size=2, max_size=5)

# Cells that a column long enough to be sampled gets besides its few
# repeating values: zeros of both signs, a NaN of its own, infinities, and
# values of another type, which make the column mixed.
odd_cells = st.sampled_from([0.0, -0.0, "fresh nan", math.inf, -math.inf, 0, True, None, "naïve"])
zero_pairs = st.sampled_from([(), (0.0, -0.0), (-0.0, 0.0), (0.0,), (-0.0,)])


def deep(obj):
    """``obj`` below the levels ``dump_json`` streams item by item, where it
    is rendered as one column."""
    return [[obj]]


@st.composite
def long_columns(draw):
    """A few hundred values drawn from a few distinct floats or strs, so that
    their strided sample repeats, with zeros and a few odd cells put off the
    sample."""
    pool = draw(
        st.lists(floats, min_size=1, max_size=4)
        | st.lists(texts | st.sampled_from(["é", "日本", "\U0001f600x"]), min_size=1, max_size=4)
    )
    n = draw(st.integers(2 * ioutil._SAMPLE, 8 * ioutil._SAMPLE))
    col = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    step = n // ioutil._SAMPLE
    for cell in (*draw(zero_pairs), *draw(st.lists(odd_cells, max_size=3))):
        i = draw(st.integers(1, n - 2))
        col[i + (i % step == 0)] = float("nan") if cell == "fresh nan" else cell
    return col


@st.composite
def long_shapes(draw):
    """A long column as a list, as a column of dicts whose keys hold ``%``
    and NUL, or as those dicts cut into lists with empty ones at the start,
    in the middle and at the end, nested as in a discover payload."""
    col = draw(long_columns())
    shape = draw(st.sampled_from(["list", "dicts", "lists"]))
    if shape == "list":
        return deep(col)
    rows = [{"%s": v, "%%": i, "a\x00b": col[-1 - i]} for i, v in enumerate(col)]
    if shape == "dicts":
        return deep(rows)
    cuts = draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=40))
    bounds = [0, 0, *sorted(cuts), len(rows), len(rows)]
    lists = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
    steps = [{"candidates": c, "timestep": t} for t, c in enumerate(lists)]
    return {"meta": {}, "users": [{"user_id": "u", "steps": steps}, {"steps": []}]}


# Values json writes and dump_json refuses: subclasses of the exact types and
# dicts with keys json converts (mutually orderable, as sorting needs). A
# str-subclass key is left out, as a dict in a column is read by the first
# dict's keys, which it may equal.
refused = st.one_of(
    st.sampled_from(list(Level)),
    floats.map(np.float64),
    texts.map(Tag),
    dicts(scalars).map(OrderedDict),
    dicts(scalars).map(Bag),
    st.lists(scalars, max_size=3).map(Row),
    st.tuples(scalars, scalars).map(lambda t: Pair(*t)),
    dicts(scalars, st.lists(st.integers() | floats | st.booleans(), min_size=1, max_size=4)),
    scalars.map(lambda v: {None: v}),
)


@st.composite
def poisoned(draw):
    """One refused value put among exact values at a random depth, each
    level a list, tuple or dict."""
    obj = draw(refused)
    for _ in range(draw(st.integers(0, 4))):
        items = draw(st.lists(values, max_size=3))
        items.insert(draw(st.integers(0, len(items))), obj)
        shape = draw(st.sampled_from([list, tuple, dict]))
        if shape is dict:
            keys = draw(st.lists(texts, min_size=len(items), max_size=len(items), unique=True))
            obj = dict(zip(keys, items))
        else:
            obj = shape(items)
    return obj


def discover_shaped(users: int, steps: int, rng: random.Random) -> dict:
    """A payload shaped as ``mobicomp discover`` writes it."""
    blocks = []
    for u in range(users):
        rows = []
        for t in range(1, steps + 1):
            cands = [
                {
                    "service_id": f"s{rng.randrange(200):04d}",
                    "distance_m": rng.uniform(0.0, 20.0),
                    "strength": rng.random(),
                    "capacity_bps": rng.uniform(1e5, 1e7),
                }
                for _ in range(rng.randint(0, 8))
            ]
            chosen = cands[0]["service_id"] if cands else "__dummy__"
            rows.append({"timestep": t, "candidates": cands, "chosen": chosen})
        blocks.append({"user_id": f"user:u{u:04d}", "steps": rows})
    return {"meta": {"tool": "mobicomp", "seed": 1}, "users": blocks}


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_equals_json_dumps(self, obj):
        assert dump_json(obj) == reference(obj)

    @settings(max_examples=300, deadline=None)
    @given(dict_columns() | nested_lists)
    def test_columns_equal_json_dumps(self, obj):
        assert dump_json(obj) == reference(obj)

    @settings(max_examples=300, deadline=None)
    @given(long_shapes())
    def test_long_columns_equal_json_dumps(self, obj):
        assert dump_json(obj) == reference(obj)

    @pytest.mark.parametrize(
        "col",
        [
            [1.5, 2.5] * 200,
            [1.5] * 300 + [-0.0],
            [-0.0] + [1.5] * 300 + [0.0],
            [math.nan] * 300,
            [float("nan") for _ in range(300)],
            [math.inf, -math.inf, 1.0] * 100,
            [1.0] * 299 + [1],
            ["é", "日本"] * 150 + [None],
            ["é", "日本"] * 150,
        ],
        ids=[
            "two_floats", "negative_zero_last", "both_zeros", "shared_nan", "distinct_nans",
            "infinities", "int_in_floats", "none_in_strs", "non_ascii",
        ],
    )
    def test_long_column_examples(self, col):
        rows = [{"%s": v, "%%": 0, "\x00": [v]} for v in col]
        for obj in (deep(col), deep(rows), {"users": [{"steps": [rows, [], rows[:1]]}]}):
            assert dump_json(obj) == reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[]], "d": [{}]},
            {"a%s": 1, "%%": "%d", "{0}": "{}"},
            {"1": "int", "2": [3], "10": []},
            {"1.5": 0.0, "-0.0": -0.0, "1e+16": 1e16},
            {"NaN": math.nan},
            {"Infinity": math.inf, "-Infinity": -math.inf},
            {"true": True, "false": False},
            {"null": None},
            [{"k": 1}, {"1": 2}, {"true": 3}, {"1.0": 4}, {"k": [5]}],
            [True, 1, False, 0, 1.0, 0.0],
            {"LOW": 1, "HIGH": 2**70},
            [0.1, math.nan, -math.inf],
            {"b": 1, "a": 2},
            {"z": {}, "y": [1, []]},
            ([1], {"x": "y"}),
            {"deep": {"er": {"est": [[[{"x": [1, {"y": []}]}]]]}}},
            "top-level é",
            12345678901234567890123456789,
            -1.5e-10,
            None,
        ],
    )
    def test_examples(self, obj):
        assert dump_json(obj) == reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            np.int64(3),
            {1, 2},
            object(),
            [1, {"nested": np.int64(3)}],
            {"a": 1, 2: "b"},
            [{None: 1, 1: 2}],
            {(1, 2): "tuple key"},
            {"b": {b"bytes"}},
            # np.int64 inside a column of dicts sharing one key set
            [{"a": 1, "b": 2.0}, {"b": 1.0, "a": np.int64(3)}],
        ],
    )
    def test_refuses_what_json_refuses(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            Level.HIGH,
            [np.float64(0.1), np.float64("nan"), np.float64("-inf")],
            Tag("y"),
            OrderedDict([("b", 1), ("a", 2)]),
            Bag(z=1),
            Row([1, 2]),
            Pair(left=[1], right={"x": 2}),
            {1: "int", 2: [3]},
            {1.5: 0, -0.0: 1, 1e16: 2},
            {math.nan: 0},
            {math.inf: 1, -math.inf: 2},
            {True: 1, False: 0},
            {None: None},
            {Tag("k"): 1},
            {Level.LOW: 1},
            [{"k": 1}, {1: 2}, {True: 3}, {1.0: 4}, {"k": [5]}],
            [1.0] * 299 + [np.float64(1.0)],
            ["é", "日本"] * 150 + [Tag("é")],
            [{"a": 1.0, "b": "x"}] * 200 + [{"a": np.float64(1.0), "b": "x"}],
        ],
        ids=[
            "int_enum", "np_float64", "str_subclass", "ordered_dict", "dict_subclass",
            "list_subclass", "namedtuple", "int_keys", "float_keys", "nan_key", "inf_keys",
            "bool_keys", "none_key", "str_subclass_key", "int_enum_key", "mixed_keys_column",
            "np_float64_in_long_floats", "str_subclass_in_long_strs", "np_float64_in_dict_column",
        ],
    )
    def test_refuses_what_json_writes(self, obj):
        # json.dumps writes subclasses as their base type and converts
        # non-str keys; dump_json takes the exact types only, at the
        # streamed levels and below them
        for o in (obj, deep(obj), {"users": [{"steps": [[obj]]}]}):
            json.dumps(o, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                dump_json(o)

    @settings(max_examples=200, deadline=None)
    @given(poisoned())
    def test_refuses_one_value_json_writes_anywhere(self, obj):
        json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dump_json(obj)

    def test_dicts_of_one_size_with_other_keys(self):
        # below the streamed levels such dicts are not one set of columns,
        # so each is rendered as a column of its own
        rows = [{"a": 1}, {"b": 2}]
        assert ioutil._rows(rows, 2) is None
        for obj in (deep(rows), deep([rows, [{"a": 3}]])):
            assert dump_json(obj) == reference(obj)

    def test_discover_payload(self):
        user = line_user(30)
        services = [
            service_tracking(user, "sA", 1, 20, offset_y=2.0),
            service_tracking(user, "sB", 5, 30, offset_y=-5.0, bandwidth=7e6),
            service_tracking(user, "sC", 12, 26, offset_y=9.0, k=3),
        ]
        env = make_env(services, [user])
        table = env.table_for(user)
        plan = oracle.optimal_plan(table, user, reward_scale=env.reward_scale, dummy_reward=-1.0)
        payload = {
            "meta": {"tool": "mobicomp", "seed": 7, "input_hashes": {"scenario.json": "ab" * 32}},
            "users": [{"user_id": user.id, "steps": oracle.table_plan_json(table, plan, user)}],
        }
        assert sum(len(s["candidates"]) for s in payload["users"][0]["steps"]) > 20
        assert dump_json(payload) == reference(payload)

    def test_streams_the_outer_levels(self):
        # the root and its children are streamed and each user's block is
        # rendered whole, so the peak stays near the output plus its chunks
        payload = discover_shaped(12, 300, random.Random(1))
        tracemalloc.start()
        try:
            text = dump_json(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == reference(payload)
        assert peak < 2.2 * len(text), peak / len(text)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002], ids=lambda m: f"{m:03o}")
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write_bytes(tmp_path / "a.bin", b"x")
            atomic_write_text(tmp_path / "b.txt", "y")
            with open(tmp_path / "c.txt", "w") as fh:
                fh.write("z")
        finally:
            os.umask(old)
        want = os.stat(tmp_path / "c.txt").st_mode & 0o777
        assert want == 0o666 & ~umask
        for name in ("a.bin", "b.txt"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == want

    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_text_longer_than_one_slice_round_trips(self, tmp_path):
        path = tmp_path / "out.json"
        text = "aé日\U0001f600" * (ioutil._TEXT_SLICE // 2)
        atomic_write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_lone_surrogate_in_a_later_slice_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "old")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "a" * (2 * ioutil._TEXT_SLICE) + "\ud800")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestFileEdge:
    def test_only_ioutil_opens_files_or_writes_csv(self):
        offenders = []
        for path in sorted(Path(mobicomp.__file__).parent.glob("*.py")):
            if path.name == "ioutil.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                opens = (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute) and f.attr == "open"
                )
                csv_writer = (
                    isinstance(f, ast.Attribute)
                    and f.attr in ("writer", "DictWriter")
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "csv"
                )
                if opens or csv_writer:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_open_text_names_a_missing_file(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(InvalidInputError, match=re.escape(f"{missing}: cannot read")):
            with open_text(missing):
                pass

    def test_open_text_names_a_file_whose_later_bytes_are_not_utf8(self, tmp_path):
        # the bad byte lies beyond the first buffered read, so it is met
        # inside the with block
        path = tmp_path / "late.csv"
        path.write_bytes(b"id,t,x,y\n" + b"a,1,0.0,0.0\n" * 2000 + b"\xff,2,0.0,0.0\n")
        with pytest.raises(InvalidInputError, match=re.escape(f"{path}: not UTF-8")):
            with open_text(path) as fh:
                assert fh.readline() == "id,t,x,y\n"
                fh.read()

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [["id", "t"], ["a,b", 1, 0.1, np.float64(1e-300), math.nan]])
        assert path.read_bytes() == b'id,t\r\n"a,b",1,0.1,1e-300,nan\r\n'
