import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicomp.errors import InvalidInputError
from mobicomp.trajectories import (
    DistanceMode,
    Trajectory,
    TrajectoryPoint,
    dump_trajectories_csv,
    in_gps_range,
    load_trajectories_csv,
    resample,
)

from conftest import traj
from oracles import (
    check_gps, distance, great_circle_vincenty, row_csv_bytes, row_load_trajectories_csv,
    scalar_resample,
)

PLANAR = DistanceMode.PLANAR_EUCLIDEAN
GPS = DistanceMode.HAVERSINE

# frozen before the build from an independent Vincenty-sphere computation at
# 50-digit precision (mpmath): Sydney pair 1e-4 degrees of longitude apart
SYDNEY_A = (151.2093, -33.8688)  # lon, lat
SYDNEY_B = (151.2094, -33.8688)
SYDNEY_EXPECTED_M = 9.232691315294941


# the GPS box edges, one step outside them, and values well inside and out
GPS_EDGE_FLOATS = st.sampled_from(
    [e for edge in (90.0, 180.0) for s in (1.0, -1.0)
     for e in (s * edge, math.nextafter(s * edge, s * math.inf))]
) | st.floats(allow_nan=True, allow_infinity=True)


def assert_check_gps(x, y, inside):
    """``check_gps(x, y)`` passes when ``inside``, and raises otherwise."""
    if inside:
        check_gps(x, y)
    else:
        with pytest.raises(InvalidInputError, match=re.escape(f"({x}, {y})")):
            check_gps(x, y)


class TestDistance:
    def test_planar_3_4_5(self):
        assert distance(0, 0, 3, 4, PLANAR) == 5.0

    def test_identity_both_modes(self):
        assert distance(2.5, -7.25, 2.5, -7.25, PLANAR) == 0.0
        assert distance(*SYDNEY_A, *SYDNEY_A, GPS) == 0.0

    def test_haversine_matches_independent_great_circle(self):
        got = distance(*SYDNEY_A, *SYDNEY_B, GPS)
        assert got == pytest.approx(SYDNEY_EXPECTED_M, rel=1e-6)
        # the in-test oracle re-derives the frozen constant up to float64
        # rounding of this near-degenerate angle
        assert great_circle_vincenty(151.2093, -33.8688, 151.2094, -33.8688) == pytest.approx(
            SYDNEY_EXPECTED_M, rel=1e-8
        )

    def test_gps_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            distance(181.0, 0.0, 0.0, 0.0, GPS)
        with pytest.raises(InvalidInputError):
            distance(0.0, 0.0, 0.0, -90.5, GPS)

    def test_gps_box_edges_inside_and_one_step_out_outside(self):
        up, down = math.inf, -math.inf
        inside = [(180.0, 0.0), (-180.0, 0.0), (0.0, 90.0), (0.0, -90.0), (180.0, -90.0),
                  (-180.0, 90.0), (-0.0, -0.0)]
        outside = [(math.nextafter(180.0, up), 0.0), (math.nextafter(-180.0, down), 0.0),
                   (0.0, math.nextafter(90.0, up)), (0.0, math.nextafter(-90.0, down)),
                   (math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (0.0, math.nan)]
        for points, want in ((inside, True), (outside, False)):
            xs, ys = (np.array(c) for c in zip(*points))
            assert in_gps_range(xs, ys).tolist() == [want] * len(points)
            for x, y in points:
                assert in_gps_range(x, y) is want
                assert_check_gps(x, y, want)

    @given(st.lists(st.tuples(GPS_EDGE_FLOATS, GPS_EDGE_FLOATS), max_size=8))
    def test_gps_box_column_and_scalar_forms_agree_with_check_gps(self, points):
        xs, ys = (np.array(c, dtype=np.float64) for c in zip(*points)) if points else [np.empty(0)] * 2
        got = in_gps_range(xs, ys)
        assert got.dtype == bool and got.shape == (len(points),)
        assert got.tolist() == [in_gps_range(x, y) for x, y in points]
        for (x, y), want in zip(points, got.tolist()):
            assert_check_gps(x, y, want)

    @given(
        st.tuples(
            st.floats(-170, 170), st.floats(-80, 80),
            st.floats(-170, 170), st.floats(-80, 80),
        )
    )
    @settings(max_examples=150)
    def test_haversine_symmetric(self, coords):
        x1, y1, x2, y2 = coords
        dab, dba = distance(x1, y1, x2, y2, GPS), distance(x2, y2, x1, y1, GPS)
        assert dab == pytest.approx(dba, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
            min_size=3, max_size=3,
        ),
        st.sampled_from([PLANAR, GPS]),
    )
    @settings(max_examples=200)
    def test_symmetry_and_triangle_inequality(self, pts, mode):
        if mode is GPS:  # shrink into valid GPS ranges
            pts = [(x / 100.0, y / 150.0) for x, y in pts]
        a, b, c = pts
        dab, dba = distance(*a, *b, mode), distance(*b, *a, mode)
        dac, dcb = distance(*a, *c, mode), distance(*c, *b, mode)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dab <= dac + dcb + 1e-7


def resampled(tr, rate, origin=None):
    """``tr`` resampled at ``rate`` from ``origin``, by default its start."""
    return resample(tr.t, tr.x, tr.y, rate, tr.t[0] if origin is None else origin)


class TestResample:
    def test_midpoint_of_constant_speed_segment(self):
        out = resampled(traj([(0, 0, 0), (2, 4, 0)]), 1.0)
        assert out.points[1] == TrajectoryPoint(t=2, x=2.0, y=0.0)

    def test_exact_sample_returned_unchanged(self):
        tr = traj([(0, 0, 0), (2, 4, 0), (5, 1, 9)])
        out = resampled(tr, 2.0, origin=-2.0)
        assert out.points[:2] == (TrajectoryPoint(2, 0.0, 0.0), TrajectoryPoint(3, 4.0, 0.0))

    def test_hand_interpolation(self):
        out = resampled(traj([(0, 0, 0), (10, 10, 20)]), 2.5)
        assert out.points[1] == TrajectoryPoint(t=2, x=2.5, y=5.0)

    def test_no_extrapolation(self):
        # the grid runs from 0, but only its points within [1, 2] are kept
        out = resampled(traj([(1, 0, 0), (2, 1, 1)]), 0.5, origin=0.0)
        assert out.t.tolist() == [3, 4, 5]
        assert out.x.tolist() == [0.0, 0.5, 1.0]

    @given(st.floats(1e-3, 0.1), st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=100)
    def test_continuity_at_segment_boundary(self, rate, phase):
        tr = traj([(0, 0, 0), (1, 3, -2), (2, -1, 5)])
        # neighbouring grid points, those around the interior sample at t = 1
        # too, are no further apart than the faster segment's speed allows
        out = resampled(tr, rate, origin=-phase * rate)
        steps = np.hypot(np.diff(out.x), np.diff(out.y))
        assert steps.max() <= math.hypot(-4, 7) * rate * (1 + 1e-9)

    @given(st.data())
    @settings(max_examples=300)
    def test_equals_the_scalar_reference(self, data):
        rate = data.draw(st.floats(0.01, 10.0))
        origin = data.draw(st.floats(-1e3, 1e3))
        n = data.draw(st.integers(1, 10))
        if data.draw(st.booleans()):  # every sample on a grid point
            ks = np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
            t = [origin + int(k) * rate for k in ks]
        else:
            steps = data.draw(st.lists(st.floats(1e-3, 20.0), min_size=n, max_size=n))
            t = (origin + np.cumsum(steps)).tolist()
        coords = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        x, y = data.draw(coords), data.draw(coords)
        want = scalar_resample(t, x, y, rate, origin)
        if len(want) < 2:
            with pytest.raises(InvalidInputError, match="fewer than two grid points"):
                resample(t, x, y, rate, origin)
            return
        out = resample(t, x, y, rate, origin)
        assert list(zip(out.t.tolist(), out.x.tolist(), out.y.tolist())) == want

    def test_uniform_input_renumbered_from_one(self):
        tr = traj([(10.0, 1, 2), (10.5, 3, 4), (11.0, 5, 6)])
        out = resampled(tr, 0.5)
        assert [pt.t for pt in out.points] == [1, 2, 3]
        assert [(pt.x, pt.y) for pt in out.points] == [(1, 2), (3, 4), (5, 6)]

    def test_gap_filled_at_segment_midpoint(self):
        tr = traj([(0.0, 0, 0), (0.08, 8, 4)])
        out = resampled(tr, 0.04)
        assert len(out) == 3
        mid = out.points[1]
        assert (mid.t, mid.x, mid.y) == (2, 4.0, 2.0)

    def test_rate_larger_than_span_errors(self):
        tr = traj([(0.0, 0, 0), (0.03, 1, 1)])
        with pytest.raises(InvalidInputError):
            resampled(tr, 0.04)

    def test_nonpositive_rate_rejected(self):
        tr = traj([(0, 0, 0), (1, 1, 1)])
        for rate in (0.0, -0.5, math.nan):
            with pytest.raises(InvalidInputError):
                resampled(tr, rate)

    def test_span_beyond_the_grid_rejected(self):
        # (1e308 - -1e308) / 0.5 overflows float64: refused, with no warning
        with pytest.raises(InvalidInputError, match="2\\*\\*53 or more"):
            resample([-1e308, 1e308], [0.0, 1.0], [0.0, 1.0], 0.5, -1e308)

    def test_shared_origin_aligns_grids(self):
        early = traj([(0.0, 0, 0), (1.0, 10, 0)])
        late = traj([(0.5, 5, 5), (1.0, 10, 5)])
        a = resampled(early, 0.25, origin=0.0)
        b = resampled(late, 0.25, origin=0.0)
        assert [pt.t for pt in a.points] == [1, 2, 3, 4, 5]
        assert [pt.t for pt in b.points] == [3, 4, 5]

    @given(
        st.integers(2, 40),
        st.floats(0.01, 2.0),
    )
    @settings(max_examples=100)
    def test_output_timesteps_consecutive_integers(self, n, rate):
        tr = traj([(i * 0.37, i * 1.5, -i) for i in range(n)])
        if (n - 1) * 0.37 < rate:
            return
        out = resampled(tr, rate)
        ts = out.t.tolist()
        assert all(t.is_integer() for t in ts)
        assert all(b - a == 1 for a, b in zip(ts, ts[1:]))


class TestInvariants:
    def test_negative_timestep_rejected(self):
        with pytest.raises(InvalidInputError):
            TrajectoryPoint(t=-1, x=0, y=0)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(InvalidInputError):
            Trajectory(())

    def test_unsorted_or_duplicate_timesteps_rejected(self):
        with pytest.raises(InvalidInputError):
            traj([(2, 0, 0), (1, 1, 1)])
        with pytest.raises(InvalidInputError):
            traj([(1, 0, 0), (1, 1, 1)])

    @pytest.mark.parametrize("sample", [(math.nan, 0, 0), (1, math.inf, 0), (1, 0, -math.inf)])
    def test_non_finite_sample_rejected(self, sample):
        with pytest.raises(InvalidInputError, match="finite"):
            traj([sample])

    def test_columns_are_read_only_and_compare_by_value(self):
        a = traj([(1, 0.0, 2.0), (2, 1.5, -3.0)])
        assert a.t.tolist() == [1.0, 2.0] and a.x.tolist() == [0.0, 1.5]
        with pytest.raises(ValueError):
            a.x[0] = 9.0
        with pytest.raises(AttributeError):
            a.x = a.y
        b = traj([(1.0, -0.0, 2.0), (2.0, 1.5, -3.0)])
        assert a == b and hash(a) == hash(b)
        assert a != traj([(1, 0.0, 2.0), (2, 1.5, -3.5)])
        assert a.points == (TrajectoryPoint(1, 0.0, 2.0), TrajectoryPoint(2, 1.5, -3.0))
        assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))


class TestFromColumns:
    @pytest.mark.parametrize(
        "cols, message",
        [
            (([], [], []), "at least one point"),
            (([1, 2], [0, 0], [0]), "equal lengths, got 2, 2 and 1"),
            (([1, 2], [0, math.nan], [0, 0]), "finite"),
            (([1, 2], [0, 0], [math.inf, 0]), "finite"),
            (([-1, 2], [0, 0], [0, 0]), "non-negative, got -1.0"),
            (([1, 3, 2], [0, 0, 0], [0, 0, 0]), "strictly ascending, got 3.0 then 2.0"),
            (([1, 1], [0, 0], [0, 0]), "strictly ascending, got 1.0 then 1.0"),
        ],
    )
    def test_bad_columns_rejected(self, cols, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            Trajectory.from_columns(*cols)

    def test_stores_read_only_copies(self):
        t, x, y = np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([-1.0, 4.0])
        a = Trajectory.from_columns(t, x, y)
        t[0], x[0], y[0] = 0.0, 9.0, 9.0
        assert a == traj([(1, 0.5, -1.0), (2, 1.5, 4.0)])
        assert not (a.t.flags.writeable or a.x.flags.writeable or a.y.flags.writeable)

    def test_equals_the_point_path(self):
        a = traj([(0, 0.0, 2.0), (1.5, -0.0, 3.0), (4, 7.25, -1.0)])
        b = Trajectory.from_columns(a.t, a.x, a.y)
        assert b == Trajectory(a.points) and hash(b) == hash(a)
        assert copy.copy(b) == copy.deepcopy(b) == pickle.loads(pickle.dumps(b)) == a


class TestCsvRoundTrip:
    def test_round_trip_identical(self, tmp_path):
        items = [
            ("s001", traj([(1, 0.5, -1.25), (2, 3.125, 4.0)])),
            ("user:u001", traj([(1, 7.0, 8.0)])),
        ]
        path = tmp_path / "t.csv"
        dump_trajectories_csv(items, path)
        loaded = load_trajectories_csv(path)
        assert loaded == items
        # writing what was read reproduces the file byte-for-byte
        path2 = tmp_path / "t2.csv"
        dump_trajectories_csv(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "row", ["a,1,2", "a,1,zz,3", "a,,2,3", "a,nan,2,3", "a,1,inf,3", "a,1,2,-inf"]
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,t,x,y\na,0,1,1\n{row}\n")
        with pytest.raises(InvalidInputError, match=rf"{re.escape(str(path))}.*line 3"):
            load_trajectories_csv(path)

    def test_header_field_beyond_the_csv_limit_names_file_and_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("x" * 200_000 + ",t,x,y\na,0,1,1\n")
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(path))} line 1: field larger"):
            load_trajectories_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            load_trajectories_csv(path)


# ids that csv must quote, or keeps as they are: delimiters, quotes, line
# ends, spaces and non-ASCII text
CSV_IDS = st.text(
    st.sampled_from(list('a1,"\n\r \té:_') + ["\u00a0", "\u2028", "\x1c"]), max_size=6
)
# x and y values at the edges of their text: signed zeros, subnormals,
# extremes and values with 17 significant digits
CSV_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# timesteps: fractional, and integral up to 1e20, beyond int64
CSV_TIMES = st.one_of(
    st.floats(0.0, 1e20), st.integers(0, 10**20).map(float), st.sampled_from([0.0, 0.5, 2.0**53])
)


@st.composite
def csv_items(draw):
    """(id, Trajectory) items with distinct ids."""
    ids = draw(st.lists(CSV_IDS, min_size=1, max_size=4, unique=True))
    items = []
    for ident in ids:
        t = sorted(draw(st.sets(CSV_TIMES, min_size=1, max_size=5)))
        x = draw(st.lists(CSV_COORDS, min_size=len(t), max_size=len(t)))
        y = draw(st.lists(CSV_COORDS, min_size=len(t), max_size=len(t)))
        items.append((ident, Trajectory.from_columns(t, x, y)))
    return items


def same_load(path):
    """The column reader's result on ``path``, after checking it equals the
    row reference's, or the message of the error both raise."""
    try:
        want = row_load_trajectories_csv(path)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as got:
            load_trajectories_csv(path)
        assert str(got.value) == str(exc)
        return str(exc)
    got = load_trajectories_csv(path)
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, a), (_, b) in zip(got, want):
        for col in ("t", "x", "y"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
    return got


class TestCsvColumns:
    """The column writer and reader against the row references."""

    @given(csv_items())
    @settings(max_examples=200)
    def test_writer_bytes_and_reader_columns_equal_the_row_references(
        self, tmp_path_factory, items
    ):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        dump_trajectories_csv(items, path)
        assert path.read_bytes() == row_csv_bytes(items)
        got = same_load(path)
        assert got == items

    # one odd row after a good one; True where both readers take the file
    ODD_ROWS = {
        "blank": ("", True),
        "whitespace_only": ("   ", False),
        "short": ("a,1,2", False),
        "five_fields": ("a,1,2,3,4", True),
        "quoted_number": ('a,"1.5",2,3', True),
        "plus_sign": ("a,+1,2,3", True),
        "leading_dot": ("a,.5,2,3", True),
        "trailing_dot": ("a,5.,2,3", True),
        "underscore": ("a,1_0,2,3", True),
        "padded": ("a, 2 ,2,3", True),
        "nan": ("a,nan,2,3", False),
        "inf": ("a,1,inf,3", False),
        "overflow_to_inf": ("a,1e400,2,3", False),
        "negative_t": ("a,-1,2,3", False),
        "non_contiguous_ids": ("b,1,1,1\r\na,2,2,2", True),
        "repeated_t": ("a,0,5,5", False),
        "information_separator": ("a,\x1c2,2,3", False),
        "non_ascii_digit": ("a,\u0662,2,3", True),
        "unicode_space": ("a,\u30002,2,3", True),
        "quoted_id_with_line_ends": ('"a\r\nb\rc",1,2,3', True),
        "quoted_id_with_quote": ('"a""b",1,2,3', True),
        "quote_inside_id": ('a"b,1,2,3', True),
        "text_after_quoted_id": ('"a"b,1,2,3', True),
        "empty_id": (",1,2,3", True),
        "empty_t": ("a,,2,3", False),
    }

    @pytest.mark.parametrize("case", sorted(ODD_ROWS))
    def test_odd_row_is_read_as_the_row_reference_reads_it(self, tmp_path, case):
        row, accepted = self.ODD_ROWS[case]
        path = tmp_path / "odd.csv"
        path.write_bytes(f"id,t,x,y\r\na,0,1,1\r\n{row}\r\n".encode())
        got = same_load(path)
        assert isinstance(got, list) == accepted, got
        if not accepted and case != "repeated_t":
            assert f"{path} line 3" in got

    @pytest.mark.parametrize(
        "data",
        [b"id,t,x,y\r\n", b"id,t,x,y\r\n\r\n\n", b"", b"id,t,x\r\n", b"id,t,x,y\na\xff,1,2,3\n"],
    )
    def test_file_without_readable_rows_is_refused_as_the_row_reference_refuses_it(
        self, tmp_path, data
    ):
        path = tmp_path / "none.csv"
        path.write_bytes(data)
        assert isinstance(same_load(path), str)

    # fields beyond csv's 131,072-character limit: the rows after the header
    LONG_ID = "x" * 200_000 + ",0,1,1"
    LONG_FIELDS = {
        "long_id": ["a,0,1,1", LONG_ID, "b,1,2,2"],
        "long_id_then_short_row": ["a,0,1,1", LONG_ID, "a,1,2", "b,1,2,2"],
        "long_t": ["a,0,1,1", "b," + "0" * 199_999 + "1,2,2"],
        "quoted_id_with_line_ends": ["a,0,1,1", '"' + "y\n" * 70_000 + '",1,2,2'],
    }

    @pytest.mark.parametrize("case", sorted(LONG_FIELDS))
    def test_field_beyond_the_csv_limit_is_refused_as_the_row_reference_refuses_it(
        self, tmp_path, case
    ):
        path = tmp_path / "long.csv"
        path.write_text("".join(row + "\n" for row in ["id,t,x,y", *self.LONG_FIELDS[case]]))
        got = same_load(path)
        assert isinstance(got, str) and got.startswith(f"{path} line "), got[:200]
        assert "field larger than field limit" in got

    ROW_FIELDS = st.sampled_from(
        ["a", "b", '"a,b"', '"a""b"', '"a\nb"', " ", "", "1", "0", "-1", "2.5", "+3", ".5", "5.",
         "1_0", " 4 ", '"6"', "nan", "inf", "-0.0", "1e400", "\x1c1", "1\u3000", "x", '"', "\t"]
    )

    @given(st.lists(st.lists(ROW_FIELDS, min_size=0, max_size=6), max_size=6),
           st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=300)
    def test_any_rows_are_read_as_the_row_reference_reads_them(self, tmp_path_factory, rows, end):
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        path.write_bytes(("id,t,x,y" + end + "".join(",".join(r) + end for r in rows)).encode())
        same_load(path)
