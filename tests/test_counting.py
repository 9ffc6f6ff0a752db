import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_trees, catalan
from formula_forge import (
    CacheError,
    CountTable,
    DomainError,
    count_add_lop,
    count_add_only,
    count_am,
    count_ame,
)
from formula_forge.cache import load_table, save_table
from formula_forge.counting import (
    _SIEVED, FAMILIES, Family, default_table, exact_root, exponent_candidates,
    mid_divisors, sieved,
)


def test_goldens():
    assert count_add_only(3) == 2
    assert count_add_lop(3) == 1
    assert count_am(4, "+") == 5
    assert count_am(4, "*") == 1
    assert count_am(6) == 52
    assert count_ame(4, "^") == 1
    assert count_ame(8, "^") == 2
    assert [count_ame(n) for n in range(1, 10)] == [1, 1, 2, 7, 18, 58, 180, 613, 2076]


def test_add_only_is_catalan():
    for n in range(1, 13):
        assert count_add_only(n) == catalan(n - 1)


def test_counts_match_structural_generation():
    for n in range(1, 9):
        assert count_add_only(n) == len(brute_trees(n, "+"))
        assert count_am(n) == len(brute_trees(n, "+*"))
        assert count_ame(n) == len(brute_trees(n, "+*^"))


def test_lop_matches_filtered_generation():
    from formula_forge.trees import evaluate

    def lop_ok(t):
        if t == 1:
            return True
        return (
            evaluate(t[1]) >= evaluate(t[2]) and lop_ok(t[1]) and lop_ok(t[2])
        )

    for n in range(1, 11):
        expected = sum(1 for t in brute_trees(n, "+") if lop_ok(t))
        assert count_add_lop(n) == expected


def test_root_split_sums():
    for n in range(2, 30):
        assert count_am(n) == count_am(n, "+") + count_am(n, "*")
        assert count_ame(n) == sum(count_ame(n, g) for g in "+*^")


def test_bad_arguments():
    for bad in [0, -3, 2.5, True, "6"]:
        with pytest.raises(DomainError):
            count_ame(bad)
    with pytest.raises(DomainError):
        count_am(6, "^")
    with pytest.raises(DomainError):
        count_ame(6, "%")
    # names that are not strings, some unhashable
    for bad in (["+"], {}, None):
        with pytest.raises(DomainError):
            count_am(5, root=bad)
    for bad in (["am"], {}, None):
        with pytest.raises(DomainError):
            default_table().count(bad, 5)


def test_family_is_an_immutable_value():
    am = FAMILIES["am"]
    twin = Family("am", am.rules)
    assert twin == am and twin is not am and hash(twin) == hash(am)
    assert twin != Family("a", am.rules)
    assert twin != Family("am", am.rules[:1])
    assert twin != ("am", am.rules)
    assert len({twin, am, FAMILIES["a"]}) == 2
    assert am.columns == ("+", "*") and FAMILIES["lop"].columns == ("all",)
    assert repr(FAMILIES["a"]) == f"Family(name='a', rules={FAMILIES['a'].rules!r})"
    for field in ("name", "rules", "columns"):
        with pytest.raises(AttributeError):
            setattr(am, field, None)
        with pytest.raises(AttributeError):
            delattr(am, field)
    with pytest.raises(AttributeError):
        am.extra = 1


def test_fresh_table_matches_default():
    t = CountTable()
    assert t.ame(20) == count_ame(20)
    assert t.am(20, "*") == count_am(20, "*")
    assert t.add_only(15) == count_add_only(15)
    assert t.add_lop(15) == count_add_lop(15)


def test_entries_absorb_round_trip():
    src = CountTable()
    src.ame(12)
    src.add_only(12)
    dst = CountTable()
    dst.absorb(src.entries())
    assert dst.entries() == src.entries()
    assert dst.ame(12) == src.ame(12)


def test_helper_functions():
    assert exact_root(64, 2) == 8
    assert exact_root(64, 3) == 4
    assert exact_root(64, 5) is None
    assert exact_root(1, 7) == 1
    assert mid_divisors(12) == [2, 3, 4, 6]
    assert mid_divisors(4) == [2]
    assert mid_divisors(7) == []
    assert list(exponent_candidates(16)) == [(2, 4), (4, 2)]
    assert list(exponent_candidates(8)) == [(3, 2)]
    assert list(exponent_candidates(6)) == []


def test_mid_divisors_match_brute_force():
    for n in range(1, 3001):
        assert mid_divisors(n) == [d for d in range(2, n // 2 + 1) if n % d == 0], n


def _newton_root(n, k):
    """exact_root as first written: Newton from a power of two above the
    root, for every k."""
    if n == 1:
        return 1
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == n else None


def test_exponent_candidates_match_plain_newton_roots():
    # powers on both sides of 52 bits, where the float root gives way to Newton
    edge = [2**51, 2**52, 3**32, 5**22, 7**18, (2**17 + 1) ** 3, (2**17 - 1) ** 3, 3**33]
    big = [*edge, 2**120, 6**60, (2**26 + 1) ** 2, 3**40 * 5**40, 7**400, 2**1500, 10**400 + 1]
    for n in [*range(1, 100_001), *big, *(b - 1 for b in big), *(b + 1 for b in big)]:
        want = [(i, b) for i in range(2, n.bit_length())
                if (b := _newton_root(n, i)) is not None]
        assert list(exponent_candidates(n)) == want, n


def test_large_counts_are_big_ints():
    c = count_ame(120)
    assert c > 10**69
    assert isinstance(c, int)


_FILLED = CountTable()  # every family filled to 400 by the first example


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(list(FAMILIES.values())), m=st.integers(2, 400))
def test_row_equals_the_sum_over_every_split(family, m):
    """Family.row multiplies each mirrored additive pair once, and sieved
    gives a product rule's count for a range of rows; both must equal the
    plain sum over every split pair."""
    tot, _ = _FILLED.filled(family, 400)
    plain = [sum(tot[a] * tot[b] for a, b in splits(m)) for _, splits in family.rules]
    assert family.row(tot, m) == plain
    for (_, splits), want in zip(family.rules, plain):
        if splits in _SIEVED:
            assert sieved(tot[:401], _SIEVED[splits], m, m + 1) == [want]


# -- cache files are checked for values, not only for shape ----------------


def _filled_table(sizes):
    table = CountTable()
    for name, n in sizes.items():
        table.count(name, n)
    return table


_SIZES = st.fixed_dictionaries({name: st.integers(1, 60) for name in FAMILIES})


def _load_rows(rows):
    """load_table on a file holding rows; the fresh table it loaded into."""
    table = CountTable()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.json")
        with open(path, "w") as fh:
            json.dump({"format": "formula-forge-counts", "version": 1,
                       "entries": rows}, fh)
        load_table(path, table)
    return table


def _saved_rows(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.json")
        save_table(path, table)
        with open(path) as fh:
            return json.load(fh)["entries"]


def test_cache_saved_bytes_are_pinned(tmp_path):
    table = CountTable()
    table.count("a", 3)
    path = tmp_path / "counts.json"
    assert save_table(str(path), table) == 9
    assert path.read_bytes() == (
        b'{"format": "formula-forge-counts", "version": 1, "entries": [["a", "all", 1, "1"], '
        b'["a", "all", 2, "1"], ["a", "all", 3, "2"], ["lop", "all", 1, "1"], '
        b'["am", "+", 1, "1"], ["am", "*", 1, "0"], ["ame", "+", 1, "1"], '
        b'["ame", "*", 1, "0"], ["ame", "^", 1, "0"]]}\n')


@settings(max_examples=40, deadline=None)
@given(sizes=_SIZES)
def test_cache_save_load_round_trip(sizes):
    table = _filled_table(sizes)
    assert _load_rows(_saved_rows(table)).entries() == table.entries()


@settings(max_examples=60, deadline=None)
@given(sizes=_SIZES, data=st.data())
def test_cache_rejects_any_one_changed_count(sizes, data):
    # every lower total is an operand of a family's top row, so no single
    # change hides, whichever row and column it hits
    rows = _saved_rows(_filled_table(sizes))
    row = data.draw(st.sampled_from(rows))
    count = int(row[3])
    row[3] = str(data.draw(st.integers(0, 2 * count + 5).filter(lambda c: c != count)))
    with pytest.raises(CacheError):
        _load_rows(rows)


def test_cache_rejects_counts_shifted_between_roots():
    # a move between two root columns keeps the row's total, so only the
    # * and ^ columns, which every row's check recomputes, can show it
    rows = _saved_rows(_filled_table({"am": 40, "ame": 40}))
    table = CountTable()
    before = table.entries()
    for family in ("am", "ame"):
        cells = {(row[1], row[2]): row for row in rows if row[0] == family}
        for (donor, m), row in cells.items():
            for taker in FAMILIES[family].columns:
                if taker == donor or row[3] == "0":
                    continue
                other = cells[taker, m]
                row[3], other[3] = str(int(row[3]) - 1), str(int(other[3]) + 1)
                with pytest.raises(CacheError):
                    _load_rows_into(table, rows)
                assert table.entries() == before
                row[3], other[3] = str(int(row[3]) + 1), str(int(other[3]) - 1)


@pytest.mark.parametrize("row", [
    ("a", "all", 1.0, 1),
    ("a", "all", True, 1),
    ("a", "all", 0, 1),
    ("a", "all", -1, 1),
    ("a", "all", 2, 1.0),  # the right value, but save_table would write "1.0"
    ("a", "all", 2, True),
    ("a", "all", 2, "1"),
], ids=["float-index", "bool-index", "zero-index", "negative-index", "float-count",
        "bool-count", "str-count"])
def test_absorb_refuses_a_row_that_is_not_an_int_index_and_count(row):
    table = CountTable()
    before = table.entries()
    with pytest.raises(CacheError):
        table.absorb([row])
    assert table.entries() == before


def test_cache_rejects_conflicting_rows():
    rows = _saved_rows(_filled_table({"a": 5}))
    with pytest.raises(CacheError):
        _load_rows(rows + [["a", "all", 3, "3"]])
    assert _load_rows(rows + [["a", "all", 3, "2"]]).entries() == _load_rows(rows).entries()


def _load_rows_into(table, rows):
    """load_table on a file holding rows, into the given table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.json")
        with open(path, "w") as fh:
            json.dump({"format": "formula-forge-counts", "version": 1,
                       "entries": rows}, fh)
        return load_table(path, table)


def test_cache_rows_above_the_watermark_are_checked_against_the_table():
    # the file alone has no row 1, so only the merged table shows its rows
    # 11-20 as the next gap-free rows; the changed total at 15 is an operand
    # of the new top row
    rows = [row for row in _saved_rows(_filled_table({"am": 20}))
            if row[0] == "am" and row[2] > 10]
    for row in rows:
        if row[1:3] == ["+", 15]:
            row[3] = str(int(row[3]) + 1000)
    table = _filled_table({"am": 10})
    before = table.entries()
    with pytest.raises(CacheError):
        _load_rows_into(table, rows)
    assert table.entries() == before
    assert table.am(15) == count_am(15) == 3_712_128


def test_cache_rows_above_a_gap_are_dropped():
    # am rows 1-10 are right; the row at 50 is wrong, but with 11-49 missing
    # no fill reads it first, so it is not kept, saved or counted
    rows = [row for row in _saved_rows(_filled_table({"am": 10})) if row[0] == "am"]
    bad = ["am", "+", 50, str(count_am(50, "+") + 7)]
    table = CountTable()
    assert _load_rows_into(table, rows + [bad]) == len(rows)
    assert table.entries() == _filled_table({"am": 10}).entries()
    assert table.am(50, "+") == count_am(50, "+")


def test_absorb_counts_only_the_rows_it_keeps():
    # am's + row at 2 without its * row is checked but not kept
    table = CountTable()
    assert table.absorb([("am", "+", 2, 1)]) == 0
    assert table.rows() == CountTable().rows()
    assert table.absorb([("am", "+", 2, 1), ("am", "*", 2, 0)]) == 2
    assert table.rows() == CountTable().rows() + 2


def test_absorb_counts_an_iterator_of_rows_as_it_counts_a_list():
    # absorb walks its rows once, so an iterator is counted as the list is;
    # the row above the gap at 11-49 is dropped and not counted either way
    rows = _filled_table({"am": 10, "a": 6}).entries()
    above_a_gap = ("am", "+", 50, count_am(50, "+") + 7)
    for given in (rows, rows + [above_a_gap]):
        table = CountTable()
        assert table.absorb(iter(given)) == CountTable().absorb(given) == len(rows)
        assert table.entries() == rows


def test_cache_conflicting_with_the_table_is_rejected_whole():
    # the file's am rows are right and its one a row agrees with nothing in
    # the file, but the table already holds a(3) = 2: nothing is installed
    rows = [row for row in _saved_rows(_filled_table({"am": 8})) if row[0] == "am"]
    table = _filled_table({"a": 5})
    before = table.entries()
    with pytest.raises(CacheError):
        _load_rows_into(table, rows + [["a", "all", 3, "3"]])
    assert table.entries() == before
    assert _load_rows_into(table, rows + [["a", "all", 3, "2"]]) == len(rows) + 1
    assert table.entries() == _filled_table({"a": 5, "am": 8}).entries()


# -- hostile cache files: each is a CacheError, and the table is left as it was

def _load_bytes(table, data):
    """load_table on a file holding the bytes data, into the given table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "counts.json")
        with open(path, "wb") as fh:
            fh.write(data)
        return load_table(path, table)


def _refused(data):
    table = _filled_table({"am": 6})
    before = table.entries()
    with pytest.raises(CacheError):
        _load_bytes(table, data)
    assert table.entries() == before


def _payload(entries_text):
    return ('{"format": "formula-forge-counts", "version": 1, "entries": '
            f"{entries_text}}}").encode()


def test_cache_file_that_is_not_utf8_is_refused():
    _refused(b"\xff\xfe")
    _refused(_payload('[["a", "all", 1, "1"]]').replace(b'"all"', b'"\xe9"'))


def test_cache_file_nested_past_the_recursion_limit_is_refused():
    depth = 200_000
    _refused(_payload("[" * depth + "]" * depth))


def test_cache_count_longer_than_2n_digits_is_refused():
    # a real count has at most n digits (count(n) < 12^n); the row would sit
    # above a gap, so only the length check sees it
    _refused(_payload('[["a", "all", 3, "1111111"]]'))
    _refused(_payload(f'[["a", "all", 3, "{"1" * 1_000_000}"]]'))
    assert _load_bytes(CountTable(), _payload('[["a", "all", 3, "111111"]]')) == 0


def test_cache_count_past_the_int_digit_limit_is_refused():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        _refused(_payload(f'[["a", "all", 3000, "{"1" * 4301}"]]'))
        _refused(_payload(f'[["a", "all", {"1" * 4301}, "1"]]'))
    finally:
        sys.set_int_max_str_digits(limit)


def test_save_past_the_str_digit_limit_is_a_cache_error(tmp_path):
    table = CountTable()
    table.count("a", 1100)  # Catalan(1099) has about 657 digits
    path = tmp_path / "counts.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(CacheError, match="digit limit"):
            save_table(str(path), table)
    finally:
        sys.set_int_max_str_digits(limit)
    assert list(tmp_path.iterdir()) == []


_BASE_SIZES = {"a": 6, "lop": 6, "am": 20, "ame": 20}
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 45), st.just(10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.builds(str.__mul__, st.sampled_from("0179"), st.integers(1, 60)),
    st.sampled_from(["1" * 4301, "9" * 100_000, "²", "٣"]),
    st.lists(st.integers(0, 3), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers()),
)


def _mutate(rows, valid, data):
    """One change to rows, drawn from data; a row changed or copied is a
    valid one."""
    kind = data.draw(st.sampled_from(["field", "duplicate", "recount", "drop", "reshape"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    row = list(rows[i] if rows[i] in valid else data.draw(st.sampled_from(valid)))
    if kind == "field":
        row[data.draw(st.integers(0, 3))] = data.draw(_JUNK)
        rows[i] = row
    elif kind == "duplicate":
        rows.insert(data.draw(st.integers(0, len(rows))), row)
    elif kind == "recount":  # in place, or as a second row for the same entry
        row[3] = str(int(row[3]) + data.draw(st.integers(-2, 2)))
        if data.draw(st.booleans()):
            rows[i] = row
        else:
            rows.append(row)
    elif kind == "drop":
        del rows[i]
    else:
        rows[i] = data.draw(st.one_of(_JUNK, st.just(row[:3]), st.just(row + [row[3]])))


def _hostile_file(data):
    """The bytes of a valid saved file after up to three drawn changes."""
    valid = _saved_rows(_filled_table(_BASE_SIZES))
    rows = list(valid)
    for _ in range(data.draw(st.integers(0, 3))):
        if rows:
            _mutate(rows, valid, data)
    payload = {"format": "formula-forge-counts", "version": 1, "entries": rows}
    # a file spoilt as a whole is refused at once, so most draws spoil rows only
    top = data.draw(st.sampled_from([None] * 8
                                    + ["format", "version", "entries", "payload"]))
    if top == "payload":
        payload = data.draw(_JUNK)
    elif top:
        payload[top] = data.draw(_JUNK)
    text = json.dumps(payload)
    if data.draw(st.integers(0, 5)) == 0 and isinstance(payload, dict):
        depth = data.draw(st.sampled_from([1, 2, 900, 5000, 200_000]))
        text = json.dumps({**payload, "entries": "@entries@"})
        text = text.replace('"@entries@"', "[" * depth + json.dumps(rows) + "]" * depth)
    raw = text.encode()
    cut = data.draw(st.sampled_from([None] * 8 + ["bytes", "truncate"]))
    if cut:
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3("]))
        raw = raw[:at] + bad + raw[at:] if cut == "bytes" else raw[:at]
    return raw


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data(), warm=st.sampled_from([{}, {"am": 8}, {"a": 6, "ame": 30}]))
def test_a_hostile_cache_file_loads_or_is_refused_whole(data, warm):
    raw = _hostile_file(data)
    table = _filled_table(warm)
    before = table.entries()
    try:
        kept = _load_bytes(table, raw)
    except CacheError:
        assert table.entries() == before
    else:
        assert type(kept) is int


_TABLE_SIZES = st.fixed_dictionaries({name: st.integers(1, 40) for name in FAMILIES})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(s=_TABLE_SIZES, t=_TABLE_SIZES, data=st.data())
def test_a_mutated_cache_file_extends_the_table_or_leaves_it_alone(s, t, data):
    """Row-level changes to a saved file (junk fields such as bools, floats,
    negative or huge n and long digit strings; duplicate, conflicting and
    dropped rows), loaded into a table filled to other sizes: load_table
    returns an int or raises CacheError.  A refused file leaves entries()
    as it was; a loaded one keeps every row the table held, takes each new
    row from the file and extends each family's columns to one common
    watermark."""
    valid = _saved_rows(_filled_table(t))
    rows = list(valid)
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        if rows:
            _mutate(rows, valid, data)
    table = _filled_table(s)
    before = table.entries()
    try:
        kept = _load_rows_into(table, rows)
    except CacheError:
        assert table.entries() == before
        return
    assert type(kept) is int and 0 <= kept <= len(rows)
    after = table.entries()
    assert set(before) <= set(after)
    assert set(after) - set(before) <= {(*row[:3], int(row[3])) for row in rows}
    assert table.rows() == len(after)
    for name, f in FAMILIES.items():
        tops = {max(n for fam, root, n, _ in after if (fam, root) == (name, c))
                for c in f.columns}
        assert len(tops) == 1 and tops.pop() >= s[name]


@settings(max_examples=40, deadline=None)
@given(s=_SIZES, t=_SIZES)
def test_absorb_into_a_partly_filled_table_equals_a_fresh_fill(s, t):
    # a one-gate family's column is its totals list: it must be extended once
    table = _filled_table(s)
    rows = _saved_rows(_filled_table(t))
    assert _load_rows_into(table, rows) == len(rows)
    top = {name: max(s[name], t[name]) for name in FAMILIES}
    assert table.entries() == _filled_table(top).entries()
    fresh = _filled_table({name: n + 5 for name, n in top.items()})
    for name, n in top.items():
        assert table.count(name, n + 5) == fresh.count(name, n + 5)
    assert table.entries() == fresh.entries()
