import json
import re
from math import factorial

import pytest

from strata_lab.characters import (
    Character,
    act_set,
    compose,
    cycle_type,
    cycle_type_key,
    parse_cycle_type_key,
    partitions_of,
    representative,
)


def test_partitions_counts():
    # partition numbers p(1)..p(8)
    for n, want in enumerate([1, 2, 3, 5, 7, 11, 15, 22], start=1):
        assert len(partitions_of(n)) == want
    for parts in partitions_of(6):
        assert sum(parts) == 6
        assert list(parts) == sorted(parts, reverse=True)


def test_cycle_type_keys():
    assert cycle_type_key((1,) * 6) == "1^6"
    assert cycle_type_key((2, 1, 1, 1, 1)) == "2,1^4"
    assert cycle_type_key((3, 2, 2)) == "3,2^2"
    for parts in partitions_of(7):
        assert parse_cycle_type_key(cycle_type_key(parts)) == parts


def test_representative_has_right_type():
    for n in range(3, 8):
        for parts in partitions_of(n):
            g = representative(parts)
            assert sorted(g) == list(range(1, n + 1))
            assert cycle_type(g) == parts
    assert representative((2, 1, 1)) == (2, 1, 3, 4)


def test_compose_and_act():
    g = (2, 3, 1)  # 3-cycle
    h = (2, 1, 3)
    gh = compose(g, h)
    assert gh == (3, 2, 1)
    assert act_set(g, {1, 2}) == {2, 3}


def test_character_addition_and_json():
    n = 4
    vals = {t: 1 for t in partitions_of(n)}
    a = Character(n, dict(vals))
    b = a + a
    assert b.dim() == 2
    obj = b.to_obj(space="test")
    assert obj["space"] == "test"
    assert Character.from_obj(obj) == b
    text = b.to_json()
    assert json.loads(text)["values"]["1^4"] == 2


def test_character_from_obj_refuses_values_that_are_not_ints():
    good = Character(3, {t: 1 for t in partitions_of(3)}).to_obj()
    for key, bad in [("n", 3.7), ("n", "3"), ("1^3", 2.9), ("3", "1"), ("2,1", True)]:
        obj = json.loads(json.dumps(good))
        if key == "n":
            obj["n"] = bad
        else:
            obj["values"][key] = bad
        with pytest.raises(ValueError, match=re.escape(f"{key}: {bad!r} is not an int")):
            Character.from_obj(obj)


@pytest.mark.parametrize("obj, message", [
    ({"n": 3}, "character has no field values"),  # was KeyError
    ({"values": {"1^3": 1}}, "character has no field n"),
    ([3], "character must be a JSON object, got list"),
    ({"n": 3, "values": [1]},  # was AttributeError
     "character values must be keyed by the cycle types of S_3"),
    ({"n": 3, "values": {"9": 1}},  # was read, and to_obj raised KeyError
     "character values must be keyed by the cycle types of S_3"),
])
def test_character_from_obj_names_a_missing_field_or_a_non_object(obj, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Character.from_obj(obj)


def test_conjugacy_class_sizes():
    from strata_lab.characters import conjugacy_class_size

    for n in range(2, 9):
        assert sum(conjugacy_class_size(t) for t in partitions_of(n)) == factorial(n)
    assert conjugacy_class_size((2, 1, 1)) == 6
    assert conjugacy_class_size((4,)) == 6
    assert conjugacy_class_size((2, 2)) == 3


def test_from_fixed_points_regular_action():
    # the left-translation action of S_3 on itself: n!/0 fixed points
    import itertools

    n = 3
    objs = [tuple(p) for p in itertools.permutations(range(1, n + 1))]

    def act(g, x):
        return tuple(g[x[i] - 1] for i in range(n))

    ch = Character.from_fixed_points(n, objs, act)
    assert ch.dim() == factorial(n)
    assert all(v == 0 for t, v in ch.values.items() if t != (1,) * n)
