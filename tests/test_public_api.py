import uavlink


def test_all_names_resolve_once_in_sorted_order():
    names = uavlink.__all__
    assert [n for n in names if not hasattr(uavlink, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
