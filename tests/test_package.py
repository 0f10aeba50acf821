import sicheck


def test_all_names_resolve_once():
    # a stale entry would break `from sicheck import *`
    assert len(set(sicheck.__all__)) == len(sicheck.__all__)
    assert [name for name in sicheck.__all__ if not hasattr(sicheck, name)] == []
    assert not any(name.startswith("gen_") for name in sicheck.__all__)
