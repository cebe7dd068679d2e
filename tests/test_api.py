import idindex
import idindex.solvers
import idindex.strings_codes

# test-only oracles and removed aliases, kept in tests/corpus.py or deleted
NOT_EXPORTED = [
    "id_index_oracle",
    "geometric_pool",
    "restricted_growth_strings",
    "TooLargeError",
    "NoDistinguishingAssignmentError",
    "PairProfile",
    "pair_profiles",
    "is_id_coloring",
]


def test_every_exported_name_resolves():
    for name in idindex.__all__:
        assert getattr(idindex, name) is not None, name
    assert len(set(idindex.__all__)) == len(idindex.__all__)


def test_test_only_names_are_not_in_the_library():
    for name in NOT_EXPORTED:
        assert name not in idindex.__all__
        for module in (idindex, idindex.solvers, idindex.strings_codes):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_search_limits_has_one_knob():
    # the node budget bounds both exact searches; the table limit is fixed
    assert list(idindex.SearchLimits.__dataclass_fields__) == ["max_nodes"]
