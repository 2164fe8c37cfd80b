"""Tests for the config schema: one from_dict and one type check for every section."""

import numpy as np
import pytest

from triagenet.config import ConfigError, check, exact_check
from triagenet.corpus import GeneratorSpec
from triagenet.model import ModelConfig, init_params
from triagenet.training import HyperParams

# class, the fields it needs, an int field and a float field
SCHEMAS = {
    "generator": (GeneratorSpec, {}, "n_red_flags", "p_noise"),
    "model": (ModelConfig, {"vocab_size": 10, "max_len": 8}, "max_len", "dropout"),
    "training": (HyperParams, {}, "epochs", "lr"),
}
TUPLE_FIELDS = {
    "generator-proportions": (GeneratorSpec, {}, "proportions"),
    "generator-urgent_length": (GeneratorSpec, {}, "urgent_length"),
    "model-widths": (ModelConfig, {"vocab_size": 10, "max_len": 8}, "widths"),
    "model-mlp_layers": (ModelConfig, {"vocab_size": 10, "max_len": 8}, "mlp_layers"),
}


@pytest.mark.parametrize("cls, base, key", TUPLE_FIELDS.values(), ids=TUPLE_FIELDS.keys())
def test_list_becomes_tuple(cls, base, key):
    value = list(getattr(cls(**base), key))
    built = cls.from_dict({**base, key: value})
    assert getattr(built, key) == tuple(value)
    assert built == cls(**base)


@pytest.mark.parametrize("cls, base, int_key, float_key", SCHEMAS.values(), ids=SCHEMAS.keys())
class TestFromDict:
    def test_bool_refused_for_int(self, cls, base, int_key, float_key):
        with pytest.raises(ConfigError, match=f"{int_key} must be an integer"):
            cls.from_dict({**base, int_key: True})

    def test_float_refused_for_int(self, cls, base, int_key, float_key):
        with pytest.raises(ConfigError, match=f"{int_key} must be an integer"):
            cls.from_dict({**base, int_key: 4.0})

    def test_int_accepted_for_float(self, cls, base, int_key, float_key):
        assert getattr(cls.from_dict({**base, float_key: 0}), float_key) == 0

    def test_unknown_key_refused(self, cls, base, int_key, float_key):
        with pytest.raises(ConfigError, match=r"unknown \w+ settings: \['colour'\]"):
            cls.from_dict({**base, "colour": 1})

    def test_non_object_refused(self, cls, base, int_key, float_key):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            cls.from_dict([base])


class TestCheck:
    def test_tuple_length_and_items_checked(self):
        types = {"split": tuple[float, float, float], "widths": tuple[int, ...]}
        assert check({"split": [1, 0.5, 0.25], "widths": []}, types) == {
            "split": (1, 0.5, 0.25), "widths": ()}
        with pytest.raises(ConfigError, match="split must be a list of 3 values"):
            check({"split": [0.5, 0.5]}, types)
        with pytest.raises(ConfigError, match=r"widths\[1\] must be an integer"):
            check({"widths": [1, "2"]}, types)
        with pytest.raises(ConfigError, match="widths must be a list"):
            check({"widths": 3}, types)

    def test_list_items_checked(self):
        types = {"flags": list[int]}
        assert check({"flags": [1, np.int64(2)]}, types) == {"flags": [1, 2]}
        assert isinstance(check({"flags": (1,)}, types)["flags"], list)
        with pytest.raises(ConfigError, match=r"flags\[1\] must be an integer, got True"):
            check({"flags": [1, True]}, types)
        with pytest.raises(ConfigError, match="flags must be a list, got 'ab'"):
            check({"flags": "ab"}, types)

    def test_section_names_the_key(self):
        with pytest.raises(ConfigError, match="embedding.lr must be a number, got 'x'"):
            check({"lr": "x"}, {"lr": float}, "embedding")


class TestExactCheck:
    TYPES = {"n": int, "lr": float, "mode": str, "split": tuple[float, float, float],
             "widths": tuple[int, ...], "flags": list[int], "extra": dict}

    def test_true_means_check_passes_the_same_objects(self):
        exact = exact_check(self.TYPES)
        for value in ({}, {"n": 3}, {"lr": 0.5, "mode": "a", "flags": [1, 2]},
                      {"widths": (1, 2)}, {"flags": []}, {"extra": {"a": [1]}}):
            assert exact(value)
            checked = check(value, self.TYPES)
            assert checked == value and all(checked[k] is value[k] for k in value)

    def test_false_leaves_the_verdict_to_check(self):
        exact = exact_check(self.TYPES)
        for value in ({"lr": 1}, {"widths": [1, 2]}, {"split": (0.5, 0.25, 0.25)},
                      {"flags": (1,)}, {"flags": [1, np.int64(2)]}):
            assert not exact(value)
            check(value, self.TYPES)  # accepted all the same
        for value in ([], None, {"n": True}, {"n": 1.0}, {"mode": None}, {"flags": [1, True]},
                      {"flags": "ab"}, {"widths": [1, "2"]}, {"other": 1}, {1: 2}):
            assert not exact(value)
            with pytest.raises(ConfigError):
                check(value, self.TYPES)


class TestDirectConstruction:
    def test_wrong_typed_model_config_refused(self):
        with pytest.raises(ConfigError, match="max_len must be an integer"):
            init_params(ModelConfig(vocab_size=10, max_len=5.0), 0)

    def test_wrong_typed_hyperparams_refused(self):
        with pytest.raises(ConfigError, match="epochs must be an integer"):
            HyperParams(epochs=1.5).validate()
