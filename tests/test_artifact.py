"""Tests for the file format that model and embedding files share, over both kinds."""

import json

import numpy as np
import pytest

from triagenet.artifact import ChecksumError
from triagenet.corpus import DataContract
from triagenet.embedding import init_table, load_table, save_table
from triagenet.model import ModelConfig, init_params, load_model, save_model

RECORD = DataContract("ab" * 32, (3, 0), (2,), (1,), tuple(f"t{i}" for i in range(10)))


def save_model_file(path):
    params = init_params(ModelConfig(vocab_size=12, max_len=5, embedding_dim=4, widths=(1, 2),
                                     filters=3, attention_size=3, mlp_layers=(6,)), seed=23)
    params.data = RECORD
    save_model(params, path)
    return dict(params.tensors)


def save_table_file(path):
    table = init_table(12, 4, seed=9)
    table.data = RECORD
    save_table(table, path)
    return {"vectors": table.vectors}


def loaded_model(path):
    params = load_model(path)
    return dict(params.tensors), params.data


def loaded_table(path):
    table = load_table(path)
    return {"vectors": table.vectors}, table.data


# file kind: how to save a sample file and how to load one
KINDS = {
    "model": (save_model_file, loaded_model),
    "embedding": (save_table_file, loaded_table),
}


@pytest.fixture(params=KINDS.values(), ids=KINDS.keys())
def kind(request, tmp_path):
    """A saved file of each kind: its path, the arrays saved, and its loader."""
    save, load = request.param
    path = tmp_path / "artifact.bin"
    return path, save(path), load


def edit_header(path, edit):
    """Rewrite the file's header line with ``edit`` applied to its fields; the blob stays."""
    header, newline, blob = path.read_bytes().partition(b"\n")
    fields = json.loads(header)
    edit(fields)
    path.write_bytes(json.dumps(fields).encode() + newline + blob)


def set_first_shape(shape):
    def edit(fields):
        fields["arrays"][0][1] = shape
    return edit


def rename_first(fields):
    fields["arrays"][0][0] = "table"


def repeat_first(fields):
    fields["arrays"].append([fields["arrays"][0][0], [0]])  # empty: the byte count holds


def grow_first(fields):
    fields["arrays"][0][1][0] += 1


BAD_SHAPES = "pairs with shapes of non-negative integers"
# how the header's array list is broken, and what the refusal says
MALFORMED_ARRAYS = {
    "not-a-list": (lambda fields: fields.update(arrays={"vectors": [12, 4]}), "wrong type"),
    "not-a-pair": (lambda fields: fields["arrays"][0].append("extra"), BAD_SHAPES),
    "shape-not-a-list": (set_first_shape(48), BAD_SHAPES),
    "bool-dim": (set_first_shape([True, 4]), BAD_SHAPES),
    "negative-dim": (set_first_shape([-12, -4]), BAD_SHAPES),
    "float-dim": (set_first_shape([12.0, 4]), BAD_SHAPES),
    "repeated-name": (repeat_first, "repeat a name"),
    "wrong-name": (rename_first, "layout|one 2-D array, vectors"),
    "byte-count-mismatch": (grow_first, r"blob holds \d+ bytes, header implies \d+"),
}

MALFORMED_RECORDS = {
    "not-an-object": ([], "wrong type"),
    "wrong-typed-index": ({**vars(RECORD), "test": ["1"]}, r"data.test\[0\] must be an integer"),
}


class TestBothKinds:
    def test_arrays_come_back_writable_float64(self, kind):
        path, saved, load = kind
        arrays, data = load(path)
        assert list(arrays) == list(saved) and data == RECORD
        for name, values in arrays.items():
            assert values.tobytes() == saved[name].tobytes(), name
            assert values.dtype == np.float64 and values.flags.writeable
            values += 1.0

    def test_corrupt_blob_refused(self, kind):
        path, _, load = kind
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load(path)

    def test_wrong_format_refused(self, kind):
        path, _, load = kind
        path.write_bytes(b'{"format": "other"}\n')
        with pytest.raises(ChecksumError, match="not a triagenet-"):
            load(path)

    @pytest.mark.parametrize("edit, says", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS.keys())
    def test_malformed_arrays_refused(self, kind, edit, says):
        path, _, load = kind
        edit_header(path, edit)
        with pytest.raises(ChecksumError, match=says):
            load(path)

    @pytest.mark.parametrize("record, says", MALFORMED_RECORDS.values(),
                             ids=MALFORMED_RECORDS.keys())
    def test_malformed_data_record_refused(self, kind, record, says):
        path, _, load = kind
        edit_header(path, lambda fields: fields.update(data=record))
        with pytest.raises(ChecksumError, match=says):
            load(path)
