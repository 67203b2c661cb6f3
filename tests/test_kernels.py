"""Step-kernel algebra and serialization."""

import json

import numpy as np
import pytest

from gnorm.errors import ParseError
from gnorm.kernels import (
    Decoration,
    StepKernel,
    kernel_from_json,
    kernel_to_json,
    load_kernel,
    phase_kernel,
)


def test_shape_and_validation():
    f = StepKernel(((1, 2j), (3, 4)))
    assert f.shape == (2, 2) and f.is_square
    with pytest.raises(ValueError):
        StepKernel(((1, 2), (3,)))
    with pytest.raises(ValueError):
        StepKernel(((float("nan"),),))


def test_values_are_a_read_only_complex_array():
    f = StepKernel(((1, 2),))
    assert isinstance(f.values, np.ndarray) and f.values.dtype == np.complex128
    assert not f.values.flags.writeable
    assert f.array() is f.values
    with pytest.raises(ValueError):
        StepKernel(((),))
    with pytest.raises(ValueError):
        StepKernel((1, 2))


def test_conj():
    f = StepKernel(((1 + 1j, 2), (0, -1j)))
    assert f.conj().values[0][0] == 1 - 1j


def test_tensor_shape_and_values():
    f = StepKernel(((1, 2),))
    g = StepKernel(((3,), (5,)))
    t = StepKernel(np.kron(f.values, g.values))
    assert t.shape == (2, 2)
    # entry ((i1, i2), (j1, j2)) = f[i1][j1] * g[i2][j2]
    assert t.values.tolist() == [[3, 6], [5, 10]]


def test_mean_and_max_abs():
    f = StepKernel(((1, -1), (1j, -1j)))
    assert f.mean() == 0
    assert f.max_abs() == 1


def test_phase_kernel_rows_cancel():
    f = phase_kernel(4)
    for row in f.values:
        assert abs(sum(row)) < 1e-12


def test_decoration_shapes():
    f = StepKernel(((1,),))
    with pytest.raises(ValueError, match="share one grid shape"):
        Decoration((f, StepKernel(((1, 2),))))
    dec = Decoration.uniform(f, 3)
    assert len(dec) == 3 and dec.shape == (1, 1)


def test_json_round_trip_is_exact():
    f = StepKernel(((0.1 + 0.2j, -1.5), (3.25, 1e-17j)))
    blob = json.dumps(kernel_to_json(f))
    assert kernel_from_json(json.loads(blob)) == f


def test_json_shape_mismatch():
    with pytest.raises(ParseError):
        kernel_from_json({"rows": 2, "cols": 1, "values": [[[1, 0]]]})


@pytest.mark.parametrize("values", [
    [[[1, 0, 5]]],                   # not a [re, im] pair
    [[[1]]],
    [[1]],
    [[[1, 0], [2, 0]], [[3, 0]]],    # ragged
    [],                              # empty
    [[]],
])
def test_json_malformed_grid_is_a_parse_error(values):
    with pytest.raises(ParseError):
        kernel_from_json({"rows": 1, "cols": 1, "values": values})


@pytest.mark.parametrize("rows, cols", [
    (1.9, 1), (1.0, 1), (True, 1), (1, True), ("1", 1), (None, 1),
], ids=["fraction", "float", "true-rows", "true-cols", "string", "null"])
def test_json_size_must_be_an_integer(rows, cols):
    with pytest.raises(ParseError):
        kernel_from_json({"rows": rows, "cols": cols, "values": [[[1, 0]]]})


@pytest.mark.parametrize("entry", [
    [True, 0], [1, False], ["1", 0], [1, None], [[1], 0], [10 ** 400, 0],
], ids=["true-re", "false-im", "string", "null", "list", "huge-int"])
def test_json_entry_parts_must_be_finite_numbers(entry):
    with pytest.raises(ParseError):
        kernel_from_json({"rows": 1, "cols": 1, "values": [[entry]]})


def test_json_int_and_float_parts_both_load():
    f = kernel_from_json({"rows": 1, "cols": 2, "values": [[[1, 0], [0.5, -2]]]})
    assert f == StepKernel([[1, 0.5 - 2j]])


def test_json_non_finite_entry_is_a_parse_error(tmp_path):
    path = tmp_path / "k.json"
    path.write_text('{"rows": 1, "cols": 1, "values": [[[1e400, 0]]]}')
    with pytest.raises(ParseError):
        load_kernel(str(path))


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "malformed"])
def test_file_errors_read_as_for_graphs(tmp_path, text):
    # one loader maps unreadable and malformed files to ParseError
    from gnorm.graphs import load_graph
    path = tmp_path / "k.json"
    if text is not None:
        path.write_text(text)
    messages = []
    for load in (load_kernel, load_graph):
        with pytest.raises(ParseError) as exc:
            load(str(path))
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and messages[0].startswith(f"{path}:")
