"""JSON round trips for matrices, systems, and enclosures."""

import io

import numpy as np
import pytest

from sylvenc import (
    GenSpec,
    IMatrix,
    dump_json,
    enclosure_from_dict,
    enclosure_to_dict,
    generate,
    imatrix_from_dict,
    imatrix_to_dict,
    load_json,
    mkw_solve,
    pmatrix_from_dict,
    pmatrix_to_dict,
    system_from_dict,
    system_to_dict,
)


class TestIMatrixJson:
    def test_real_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(0)
        x = IMatrix(rng.normal(size=(3, 4)), rng.random(size=(3, 4)) * 1e-7)
        back = imatrix_from_dict(load_json(dump_json(imatrix_to_dict(x))))
        assert (back.mid == x.mid).all() and (back.rad == x.rad).all()
        assert back.is_real

    def test_complex_round_trip(self):
        rng = np.random.default_rng(1)
        mid = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = IMatrix(mid, np.full((2, 2), 1e-9))
        back = imatrix_from_dict(imatrix_to_dict(x))
        assert (back.mid == x.mid).all() and (back.rad == x.rad).all()

    def test_infsup_input_accepted(self):
        got = imatrix_from_dict({"inf": [[1.0, 2.0]], "sup": [[1.5, 2.0]]})
        ref = IMatrix.from_infsup(np.array([[1.0, 2.0]]), np.array([[1.5, 2.0]]))
        assert (got.mid == ref.mid).all() and (got.rad == ref.rad).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            imatrix_from_dict({"rows": 3, "cols": 2, "mid_re": [[1.0, 2.0]], "rad": [[0.0, 0.0]]})

    def test_infsup_shape_mismatch_rejected(self):
        two = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="declared"):
            imatrix_from_dict({"rows": 3, "cols": 3, "inf": two, "sup": two})
        assert imatrix_from_dict({"rows": 2, "cols": 2, "inf": two, "sup": two}).shape == (2, 2)

    def test_imaginary_part_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="imaginary"):
            imatrix_from_dict(
                {"rows": 2, "cols": 2, "mid_re": [[1.0, 2.0], [3.0, 4.0]], "mid_im": [[1.0, 1.0]]}
            )


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_matrices_with_a_zero_dimension_round_trip(shape, dtype):
    x = IMatrix(np.zeros(shape, dtype=dtype))
    back = imatrix_from_dict(load_json(dump_json(imatrix_to_dict(x))))
    assert back.shape == shape and back.rad.shape == shape
    a = np.zeros(shape, dtype=dtype)
    assert pmatrix_from_dict(load_json(dump_json(pmatrix_to_dict(a)))).shape == shape
    d = {"rows": shape[0], "cols": shape[1], "mid_re": [], "mid_im": [], "rad": []}
    if shape[0] == 0:
        # an explicit imaginary part of an empty grid reads back complex
        got = imatrix_from_dict(d)
        assert got.shape == shape and got.mid.dtype == np.complex128
        got = pmatrix_from_dict({"rows": shape[0], "cols": shape[1], "re": [], "im": []})
        assert got.shape == shape and got.dtype == np.complex128


def test_empty_grid_of_a_nonempty_declared_shape_rejected():
    with pytest.raises(ValueError):
        imatrix_from_dict({"rows": 2, "cols": 3, "mid_re": [], "rad": []})
    with pytest.raises(ValueError):
        pmatrix_from_dict({"rows": 2, "cols": 3, "re": []})


def test_pmatrix_round_trip():
    a = np.array([[1.0, -2.5], [0.0, 3.125]])
    assert (pmatrix_from_dict(pmatrix_to_dict(a)) == a).all()
    c = a + 1j * np.array([[0.5, 0.0], [0.25, -1.0]])
    assert (pmatrix_from_dict(pmatrix_to_dict(c)) == c).all()


def test_pmatrix_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="declared"):
        pmatrix_from_dict({"rows": 1, "cols": 3, "re": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="declared"):
        pmatrix_from_dict({"re": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="declared"):
        pmatrix_from_dict({"rows": 3, "cols": 3, "re": [[1.0, 2.0], [3.0, 4.0]]})
    with pytest.raises(ValueError, match="imaginary"):
        pmatrix_from_dict({"rows": 2, "cols": 2, "re": [[1.0, 2.0], [3.0, 4.0]], "im": [[1.0]]})


def test_system_round_trip():
    sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-6, seed=7))
    back = system_from_dict(load_json(dump_json(system_to_dict(sys))))
    for name in ("A", "B", "C", "D", "F"):
        x, y = getattr(sys, name), getattr(back, name)
        assert (x.mid == y.mid).all() and (x.rad == y.rad).all()


def test_enclosure_round_trip():
    sys = generate(GenSpec(family="kyc31", m=3, alpha=1e-6, seed=8))
    enc = mkw_solve(sys)
    assert enc.verified
    back = enclosure_from_dict(load_json(dump_json(enclosure_to_dict(enc))))
    assert back.method == enc.method
    assert back.verified == enc.verified
    assert back.iterations == enc.iterations
    assert (back.Xtilde == enc.Xtilde).all()
    assert (back.evaluated.mid == enc.evaluated.mid).all()
    assert (back.evaluated.rad == enc.evaluated.rad).all()
    assert (back.Xbox.rad == enc.Xbox.rad).all()


def test_dump_json_is_deterministic():
    sys = generate(GenSpec(family="sylvester32", m=2, alpha=1e-6, seed=9))
    a = dump_json(system_to_dict(sys))
    b = dump_json(system_to_dict(generate(GenSpec(family="sylvester32", m=2, alpha=1e-6, seed=9))))
    assert a == b
    # keys come out sorted
    doc = load_json(a)
    assert list(doc) == sorted(doc)


def test_dump_json_writes_to_handle():
    buf = io.StringIO()
    text = dump_json({"x": 1}, buf)
    assert buf.getvalue() == text + "\n"
    buf.seek(0)
    assert load_json(buf) == {"x": 1}
