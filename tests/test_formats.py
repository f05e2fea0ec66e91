import re

import pytest

from compact_tik.grid import read_imgf, shepp_logan, write_imgf
from compact_tik.mlp import MlpArchitecture, init_params, load_params, save_params
from compact_tik.radon import RadonGeometry, radon_forward, read_sinf, write_sinf

GEOM = RadonGeometry.for_grid(8, 5)

# format -> (writer of a small valid file, reader, header bytes)
FORMATS = {
    "imgf": (lambda path: write_imgf(path, shepp_logan(5, 3)), read_imgf, 16),
    "sinf": (lambda path: write_sinf(path, radon_forward(shepp_logan(8, 8), GEOM)),
             lambda path: read_sinf(path, step=GEOM.step), 20),
    "mlpw": (lambda path: save_params(path, init_params(MlpArchitecture((4, 3)), seed=1)),
             load_params, 8),
}


@pytest.mark.parametrize("change", ["truncated", "trailing", "cut header"])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_reader_rejects_a_payload_of_the_wrong_length(tmp_path, fmt, change):
    write, read, header = FORMATS[fmt]
    path = tmp_path / f"file.{fmt}"
    write(path)
    good = path.read_bytes()
    read(path)
    if change == "truncated":
        # a checkpoint's length is known only layer by layer, so a cut one names a lower bound
        bound = "at least " if fmt == "mlpw" else ""
        bad, expected = good[:-1], f"{bound}{len(good)}"
    elif change == "trailing":
        bad, expected = good + bytes(3), str(len(good))
    else:
        bad, expected = good[:header - 2], f"at least {header}"
    path.write_bytes(bad)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: expected {expected} bytes, got {len(bad)}$"):
        read(path)
