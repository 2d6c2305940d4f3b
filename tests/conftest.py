import json
import struct

import numpy as np
import pytest

from ifutsvm import Dataset
from ifutsvm.models import MAGIC


KEEL_TEXT = """\
@relation toy
@attribute f1 real [0.0, 5.0]
@attribute f2 real [0.0, 5.0]
@attribute class {positive, negative}
@inputs f1, f2
@outputs class
@data
1.0,2.0,positive
0.0,0.0,negative
0.1,0.2,negative
0.3,0.1,negative
"""


@pytest.fixture
def keel_text():
    return KEEL_TEXT


def make_blobs(n_pos, n_neg, seed, d=2, gap=3.0, spread_pos=0.5, spread_neg=0.8,
               name="blobs"):
    rng = np.random.default_rng(seed)
    pos = rng.normal(0.0, spread_pos, (n_pos, d))
    neg = rng.normal(gap / np.sqrt(d), spread_neg, (n_neg, d))
    X = np.vstack([pos, neg])
    y = np.array([1] * n_pos + [-1] * n_neg)
    return Dataset(name, X, y)


@pytest.fixture
def blobs():
    return make_blobs


@pytest.fixture
def separable():
    """Four hand-checkable points: two tight clusters five units apart."""
    X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 0.0], [5.0, 1.0]])
    y = np.array([1, 1, -1, -1])
    return Dataset("separable", X, y)


def read_model_file(path):
    """Split a model file into its JSON header and its payload bytes."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(blob[start:start + hlen]), blob[start + hlen:]


def write_model_file(path, header, payload):
    """Write a model file the way save_model lays it out, from its two parts."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(raw)) + raw + payload)
