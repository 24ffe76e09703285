"""Generated values, CSV bytes and a tree model pinned by SHA-256 digests.

The data digests were taken from the row-at-a-time generator and the
cell-at-a-time writer (``tests/gen_oracle.py``, ``tests/csv_oracle.py``).
Any change to the random stream, to the arithmetic that turns draws
into values, or to the number formatting moves them. The model digest
moves with any change to how trees are grown or written.
"""

import hashlib

import pytest

from routeboost.cli import main
from routeboost.data import write_csv
from routeboost.synthgen import GenSpec, default_layout, generate


@pytest.mark.parametrize(
    "rows,seed,values_sha256,csv_sha256",
    [
        (
            10_000,
            42,
            "db845e612ae3ff05e11efb74d7f5774863581bb367a5fb32d67cb53d21eb5450",
            "24bf8beafec361c0f3860e8c8de21f591425eb725f663a8cc64f8aeca50cc32e",
        ),
        (
            50_000,
            0,
            "2dffcaf7150fff2cc884ef08e1442daa0b4b6c8c137d61d79a9e3a5d1f50f873",
            "62cc6a284007ecc2da7a5c7f36396220d47cccb5be2d2310cd46b64de83ce962",
        ),
    ],
    ids=["10k-seed42", "50k-seed0"],
)
def test_default_plant_digests(tmp_path, rows, seed, values_sha256, csv_sha256):
    dataset = generate(GenSpec(default_layout(), rows, seed))
    assert hashlib.sha256(dataset.values.tobytes()).hexdigest() == values_sha256
    path = tmp_path / "plant.csv"
    write_csv(dataset, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_sha256


def test_tree_model_digest(tmp_path):
    data, model = tmp_path / "plant.csv", tmp_path / "model.json"
    assert main(["generate", "--out", str(data), "--rows", "4000", "--seed", "5"]) == 0
    assert main(
        ["train", "--data", str(data), "--target", "Y", "--learner", "tree",
         "--model-out", str(model)]
    ) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == (
        "11cc88ae5096d57db1989aa9625686acc4bd7d152fedd8d0084536ca53aef122"
    )
