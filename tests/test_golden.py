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
            "cb1f36556adc52fa16df867504538a0048b3df1f567a111bad604770b8804028",
            "50486be80c205eaae061f8ced077a6d2e3742878e10b0c562e4557513df55006",
        ),
        (
            50_000,
            0,
            "a5f24fc0d99982739c84b1e7aacd0ab9aa3ec80e37c137a255ed9641c66bb0da",
            "71fc10eb02c48e62c2e555ceeab1619b60b1667daee37a88fb7761e62eff4e5c",
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
        "7da19fb7ae0d96f838907930b4e6eb610219318db3736b7e4e2b95605d93a09c"
    )
