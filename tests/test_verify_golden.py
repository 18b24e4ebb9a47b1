"""Fixed-seed ``grassmann verify`` output must stay byte-identical.

The fixtures under ``tests/fixtures/`` are the output of
``grassmann verify --suite all --n 5 --samples 5 --seed 1 --field F``;
regenerate one only for a deliberate change to the battery itself.
"""

from pathlib import Path

import pytest

from grassmann.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("field", ["prime:7", "rational"])
def test_verify_output_unchanged(capsys, field):
    code = main(["verify", "--suite", "all", "--n", "5", "--samples", "5",
                 "--seed", "1", "--field", field])
    out = capsys.readouterr().out
    want = (FIXTURES / f"verify_all_n5_s5_seed1_{field.replace(':', '')}.txt").read_text()
    assert code == 0
    assert out == want
