"""Fixed seeds must draw byte-identical sampler output.

``tests/fixtures/sampler_golden.json`` holds one record per draw: the
sampler, the field, n, the seed and ``format_endomorphism`` of the map it
returned.  The samplers are the four word samplers (shift, Sigma', Sigma and
unipotent words), ``random_automorphism`` and ``random_gamma_gl``, for seeds
0..2 and n in {3, 5, 7} over QQ and GF(7); at n = 3 the word samplers have no
generators and return the identity.  The verify golden files depend on these
streams only through pass counts, so this file pins the maps themselves.

Regenerate the file only for a deliberate change of the streams:
``PYTHONPATH=src python tests/test_sampler_golden.py``.
"""

import json
from pathlib import Path

import pytest

from grassmann import sampling
from grassmann.endo import format_endomorphism
from grassmann.rings import GF, QQ

FIXTURE = Path(__file__).parent / "fixtures" / "sampler_golden.json"
RECORDS = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
SAMPLERS = ("random_shift_word", "random_sigma_prime_word", "random_sigma_word",
            "random_unipotent", "random_automorphism", "random_gamma_gl")
FIELDS = {"rational": QQ, "prime:7": GF(7)}


def draw(sampler, field, n, seed):
    rng = sampling.spawn(seed, "sampler-golden", sampler, field, n)
    sigma = getattr(sampling, sampler)(rng, FIELDS[field], n)
    return {"sampler": sampler, "field": field, "n": n, "seed": seed,
            "endo": format_endomorphism(sigma)}


@pytest.mark.parametrize("record", RECORDS, ids=[
    f"{r['sampler']}-{r['field']}-n{r['n']}-s{r['seed']}" for r in RECORDS])
def test_sampler_output_unchanged(record):
    assert draw(record["sampler"], record["field"], record["n"],
                record["seed"]) == record


def test_fixture_covers_every_sampler_field_and_n():
    assert {(r["sampler"], r["field"], r["n"], r["seed"]) for r in RECORDS} == {
        (s, f, n, seed) for s in SAMPLERS for f in FIELDS
        for n in (3, 5, 7) for seed in range(3)}


def _generate():
    with FIXTURE.open("w") as fh:
        json.dump([draw(s, f, n, seed) for s in SAMPLERS for f in FIELDS
                   for n in (3, 5, 7) for seed in range(3)], fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _generate()
