import random

import pytest

from unavoidable.bitsets import as_mask, canonical, elements, full_mask, iter_singletons


def test_as_mask_roundtrip():
    assert as_mask(5, [1, 3, 5]) == 0b10101
    assert as_mask(5, 0b10101) == 0b10101
    assert elements(0b10101) == (1, 3, 5)
    assert elements(0) == ()


def test_as_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        as_mask(3, [4])
    with pytest.raises(ValueError):
        as_mask(3, 0b1000)
    with pytest.raises(TypeError):
        as_mask(3, "12")


def test_iter_singletons_low_first():
    assert list(iter_singletons(0b1101)) == [0b1, 0b100, 0b1000]
    assert full_mask(4) == 0b1111


def test_canonical_sorts_as_elements():
    rng = random.Random(3)
    for m in range(1, 64):
        masks = [rng.getrandbits(m) for _ in range(60)]
        masks += [0, 0, full_mask(m), 1 << (m - 1), 1 << rng.randrange(m)] + masks[:10]
        rng.shuffle(masks)
        assert canonical(masks) == tuple(sorted(masks, key=elements)), m
    assert canonical([]) == ()
