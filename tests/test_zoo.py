"""The zoo's hand-derived answers against the deciders."""

import pytest

from nilq.presentation import (classify, express_in_normalized_basis, is_c_small, is_trivial_in_G,
                               is_trivial_mod_torsion, normalize, parse_presentation)
from nilq.words import parse_word

from zoo import FAMILIES


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_zoo_matches_its_derivations(family):
    np_ = normalize(parse_presentation(family.text))
    report = classify(np_)
    assert (report.regime, report.invariant_factors) == (family.regime, family.invariant_factors)

    def element(text):
        return express_in_normalized_basis(parse_word(text, np_.m), np_)

    answers = {w: (is_trivial_in_G(element(w), np_), is_trivial_mod_torsion(element(w), np_))
               for w in family.words}
    assert answers == family.words
    decided = np_.snf.rank <= np_.m - 2
    assert decided == (family.center_profile_dim is not None)
    if decided:
        assert np_.center_profile_dim == family.center_profile_dim
        assert {w: is_c_small(element(w), np_) for w in family.c_small} == family.c_small
