"""Invariants of the forward map on random valid problems.

For every eigenvalue, alpha_n beta_n equals Delta-dot(lambda_n) and the
residue of the Weyl function is 1 / alpha_n; and a value of Delta does not
depend on which other lambda share its batch.
"""
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from diracbvp import charfn, eigensolver, weyl
from diracbvp.errors import MissingRootError

from test_gram import problems


@settings(max_examples=10, deadline=None)
@given(config=problems(),
       lams=st.lists(st.complex_numbers(max_magnitude=20.0), min_size=5, max_size=5))
def test_per_root_identities_and_batch_independence(config, lams):
    try:
        data = eigensolver.find_eigenvalues(config, -3, 3)
    except MissingRootError as exc:
        # the identities hold for every root that was found
        data = exc.partial
        assume(data is not None and len(data) >= 1)
    for d in data:
        assert abs(d.alpha_n * d.beta_n - d.delta_dot_n) <= 1e-6 * abs(d.delta_dot_n)
        assert weyl.residue_check(config, d) <= 1e-5

    alone = charfn.delta_many(config, lams)
    batched = charfn.delta_many(config, [*lams, 400.0, -250.0 + 1.0j])
    assert np.array_equal(alone, batched[:len(lams)])
