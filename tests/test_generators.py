"""The module boundary of the seeded generators.

``hsproj.generators`` draws every test population, ``check --random``'s
simplices and the benchmark set-ups; ``hsproj.oracle`` only searches.
The generators' own behaviour is tested in the generators section of
``tests/test_oracle.py``.
"""

import hsproj
from hsproj import generators, oracle


def test_the_oracle_neither_defines_nor_imports_a_generator():
    for name in ("random_simplex", "random_point", "build_simplex"):
        assert not hasattr(oracle, name), name
    assert hsproj.random_simplex is generators.random_simplex
    assert hsproj.random_point is generators.random_point
