"""Run the doctests embedded in the library's docstrings.

The public API documents itself with executable examples; this keeps
them honest.
"""

import doctest

import pytest

import repro
import repro.core.build
import repro.core.factorised
import repro.costs.cost_model
import repro.costs.edge_cover
import repro.engine
import repro.experiments.report
import repro.optimiser.ftree_optimiser
import repro.optimiser.ftree_space
import repro.optimiser.greedy
import repro.query.equivalence
import repro.query.parser
import repro.query.query
import repro.reference.relation
import repro.relational.csvio
import repro.relational.database
import repro.relational.engine
import repro.relational.relation
import repro.relational.schema
import repro.relational.sqlite_engine
import repro.service.cache
import repro.service.session
import repro.storage.sharded

MODULES = [
    repro,
    repro.core.build,
    repro.core.factorised,
    repro.costs.cost_model,
    repro.costs.edge_cover,
    repro.engine,
    repro.experiments.report,
    repro.optimiser.ftree_optimiser,
    repro.optimiser.ftree_space,
    repro.optimiser.greedy,
    repro.query.equivalence,
    repro.query.parser,
    repro.query.query,
    repro.reference.relation,
    repro.relational.csvio,
    repro.relational.database,
    repro.relational.engine,
    repro.relational.relation,
    repro.relational.schema,
    repro.relational.sqlite_engine,
    repro.service.cache,
    repro.service.session,
    repro.storage.sharded,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {module.__name__}"
    )


def test_doctests_actually_exist():
    """Guard: the suite above must be exercising real examples."""
    total = sum(
        doctest.testmod(m, verbose=False).attempted for m in MODULES
    )
    assert total >= 15
