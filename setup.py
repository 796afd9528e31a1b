"""Package metadata for the ``repro`` FDB reproduction.

The code lives under ``src/``; the version is read from
``src/repro/__init__.py`` without importing the package.  numpy is a
required dependency: the arena's column primitives
(``repro.core.columns``) have one body each, a numpy one.

    python setup.py develop        # editable install without wheel
    pip install -e .               # where wheel is available
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "src", "repro", "__init__.py")) as handle:
    VERSION = re.search(
        r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE
    ).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "FDB: a query engine for factorised relational databases"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
