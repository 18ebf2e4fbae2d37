"""Package metadata for ``repro``: the package tree lives under ``src/``.

The runtime dependencies are numpy and scipy (the LP solver and the only
max-flow solver).  Install with ``python -m pip install .``.  Editable
installs (``pip install -e .``) need the ``wheel`` package; without it,
``python setup.py develop`` (or a ``.pth`` file pointing at ``src/``)
gives the same result.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
