"""Package metadata (there is no pyproject.toml).

Kept as a plain ``setup.py`` so ``pip install -e . --no-use-pep517`` works
in offline environments where the ``wheel`` package (needed by the PEP-517
editable path) is missing.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Towards Privacy-assured and Lightweight On-chain "
        "Auditing of Decentralized Storage' (ICDCS 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # C kernel sources repro.native compiles on first use; without them an
    # installed package silently runs the numpy / pure-Python fallbacks.
    package_data={"repro.storage": ["*.c"], "repro.crypto.bn254": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
