"""Setuptools entry point (kept for offline editable installs without wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Schema Independent Relational Learning: Castor, baseline ILP learners, "
        "and the supporting relational substrate"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
)
