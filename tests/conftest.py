import pathlib
from fractions import Fraction

import pytest

from pblp import Weight2, Weight3, parse_problem

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


def load_instance(name: str):
    return parse_problem((INSTANCE_DIR / name).read_text())


def w3(a, b, c) -> Weight3:
    return Weight3(Fraction(a), Fraction(b), Fraction(c))


def w2(a, b) -> Weight2:
    return Weight2(Fraction(a), Fraction(b))


@pytest.fixture(scope="session")
def example1():
    return load_instance("example1.pblp")


@pytest.fixture(scope="session")
def example2():
    return load_instance("example2.pblp")


@pytest.fixture(scope="session")
def example2_case1():
    return load_instance("example2_case1.pblp")
