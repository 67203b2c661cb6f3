"""Every exception type in ``errors.py`` is a distinction that some code acts on.

A type that no ``except`` clause of ``src/gnorm`` names only renames
``GnormError`` or ``ValueError``: the CLI reports it like its base, with
the same exit code, and nothing else tells it apart.  The audit walks the
package source with ``ast`` and fails on each class of ``errors.py``,
``GnormError`` aside, that no ``except`` clause names, whether alone, in a
tuple or as ``module.Name``.

The raise sites whose own types were folded away keep their messages: the
tables below pin each message and its exact type, ``InvalidParameter`` for
bad parameters and plain ``ValueError`` for shape and balance mismatches.
"""

import ast

import pytest

from gnorm.arithmetic import class_A_membership
from gnorm.certify import certify_family, certify_not_norming
from gnorm.constructions import (
    bipartite_kneser,
    clockwise_tournament,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    quadratic_residue_tournament,
    regular_tournaments,
    set_inclusion_graph,
    subdivided_complete,
    tournament_from_colouring,
)
from gnorm.density import t_density, two_path_integrals
from gnorm.errors import InvalidParameter
from gnorm.graphs import EdgeColouring, cycle
from gnorm.kernels import Decoration, StepKernel
from gnorm.verification import ROWS, run_all

from conftest import package_sources


def error_classes(errors_source: str) -> list[str]:
    return [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]


def caught_names(sources) -> set[str]:
    """The names that the ``except`` clauses of the sources catch."""
    names = set()
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names |= {t.id if isinstance(t, ast.Name) else t.attr for t in types
                          if isinstance(t, (ast.Name, ast.Attribute))}
    return names


def uncaught_errors(sources: dict[str, str]) -> list[str]:
    caught = caught_names(sources.values())
    return [name for name in error_classes(sources["errors"])
            if name != "GnormError" and name not in caught]


def test_the_audit_flags_a_type_that_nothing_catches():
    sources = package_sources()
    planted = dict(sources, errors=sources["errors"] + """

class NotPrime(InvalidParameter):
    pass
""")
    assert uncaught_errors(planted) == ["NotPrime"]
    # caught in a tuple, or through its module, it counts
    for clause in ("(ValueError, NotPrime)", "errors.NotPrime"):
        planted["cli"] = sources["cli"] + f"""
try:
    pass
except {clause}:
    pass
"""
        assert uncaught_errors(planted) == [], clause


def test_every_error_type_is_caught_somewhere():
    assert uncaught_errors(package_sources()) == []


# Each raise site whose type was folded into ``InvalidParameter`` or
# ``ValueError`` keeps its message word for word: the type changed, the
# report did not.
_C3 = subdivided_complete(3)

INVALID_PARAMETER = {
    "hypercube dimension": (lambda: hypercube(0), "hypercube dimension must be >= 1"),
    "direction colouring": (lambda: hypercube_alpha(3),
                            "direction colouring needs an even dimension"),
    "beta colouring": (lambda: hypercube_beta(3), "this colouring needs an even dimension"),
    "subdivided K_1": (lambda: subdivided_complete(1), "need n >= 2"),
    "clockwise even": (lambda: clockwise_tournament(4), "clockwise tournament needs odd n >= 3"),
    "residue not prime": (lambda: quadratic_residue_tournament(9),
                          "9 is not prime (prime powers are not supported)"),
    "residue class": (lambda: quadratic_residue_tournament(5),
                      "need q = 3 (mod 4), got 5 = 1 (mod 4)"),
    "regular even": (lambda: next(regular_tournaments(4)), "regular tournaments need odd n"),
    "regular negative": (lambda: next(regular_tournaments(-3)),
                         "regular tournaments need n >= 1, got -3"),
    "inclusion graph": (lambda: set_inclusion_graph(3, 3, 1), "need n > k > r > 0, got (3, 3, 1)"),
    "kneser graph": (lambda: bipartite_kneser(4, 2), "need n - r > r > 0, got (4, 2)"),
    "class A": (lambda: class_A_membership(2, 2), "need k > r >= 1, got (2, 2)"),
    "certify unknown family": (lambda: certify_family("petersen", [1]),
                               "unknown family 'petersen'"),
    "certify hypercube": (lambda: certify_family("hypercube", [0]),
                          "hypercube dimension must be >= 1"),
    "certify kneser": (lambda: certify_family("kneser", [4, 2]), "need n - r > r >= 1, got (4, 2)"),
    "certify inclusion": (lambda: certify_family("inclusion", [3, 3, 1]),
                          "need n > k > r > 0, got (3, 3, 1)"),
    "certify subdivision": (lambda: certify_family("subdivided-complete", [1]), "need n >= 2"),
    "certify field count": (lambda: certify_family("kneser", [7]),
                            "family 'kneser' takes 2 parameter(s) (n r), got 1"),
    "certify integer field": (lambda: certify_family("hypercube", ["4.5"]),
                              "family 'hypercube' takes integer parameters, got ['4.5']"),
    "certify unknown hint": (lambda: certify_not_norming(cycle(4), ("petersen", 1)),
                             "unknown hint family 'petersen'; hints name one of kneser, inclusion"),
    "reproduce unknown row": (
        lambda: run_all(row_ids=["nope"]),
        f"unknown row id(s) nope; valid ids: {', '.join(r.rid for r in ROWS)}"),
}

PLAIN_VALUE_ERROR = {
    "kernel sum": (lambda: StepKernel([[1]]).add(StepKernel([[1, 1], [1, 1]])),
                   "cannot add (1, 1) and (2, 2)"),
    "decoration grid": (lambda: Decoration([StepKernel([[1]]), StepKernel([[1, 1]])]),
                        "all decoration kernels must share one grid shape"),
    "transpose kernel": (lambda: t_density(cycle(4), EdgeColouring((1, 0, 1, 0)),
                                           StepKernel([[1, 1]]), mode="transpose"),
                         "transpose mode needs a square kernel, got 1x2"),
    "two-path kernel": (lambda: two_path_integrals(StepKernel([[1, 1]])),
                        "two-path integrals need a square kernel"),
    "unbalanced subdivision": (lambda: tournament_from_colouring(
                                   _C3, EdgeColouring((1,) * _C3.n_edges)),
                               f"edges at {_C3.right[0]!r} share colour 1"),
}


@pytest.mark.parametrize("call, message", INVALID_PARAMETER.values(), ids=INVALID_PARAMETER)
def test_a_folded_parameter_error_keeps_its_message(call, message):
    with pytest.raises(InvalidParameter) as exc:
        call()
    assert type(exc.value) is InvalidParameter
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", PLAIN_VALUE_ERROR.values(), ids=PLAIN_VALUE_ERROR)
def test_a_shape_or_balance_error_is_a_plain_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
