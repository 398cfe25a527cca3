"""Expression grammar: parsing, evaluation, errors, round-trips."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from diracgeo.expr import (DomainError, ExprSyntaxError,
                           UnknownIdentifierError, parse)
from diracgeo.jets import directional


V = ("x", "y", "z")


def ev(src, x=0.3, y=-0.7, z=1.2):
    return parse(src, V)([x, y, z])


def test_arithmetic_and_functions():
    assert ev("x + y*z") == pytest.approx(0.3 + (-0.7) * 1.2)
    assert ev("sin(x) + cos(y)*exp(z)") == pytest.approx(
        math.sin(0.3) + math.cos(-0.7) * math.exp(1.2))
    assert ev("sqrt(z)/x") == pytest.approx(math.sqrt(1.2) / 0.3)
    assert ev("2.5e-1 * 4.0") == pytest.approx(1.0)


def test_power_is_integer_and_binds_below_unary_minus():
    # unary minus binds tighter than the power, so -x^2 = (-x)^2
    assert ev("-x^2") == pytest.approx(0.09)
    assert ev("-(x^2)") == pytest.approx(-0.09)
    assert ev("y^3") == pytest.approx((-0.7) ** 3)
    assert ev("x^-2") == pytest.approx(0.3 ** -2)
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5", V)
    with pytest.raises(ExprSyntaxError):
        parse("x^y", V)


def test_precedence():
    assert ev("1.0 + 2.0*3.0") == pytest.approx(7.0)
    assert ev("-x + y") == pytest.approx(-0.3 - 0.7)
    assert ev("x - y - z") == pytest.approx(0.3 + 0.7 - 1.2)
    assert ev("x/y/z") == pytest.approx(0.3 / -0.7 / 1.2)
    assert ev("sin(x)^2 + cos(x)^2") == pytest.approx(1.0)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y", V)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("(x + y", V)
    with pytest.raises(ExprSyntaxError):
        parse("", V)


def test_unknown_identifier_lists_variables():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + w", V)
    assert err.value.name == "w"
    for name in V:
        assert name in str(err.value)


def test_domain_errors():
    # the message names the innermost failing node
    for src, x, text in [("1.0/x", 0.0, "division by zero in (1.0 / x)"),
                         ("x^-2", 0.0, "division by zero in (x^-2)"),
                         ("sin(sqrt(x))", -1.0,
                          "sqrt of negative value in sqrt(x)")]:
        with pytest.raises(DomainError) as err:
            ev(src, x=x)
        assert str(err.value) == text


def test_pretty_print_reparses_to_same_tree():
    assert str(parse("-x^2 + sin(y)/cos(z)", V)) == \
        "(((-x)^2) + (sin(y) / cos(z)))"
    for src in ["x + y*z", "-x^2 + sin(y)/cos(z)", "sqrt(x*x + y*y)",
                "exp(-z) * (x - y)", "x^-3 - 2.0"]:
        e = parse(src, V)
        text = str(e)
        again = parse(text, V)
        assert str(again) == text
        p = [0.4, 0.9, -0.2]
        assert e(p) == pytest.approx(again(p), abs=0.0)


def test_jet_evaluation_matches_finite_differences():
    f = parse("sin(x*y) + z^2/x", V)
    p = [0.7, -0.4, 0.9]
    d = [0.3, 1.0, -0.5]
    h = 1e-6
    fd = (f([a + h * b for a, b in zip(p, d)])
          - f([a - h * b for a, b in zip(p, d)])) / (2 * h)
    assert directional(lambda q: f(q), p, d) == pytest.approx(fd, abs=1e-8)


# a small recursive strategy for expression sources
_atom = st.sampled_from(["x", "y", "z", "1.5", "0.25", "2.0"])


def _combine(children):
    a, b = children
    op = st.sampled_from([" + ", " - ", "*"])
    return op.flatmap(lambda o: st.just(f"({a}{o}{b})"))


_exprs = st.recursive(
    _atom,
    lambda kids: st.tuples(kids, kids).flatmap(_combine)
    | kids.map(lambda e: f"sin({e})") | kids.map(lambda e: f"(-{e})"),
    max_leaves=10)


@given(_exprs)
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(src):
    e = parse(src, V)
    again = parse(str(e), V)
    p = [0.3, 0.8, -0.6]
    assert e(p) == pytest.approx(again(p), abs=0.0)
    assert str(again) == str(e)
