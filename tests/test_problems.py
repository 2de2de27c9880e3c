"""Problem-file loading: the shipped fixtures and the validation errors."""

import json

import pytest

from slemma import (
    GeneralizedPolynomial,
    Problem,
    ProblemError,
    load_problem,
)
from slemma.cli import main
from slemma.stp_poly import homogenize

ALL_NAMES = [
    "affine_sextic_shift",
    "cubic_shared_zero",
    "sector_quartic_pi",
    "sector_quartic_wide",
    "sector_sextic_full",
    "sector_sextic_wide",
    "switch_fractional",
    "switch_sextic",
    "switch_three_linear",
    "tangent_quartic",
]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_all_fixtures_load(problems_dir, name):
    prob = load_problem(problems_dir / f"{name}.json")
    assert isinstance(prob, Problem)
    assert prob.version == 1
    assert prob.n == 2
    assert prob.functions


def test_switch_sextic_contents(problems_dir, sextic_pair):
    prob = load_problem(problems_dir / "switch_sextic.json")
    f, g = prob.pair()
    ef, eg = sextic_pair
    assert (f - ef).is_zero
    assert (g - eg).is_zero
    name, sys = prob.single_system()
    assert name == "S" and sys.count == 2
    vname, V = prob.first_lyapunov()
    assert vname == "V"
    assert V([1.0, 1.0]) == pytest.approx(0.5)
    assert prob.dilation.weights == (1.0, 1.0)


def test_switch_fractional_contents(problems_dir):
    prob = load_problem(problems_dir / "switch_fractional.json")
    assert prob.dilation.weights == (3.0, 1.0)
    f, g = prob.pair()
    assert f([1.0, 1.0]) == pytest.approx(0.0)
    assert g([1.0, 0.0]) == pytest.approx(8.0)
    _, sys = prob.single_system()
    assert sys.count == 2
    # fractional exponents cannot be homogenized with an auxiliary variable
    with pytest.raises(ValueError, match="integer powers"):
        homogenize(f, 4)


def test_affine_shift_uses_coeff_vectors(problems_dir):
    prob = load_problem(problems_dir / "affine_sextic_shift.json")
    f, g = prob.pair()
    assert isinstance(f, GeneralizedPolynomial)
    assert f([1.0, 1.0]) == pytest.approx(-8.0)
    assert g([1.0, 1.0]) == pytest.approx(-7.0)
    # "6:7" is x1^3 x2^3, "6:3" is x1^4 x2^2 and "6:63" is x2^6
    want = GeneralizedPolynomial.from_terms(
        2, [(-7, (6, 0)), (-2, (3, 3)), (5, (0, 6)), (-2, (4, 2)), (-2, (0, 0))])
    assert list(f.terms.items()) == list(want.terms.items())


def test_cubic_pair_has_the_shared_zero(problems_dir):
    prob = load_problem(problems_dir / "cubic_shared_zero.json")
    f, g = prob.pair()
    assert f([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert g([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_three_linear_has_no_canonical_pair(problems_dir):
    prob = load_problem(problems_dir / "switch_three_linear.json")
    _, sys = prob.single_system()
    assert sys.count == 3
    with pytest.raises(ProblemError):
        prob.pair()
    with pytest.raises(ProblemError):
        prob.function("nope")


def test_sector_fixtures_are_even(problems_dir):
    from slemma import Parity

    for name in ["sector_quartic_pi", "sector_quartic_wide",
                 "sector_sextic_full", "sector_sextic_wide"]:
        f, g = load_problem(problems_dir / f"{name}.json").pair()
        assert f.parity() is Parity.EVEN
        assert g.parity() is Parity.EVEN


def test_no_system_and_no_lyapunov_accessors(problems_dir):
    prob = load_problem(problems_dir / "cubic_shared_zero.json")
    with pytest.raises(ProblemError):
        prob.single_system()
    with pytest.raises(ProblemError):
        prob.first_lyapunov()


# --------------------------------------------------------------- bad files


def write_problem(tmp_path, payload, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "version": 1,
    "variables": ["x", "y"],
    "functions": {
        "f": [{"coeff": 1.0, "powers": [{"num": 2, "den": 1}, {"num": 0, "den": 1}]}],
    },
}


def test_missing_file_raises(tmp_path):
    with pytest.raises(ProblemError, match="not found"):
        load_problem(tmp_path / "absent.json")


def test_invalid_json_raises(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ProblemError, match="valid JSON"):
        load_problem(p)


def test_non_object_payload_raises(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ProblemError, match="JSON object"):
        load_problem(p)


def test_wrong_version_raises(tmp_path):
    bad = dict(BASE, version=2)
    with pytest.raises(ProblemError, match="version"):
        load_problem(write_problem(tmp_path, bad))


def test_missing_variables_raises(tmp_path):
    bad = {k: v for k, v in BASE.items() if k != "variables"}
    with pytest.raises(ProblemError, match="variables"):
        load_problem(write_problem(tmp_path, bad))


def test_dilation_weight_count_mismatch(tmp_path):
    bad = dict(BASE, dilation={"weights": [1.0], "l": 2.0})
    with pytest.raises(ProblemError, match="weights"):
        load_problem(write_problem(tmp_path, bad))


def test_subunit_dilation_weight_rejected(tmp_path):
    bad = dict(BASE, dilation={"weights": [0.5, 1.0], "l": 2.0})
    with pytest.raises(ProblemError, match="bad dilation"):
        load_problem(write_problem(tmp_path, bad))


def test_function_literal_must_be_terms_or_coeffs(tmp_path):
    bad = dict(BASE, functions={"f": "x^2"})
    with pytest.raises(ProblemError, match="bad function 'f'"):
        load_problem(write_problem(tmp_path, bad))


def test_malformed_coeff_key_rejected(tmp_path):
    bad = dict(BASE, functions={"f": {"coeffs": {"nokey": 1.0}}})
    with pytest.raises(ProblemError, match="bad function 'f'"):
        load_problem(write_problem(tmp_path, bad))


def test_system_unknown_reference(tmp_path):
    bad = dict(BASE, systems={"S": {"fields": [["f", "missing"], ["f", "f"]]}})
    with pytest.raises(ProblemError, match="unknown function 'missing'"):
        load_problem(write_problem(tmp_path, bad))


def test_system_component_count(tmp_path):
    bad = dict(BASE, systems={"S": {"fields": [["f"], ["f", "f"]]}})
    with pytest.raises(ProblemError, match="2 components"):
        load_problem(write_problem(tmp_path, bad))


def test_system_needs_fields_list(tmp_path):
    bad = dict(BASE, systems={"S": {}})
    with pytest.raises(ProblemError, match="'fields'"):
        load_problem(write_problem(tmp_path, bad))


def test_single_subsystem_rejected(tmp_path):
    bad = dict(BASE, systems={"S": {"fields": [["f", "f"]]}})
    with pytest.raises(ProblemError, match="bad system 'S'"):
        load_problem(write_problem(tmp_path, bad))


def test_lyapunov_unknown_reference(tmp_path):
    bad = dict(BASE, lyapunov={"V": "missing"})
    with pytest.raises(ProblemError, match="Lyapunov"):
        load_problem(write_problem(tmp_path, bad))


TERM_X2 = {"coeff": 1.0, "powers": [{"num": 2, "den": 1}, {"num": 0, "den": 1}]}


# Each of these once escaped load_problem as an AttributeError, TypeError,
# IndexError or OverflowError, which the CLI reports as exit 3.
MALFORMED = {
    "functions list": {"functions": [1]},
    "dilation list": {"dilation": []},
    "weights number": {"dilation": {"weights": 5}},
    "weight null": {"dilation": {"weights": [None, 1]}},
    "l null": {"dilation": {"l": None}},
    "l list": {"dilation": {"l": [2]}},
    "systems list": {"systems": [1]},
    "lyapunov string": {"lyapunov": "V"},
    "coeffs list": {"functions": {"f": {"coeffs": []}}},
    "abs too short": {"functions": {"f": [dict(TERM_X2, abs=[True])]}},
    "infinite num": {"functions": {"f": [dict(TERM_X2, powers=[{"num": float("inf")},
                                                               {"num": 0}])]}},
    "field reference list": {"systems": {"S": {"fields": [[["f"], "f"], ["f", "f"]]}}},
    "lyapunov reference list": {"lyapunov": {"V": ["f"]}},
    "weight huge int": {"dilation": {"weights": [10 ** 400, 1]}},
    "l huge int": {"dilation": {"l": 10 ** 400}},
}
# Each of these once loaded without an error, a string or a bool read as
# the number it spells or a key read as another key.
MALFORMED.update({
    "coeff string": {"functions": {"f": [dict(TERM_X2, coeff="2")]}},
    "coeff true": {"functions": {"f": [dict(TERM_X2, coeff=True)]}},
    "coeffs value string": {"functions": {"f": {"coeffs": {"2:0": "3"}}}},
    "coeffs value true": {"functions": {"f": {"coeffs": {"2:0": True}}}},
    "weights strings": {"dilation": {"weights": ["1", "1"]}},
    "weights true": {"dilation": {"weights": [True, True]}},
    "l string": {"dilation": {"l": "3"}},
    "l true": {"dilation": {"l": True}},
    "version true": {"version": True},
    "version float": {"version": 1.0},
    "abs string": {"functions": {"f": [dict(TERM_X2, abs="no")]}},
    "coeffs key spaces": {"functions": {"f": {"coeffs": {" 2 :0": 1.0}}}},
    "coeffs key plus": {"functions": {"f": {"coeffs": {"2:+0": 1.0}}}},
})
# Each of these once loaded: an unknown key was ignored, or a variable name
# went unchecked into the reports.
UNKNOWN_KEYS = {
    "top-level key": ({"dilatoin": {"weights": [2, 1]}}, "problem file: unknown key 'dilatoin'"),
    "dilation key": ({"dilation": {"weight": [2, 1]}}, "'dilation': unknown key 'weight'"),
    "term key": ({"functions": {"f": [dict(TERM_X2, cof=2.0)]}}, "term 0: unknown key 'cof'"),
    "power key": ({"functions": {"f": [dict(TERM_X2, powers=[{"num": 2, "dem": 3},
                                                             {"num": 0}])]}},
                  "term 0, variable 0: unknown key 'dem'"),
    "system key": ({"systems": {"S": {"fields": [["f", "f"], ["f", "f"]], "field": []}}},
                   "system 'S': unknown key 'field'"),
    "coeffs literal key": ({"functions": {"f": {"coeffs": {"2:0": 1.0}, "n": 2}}},
                           "coeffs literal: unknown key 'n'"),
}
MALFORMED.update({name: change for name, (change, _) in UNKNOWN_KEYS.items()})
MALFORMED.update({
    "variables repeated": {"variables": ["x", "x"]},
    "variables numbers": {"variables": [1, 2]},
    "variable empty": {"variables": ["x", ""]},
})


@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_sections_raise_problem_errors(tmp_path, change):
    with pytest.raises(ProblemError):
        load_problem(write_problem(tmp_path, dict(BASE, **change)))


@pytest.mark.parametrize("change, message", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_an_unknown_key_is_named_with_where_it_is(tmp_path, change, message):
    path = write_problem(tmp_path, dict(BASE, **change))
    with pytest.raises(ProblemError, match=message):
        load_problem(path)
    assert main(["zeros", str(path), "--out-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value", [True, False, "2", 1.5, 2.9, None, float("nan")],
                         ids=["true", "false", "string", "1.5", "2.9", "null", "nan"])
@pytest.mark.parametrize("part", ["num", "den"])
def test_exponent_parts_must_be_integers(tmp_path, part, value):
    # a truncated exponent would give a confident verdict on another polynomial
    powers = [{"num": 2, "den": 1}, {"num": 2, "den": 1}]
    powers[0][part] = value
    term = {"coeff": 1.0, "powers": powers}
    path = write_problem(tmp_path, dict(BASE, functions={"f": [term], "g": [TERM_X2]}))
    with pytest.raises(ProblemError, match="bad function 'f'"):
        load_problem(path)
    assert main(["zeros", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_integral_float_exponent_parts_are_read():
    term = {"coeff": 1.0, "powers": [{"num": 2.0, "den": 1.0}, {"num": 0, "den": 3.0}]}
    assert GeneralizedPolynomial.from_json_terms(2, [term]).terms == \
        GeneralizedPolynomial.from_json_terms(2, [TERM_X2]).terms


def test_problem_error_is_a_value_error():
    assert issubclass(ProblemError, ValueError)
