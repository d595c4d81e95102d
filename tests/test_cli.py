import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigma_product import cli
from sigma_product.cli import (
    Resolver,
    parse_spec,
    run_document,
    run_file,
)
from sigma_product.errors import (
    ParseError,
    SigmaProductError,
    SizeLimit,
    UniverseMismatch,
    UnresolvedName,
)
from sigma_product.extreal import INF, ExtNonNeg, render_rational
from sigma_product.finset import FinSet
from sigma_product.integration import (
    SimpleFunction,
    extended_integral,
    fubini_check,
    integrate,
    render_value,
)
from sigma_product.lineset import Progression, RealSet
from sigma_product.measures import (
    ConstantWeights,
    CountableAtomic,
    CountingLine,
    DiracAt,
    FiniteTabulated,
    GeometricWeights,
    LebesgueLine,
)
from sigma_product.product import ProductMeasure
from sigma_product.rectset import RectUnion

GOLDEN = Path(__file__).parent / "golden"

EXIT_CODES = {
    "01_eval_lebesgue": 0,
    "02_eval_counting_prog": 0,
    "03_eval_counting_interval": 0,
    "04_eval_dirac": 0,
    "05_eval_tabulated": 0,
    "06_eval_atomic": 0,
    "07_component_counting_rejects": 2,
    "08_component_counting_ok": 0,
    "09_classify_lebesgue_line": 0,
    "10_product_finite": 0,
    "11_product_remark": 0,
    "12_product_sigma_finite": 0,
    "13_product_two_slabs": 0,
    "14_integrate_simple": 0,
    "15_integrate_extended": 0,
    "16_integrate_signed_error": 2,
    "17_fubini_all_equal": 0,
    "18_fubini_tonelli_inf": 0,
    "19_fubini_violated": 1,
    "20_parse_error": 2,
    "21_name_error": 2,
    "22_integrate_counting_points": 0,
    "23_integrate_named_fn": 0,
    "24_fubini_named_fn": 0,
    "25_fubini_violated_neg_inf": 1,
    "26_fubini_violated_undefined": 1,
    "27_fubini_violated_mixed": 1,
    "28_name_set_not_measure": 2,
    "29_name_measure_not_set": 2,
    "30_name_set_not_rect": 2,
    "31_name_set_not_fn": 2,
    "32_name_ind_measure": 2,
    "33_name_undeclared_rect": 2,
    "34_name_undeclared_fn": 2,
    "35_name_undeclared_ind": 2,
    "36_mix_labels_and_line": 2,
    "37_unknown_command": 2,
    "38_prog_step_in_set": 2,
    "39_prog_step_in_atomic": 2,
    "40_labels_diff_empty": 0,
    "41_product_empty_side": 0,
    "42_fubini_ind_set_alias": 2,
    "43_fubini_ind_group": 2,
    "44_fubini_null_row_inf_column": 0,
    "45_name_cycle_set_self": 2,
    "46_name_cycle_rect_self": 2,
    "47_name_cycle_forward": 2,
    "48_product_named_rect_in_rect": 0,
    "49_integrate_nonnegative_levels": 0,
    "50_integrate_atomic_geometric": 0,
    "51_eval_labels_on_line": 2,
    "52_eval_line_on_ground": 2,
    "53_product_label_off_ground": 2,
    "54_integrate_rect_indicator": 2,
    "55_integrate_mixed_first_term": 2,
    "56_fubini_mixed_first_term": 2,
}


def run_capture(path: Path, fmt: str = "text"):
    buffer = io.StringIO()
    code = run_file(str(path), fmt, out=buffer)
    return buffer.getvalue(), code


class TestGoldenFiles:
    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_golden_output_and_exit_code(self, name):
        spec = GOLDEN / f"{name}.spec"
        expected = (GOLDEN / f"{name}.out").read_text()
        got, code = run_capture(spec)
        assert got == expected
        assert code == EXIT_CODES[name]

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_deterministic_across_runs(self, name):
        spec = GOLDEN / f"{name}.spec"
        first = run_capture(spec)
        second = run_capture(spec)
        assert first == second

    def test_covers_every_command(self):
        commands = set()
        for spec in GOLDEN.glob("*.spec"):
            for line in spec.read_text().splitlines():
                if line.startswith("cmd "):
                    name = line.split()[1]
                    out = spec.with_suffix(".out").read_text()
                    if f"unknown command {name!r}" not in out:
                        commands.add(name)
        assert commands == {
            "eval",
            "component",
            "classify",
            "product",
            "integrate",
            "fubini",
        }

    def test_at_least_twelve_files(self):
        assert len(list(GOLDEN.glob("*.spec"))) >= 12


class TestJsonFormat:
    def test_json_mirrors_text_fields(self):
        out, code = run_capture(GOLDEN / "17_fubini_all_equal.spec", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "product": "4",
            "iterated_sv": "4",
            "iterated_ts": "4",
            "verdict": "all-equal",
        }

    def test_json_error(self):
        out, code = run_capture(GOLDEN / "21_name_error.spec", "json")
        assert code == 2
        data = json.loads(out)
        assert data["error"]["kind"] == "name-error"

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_json_mirrors_text_for_every_golden(self, name):
        spec = GOLDEN / f"{name}.spec"
        text, text_code = run_capture(spec)
        data, json_code = run_capture(spec, "json")
        assert json_code == text_code
        error = re.fullmatch(r"error: ([a-z-]+): (.*)\n", text, re.DOTALL)
        if error:
            expected = {"error": {"kind": error[1], "message": error[2]}}
        else:
            expected = dict(line.split(" = ", 1) for line in text.splitlines())
        assert json.loads(data) == expected

    def test_json_values_are_exact_strings(self):
        out, _ = run_capture(GOLDEN / "22_integrate_counting_points.spec", "json")
        assert json.loads(out) == {"value": "5/2"}


class TestEntrypoint:
    def test_module_invocation(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "sigma_product.cli", "run",
             str(GOLDEN / "10_product_finite.spec")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "10_product_finite.out").read_text()

    def test_undecodable_file_is_an_io_error(self, tmp_path):
        spec = tmp_path / "latin1.spec"
        spec.write_bytes(b"measure L = lebesgue\n# caf\xe9\ncmd eval L [0, 1]\n")
        out, code = run_capture(spec)
        assert code == 2
        assert out.startswith("error: io:")

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        def broken(doc):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_document", broken)
        spec = GOLDEN / "10_product_finite.spec"
        out, code = run_capture(spec)
        assert (out, code) == ("error: internal: boom\n", 2)
        out, code = run_capture(spec, "json")
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "internal", "message": "boom"}}
        assert cli.main(["run", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "error: internal: boom\n"
        assert captured.err == ""

    def test_stray_value_error_is_an_internal_error(self, monkeypatch):
        def broken(doc):
            raise ValueError("stray")

        monkeypatch.setattr(cli, "run_document", broken)
        spec = GOLDEN / "10_product_finite.spec"
        assert run_capture(spec) == ("error: internal: stray\n", 2)
        out, code = run_capture(spec, "json")
        assert code == 2
        assert json.loads(out) == {"error": {"kind": "internal", "message": "stray"}}

    def test_no_golden_reports_kind_error(self):
        for path in GOLDEN.glob("*.out"):
            assert "error: error:" not in path.read_text(), path.name

    def test_missing_file(self):
        buffer = io.StringIO()
        code = run_file("/nonexistent/path.spec", "text", out=buffer)
        assert code == 2
        assert buffer.getvalue().startswith("error: io:")


def parse_single_set(text: str) -> RealSet:
    doc = parse_spec(f"set A = {text}\nmeasure D = counting\ncmd eval D {{}}\n")
    poly = Resolver(doc).poly_set(doc.sets["A"])
    if poly[0] == "empty":
        return RealSet.empty()
    assert poly[0] == "real"
    return poly[1]


def parse_single_measure(text: str):
    doc = parse_spec(f"measure M = {text}\ncmd eval M {{}}\n")
    return doc.measures["M"]


rationals = st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(5, 2), Fraction(-1, 3)])


@st.composite
def intervals(draw):
    """An interval with finite or infinite ends and either bracket kind."""
    lo, hi = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    lo, hi = draw(st.sampled_from([lo, None])), draw(st.sampled_from([hi, None]))
    lo_open = lo is None or draw(st.booleans())
    hi_open = hi is None or draw(st.booleans())
    return RealSet.interval(lo, hi, lo_open, hi_open)


real_sets = st.recursive(
    st.one_of(
        intervals(),
        st.lists(rationals, max_size=3).map(RealSet.points),
        st.tuples(rationals, st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)])).map(
            lambda t: RealSet.progression(*t)),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["|", "&", "\\"]), inner).map(
            lambda t: {"|": t[0] | t[2], "&": t[0] & t[2], "\\": t[0] - t[2]}[t[1]]),
        inner.map(RealSet.complement),
    ),
    max_leaves=4,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "[0, 1]",
            "(0, 1]",
            "[0, inf)",
            "(-inf, inf)",
            "{1/2, 3}",
            "prog(0, 1)",
            "[0, 2] \\ {1} | {9}",
            "([0, 1] | [2, 3]) \\ prog(0, 1/2)",
            "{}",
        ],
    )
    def test_set_round_trip(self, text):
        s = parse_single_set(text)
        again = parse_single_set(s.render())
        assert again == s

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(s=real_sets)
    def test_built_set_round_trip(self, s):
        assert parse_single_set(s.render()) == s

    @pytest.mark.parametrize(
        "text",
        [
            "lebesgue",
            "counting",
            "dirac(-3/2)",
            "tabulated{a: 1, b: inf}",
            "atomic{-5: 2, prog(0, 1): geometric(1, 1/2), prog(1/3, 1): constant(2)}",
        ],
    )
    def test_measure_round_trip(self, text):
        m = parse_single_measure(text)
        again = parse_single_measure(m.render())
        assert again.render() == m.render()
        if isinstance(m, (DiracAt, CountableAtomic)):
            assert again == m


class TestParserDiagnostics:
    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_spec("set A = [0,\ncmd eval counting A\n")
        assert exc.value.line == 1
        assert exc.value.column == 12

    def test_duplicate_name(self):
        with pytest.raises(ParseError):
            parse_spec("set A = [0, 1]\nset A = [0, 2]\ncmd eval counting A\n")

    def test_reserved_name(self):
        with pytest.raises(ParseError):
            parse_spec("set prog = [0, 1]\ncmd eval counting prog\n")

    def test_two_commands(self):
        with pytest.raises(ParseError):
            parse_spec("cmd eval counting {}\ncmd eval counting {}\n")

    def test_no_command(self):
        with pytest.raises(ParseError):
            parse_spec("set A = [0, 1]\n")

    def test_mixed_braces(self):
        with pytest.raises(ParseError):
            parse_spec("set A = {a, 1}\ncmd eval counting A\n")

    def test_empty_interval_rejected(self):
        with pytest.raises(ParseError):
            parse_spec("set A = (1, 1)\ncmd eval counting A\n")

    def test_wrong_kind_reference(self):
        doc = parse_spec("set A = [0, 1]\ncmd eval A [0, 1]\n")
        with pytest.raises(UnresolvedName):
            run_document(doc)

    def test_label_set_against_line_measure(self):
        doc = parse_spec("measure T = tabulated{a: 1}\ncmd eval T [0, 1]\n")
        with pytest.raises(UniverseMismatch):
            run_document(doc)

    def test_atomic_overlap_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_spec(
                "measure M = atomic{0: 1, prog(0, 1): constant(1)}\n"
                "cmd eval M {}\n"
            )


def parse_message(text: str) -> str:
    with pytest.raises(ParseError) as exc:
        parse_spec(f"measure L = lebesgue\n{text}\ncmd eval L {{}}\n")
    return str(exc.value)


class TestIntervalsAndGroups:
    """After '(' the next token decides between an interval and a group, and
    each parse-error names the first token that cannot continue."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cmd eval L (inf, 2)", "line 2, column 19: empty interval"),
            ("cmd eval L (0, -inf)", "line 2, column 20: empty interval"),
            ("cmd eval L (inf, inf)", "line 2, column 21: empty interval"),
            ("cmd eval L (-inf, -inf)", "line 2, column 23: empty interval"),
            ("cmd eval L (inf, 0] & {-5}", "line 2, column 19: empty interval"),
            ("cmd eval L [inf, 2)", "line 2, column 12: infinite endpoint must be open"),
            ("cmd eval L [1, 0]", "line 2, column 17: empty interval"),
            ("cmd eval L (1, 0]", "line 2, column 17: empty interval"),
            ("cmd eval L ((1, 0])", "line 2, column 18: empty interval"),
            ("cmd eval L (2, 1/0)", "line 2, column 18: zero denominator"),
            ("cmd eval L (1 x [0, 1])", "line 2, column 15: expected ',', found 'x'"),
            ("cmd eval L (-a, 1)", "line 2, column 14: expected 'int', found 'a'"),
            ("cmd eval L {1,}", "line 2, column 15: expected 'int', found '}'"),
            ("cmd eval L {a,}", "line 2, column 15: expected a label, found '}'"),
            ("cmd eval L {a, 1}", "line 2, column 16: cannot mix labels and numbers in a set"),
            ("fn f = ind(([0, 1] x (1, 0]))", "line 2, column 27: empty interval"),
            ("rect R = ([0, 1] x (inf, 1))", "line 2, column 27: empty interval"),
            ("fn f = ind((([0, 1] x {5})))", "line 2, column 21: expected ')', found 'x'"),
            ("measure T = tabulated{x: 1, b: 2}", "line 2, column 23: 'x' is reserved"),
            ("measure T = tabulated{a: 1, inf: 2}", "line 2, column 29: 'inf' is reserved"),
            ("measure T = tabulated{a: 1, prog: 2}", "line 2, column 29: 'prog' is reserved"),
        ],
    )
    def test_message(self, text, message):
        assert parse_message(text) == message

    @pytest.mark.parametrize("text, is_rect", [
        ("([0, 1]) | {5}", False),
        ("([0, 1] x {5})", True),
        ("(([0, 1]) x {5})", True),
        ("((0, 1] x {5})", True),
        ("(0, 1] | ({5} & [0, 9])", False),
    ])
    def test_ind_argument(self, text, is_rect):
        doc = parse_spec(f"measure L = lebesgue\nfn f = ind({text})\ncmd integrate L f\n")
        assert isinstance(doc.fns["f"][0].arg, list) == is_rect


class TestPolymorphicBraces:
    def test_empty_braces_work_for_both_universes(self):
        out_line, code_line = run_capture(GOLDEN / "01_eval_lebesgue.spec")
        assert code_line == 0
        doc = parse_spec("measure T = tabulated{a: 2}\ncmd eval T {}\n")
        fields, code = run_document(doc)
        assert dict(fields)["value"] == "0"
        assert code == 0

    def test_label_sets_resolve_against_ground(self):
        doc = parse_spec(
            "measure T = tabulated{a: 2, b: inf}\ncmd eval T {a} | {b}\n"
        )
        fields, _ = run_document(doc)
        assert dict(fields)["value"] == "inf"

    def test_unknown_label(self):
        doc = parse_spec("measure T = tabulated{a: 2}\ncmd eval T {zz}\n")
        with pytest.raises(UniverseMismatch):
            run_document(doc)

    def test_unknown_labels_name_the_first_in_order(self):
        doc = parse_spec("measure T = tabulated{a: 2}\ncmd eval T {zz, y, q, m, k, b}\n")
        with pytest.raises(UniverseMismatch, match="label 'b' not in"):
            run_document(doc)


class TestSizeLimitEnv:
    def test_env_var_bounds_closures(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "4")
        spec = tmp_path / "big.spec"
        spec.write_text(
            "measure T = tabulated{a: 1, b: 1, c: 1}\ncmd eval T {a}\n"
        )
        buffer = io.StringIO()
        code = run_file(str(spec), "text", out=buffer)
        assert code == 2
        assert buffer.getvalue().startswith("error: size-limit:")

    def test_env_var_bounds_progression_unions(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "5000")
        spec = tmp_path / "coprime.spec"
        spec.write_text(
            "measure D = counting\n"
            "cmd eval D prog(0, 61) | prog(0, 67) | prog(0, 71)\n"
        )
        buffer = io.StringIO()
        code = run_file(str(spec), "text", out=buffer)
        assert code == 2
        assert buffer.getvalue().startswith("error: size-limit:")

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_env_value_is_a_size_limit_error(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", value)
        spec = tmp_path / "ok.spec"
        spec.write_text(
            "measure T = tabulated{a: 1, b: 1, c: 1}\ncmd eval T {a}\n"
        )
        buffer = io.StringIO()
        code = run_file(str(spec), "text", out=buffer)
        assert code == 2
        assert buffer.getvalue() == (
            "error: size-limit: SIGMA_PRODUCT_SIZE_LIMIT must be a positive "
            f"integer, got {value!r}\n"
        )

    def test_default_is_generous(self, tmp_path):
        spec = tmp_path / "ok.spec"
        spec.write_text(
            "measure T = tabulated{a: 1, b: 1, c: 1}\ncmd eval T {a}\n"
        )
        buffer = io.StringIO()
        code = run_file(str(spec), "text", out=buffer)
        assert code == 0


class TestResolverNames:
    @pytest.mark.parametrize(
        "decls, cmd, name",
        [
            ("set A = A", "eval L A", "A"),
            ("set A = B\nset B = [0, 1] & A", "eval L B", "B"),
            ("rect R = ([0, 1] x [0, 1]) + R", "product L L R", "R"),
            ("rect R = S\nrect S = R", "product L L R", "R"),
            ("set A = A\nfn f = ind(A)", "integrate L f", "A"),
            ("set A = B\nset B = A\nrect R = (A x [0, 1])", "fubini L L ind(R)", "A"),
        ],
    )
    def test_cycle_is_a_name_error(self, decls, cmd, name):
        doc = parse_spec(f"measure L = lebesgue\n{decls}\ncmd {cmd}\n")
        with pytest.raises(UnresolvedName, match=f"'{name}' is defined in terms of itself"):
            run_document(doc)

    def test_shared_name_is_not_a_cycle(self):
        doc = parse_spec(
            "measure L = lebesgue\nset A = [0, 1]\nset B = A | (A & [1/2, 2])\n"
            "rect S = (A x B)\nrect R = S + S + (B x A)\ncmd product L L R\n"
        )
        resolver = Resolver(doc)
        assert resolver.poly_set(doc.sets["B"]) == ("real", RealSet.interval(Fraction(0), Fraction(1)))
        assert run_document(doc) == ([("value", "1"), ("class", "finite")], 0)

    def test_resolver_is_reusable_after_a_cycle(self):
        doc = parse_spec("measure L = lebesgue\nset A = A\nset B = [0, 1]\ncmd eval L B\n")
        resolver = Resolver(doc)
        with pytest.raises(UnresolvedName):
            resolver.poly_set(doc.sets["A"])
        assert resolver.resolving == set()
        with pytest.raises(UnresolvedName):
            resolver.poly_set(doc.sets["A"])

    def test_named_rects_make_one_rect_union(self, monkeypatch):
        from sigma_product import rectset

        doc = parse_spec(
            "measure L = lebesgue\nrect S = ([0, 2] x [0, 1]) + ([1, 3] x [0, 1])\n"
            "rect R = S + ([1/2, 4] x [1/2, 2]) + S\ncmd product L L R\n"
        )
        built = []
        init = rectset.RectUnion.__init__

        def counting_init(self, rects, *args, **kwargs):
            rects = list(rects)
            built.append(len(rects))
            init(self, rects, *args, **kwargs)

        monkeypatch.setattr(rectset.RectUnion, "__init__", counting_init)
        leb = doc.measures["L"]
        Resolver(doc).rect_union(doc.rects["R"], leb, leb)
        assert built == [5]


class TestFlatOperatorChains:
    """The parser nests an operator chain on the left, so the resolver must
    not recurse once per operator."""

    TERMS = 1100

    @pytest.mark.parametrize(
        "expr, lines",
        [
            (lambda n: " | ".join(["[0, 1]"] * n), ["value = 1", "class = finite"]),
            (
                lambda n: "[0, 3]" + "".join(f" \\ {{{k}}}" for k in range(n - 1)),
                ["value = 3", "class = finite"],
            ),
            (
                lambda n: " & ".join(f"(-inf, {5000 - k}]" for k in range(n)),
                ["value = inf", "class = sigma-finite"],
            ),
        ],
        ids=["union", "difference", "intersection"],
    )
    def test_long_chain_resolves(self, tmp_path, expr, lines):
        spec = tmp_path / "chain.spec"
        spec.write_text(f"measure L = lebesgue\nset A = {expr(self.TERMS)}\ncmd eval L A\n")
        buffer = io.StringIO()
        assert run_file(str(spec), "text", out=buffer) == 0
        assert buffer.getvalue().splitlines() == lines


def nested(depth: int, core: str = "[0, 1]") -> str:
    return "(" * depth + core + ")" * depth


def chain(kind: str, length: int, first: str) -> str:
    """Declarations X0 = first, X1 = X0, ..., X<length> = X<length-1>."""
    name = {"set": "S", "rect": "R"}[kind]
    lines = [f"{kind} {name}0 = {first}"]
    lines += [f"{kind} {name}{i} = {name}{i - 1}" for i in range(1, length + 1)]
    return "\n".join(lines)


class TestNestingCap:
    """Nesting past MAX_NESTING is refused with a stable kind, never a
    Python recursion error."""

    CAP = 100

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            (f"set A = {nested(300)}\ncmd eval L A", "parse-error",
             "line 2, column 109: parentheses nested deeper than 100"),
            (f"cmd eval L {nested(300)}", "parse-error",
             "line 2, column 112: parentheses nested deeper than 100"),
            (f"fn f = ind({nested(300)})\ncmd integrate L f", "parse-error",
             "line 2, column 112: parentheses nested deeper than 100"),
            (f"{chain('set', 600, '[0, 1]')}\ncmd eval L S600", "size-limit",
             "'S500' is reached through more than 100 nested declarations"),
            (f"{chain('rect', 600, '([0, 1] x [0, 1])')}\ncmd product L L R600", "size-limit",
             "'R500' is reached through more than 100 nested declarations"),
        ],
        ids=["set-parens", "cmd-parens", "ind-parens", "set-chain", "rect-chain"],
    )
    def test_deep_input_is_refused(self, tmp_path, text, kind, message):
        assert getattr(cli, "MAX_NESTING", None) == self.CAP
        spec = tmp_path / "deep.spec"
        spec.write_text(f"measure L = lebesgue\n{text}\n")
        out, code = run_capture(spec)
        assert (code, out) == (2, f"error: {kind}: {message}\n")

    def test_parentheses_up_to_the_cap_parse(self):
        text = f"measure L = lebesgue\ncmd eval L {nested(self.CAP)} | {nested(self.CAP, '{5}')}\n"
        assert run_document(parse_spec(text)) == ([("value", "1"), ("class", "finite")], 0)
        deeper = f"measure L = lebesgue\nset A = [0, 1] & {nested(self.CAP + 1)}\ncmd eval L A\n"
        with pytest.raises(ParseError, match="column 118: parentheses nested deeper"):
            parse_spec(deeper)

    def test_right_nested_operators_resolve_without_recursion(self):
        expr = "[0, 1]"
        for k in range(self.CAP):
            expr = f"{{{k + 2}}} | ({expr})"
        doc = parse_spec(f"measure C = counting\ncmd eval C {expr}\n")
        assert run_document(doc) == ([("value", "inf"), ("class", "not-sigma-finite")], 0)

    @pytest.mark.parametrize("template, over_column", [
        ("rect R = (DEEP x [0, 1])", 110),  # the rect term's '(' is the first
        ("fn f = ind((DEEP x [0, 1]))", 112),  # ind's own '(' is not a group
    ])
    def test_rectangle_parentheses_count_toward_the_cap(self, template, over_column):
        def spec(depth):
            return f"measure L = lebesgue\n{template.replace('DEEP', nested(depth))}\ncmd eval L {{}}\n"

        ok = parse_spec(spec(self.CAP - 1))
        assert ok.rects or ok.fns
        with pytest.raises(ParseError) as exc:
            parse_spec(spec(self.CAP))
        assert str(exc.value) == f"line 2, column {over_column}: parentheses nested deeper than 100"

    @pytest.mark.parametrize("kind, first, cmd", [
        ("set", "[0, 1]", "eval L S{n}"),
        ("rect", "([0, 1] x [0, 1])", "product L L R{n}"),
    ])
    def test_name_chains_up_to_the_cap_resolve(self, kind, first, cmd):
        ok = f"measure L = lebesgue\n{chain(kind, self.CAP - 1, first)}\ncmd {cmd.format(n=self.CAP - 1)}\n"
        assert run_document(parse_spec(ok)) == ([("value", "1"), ("class", "finite")], 0)
        over = f"measure L = lebesgue\n{chain(kind, self.CAP, first)}\ncmd {cmd.format(n=self.CAP)}\n"
        with pytest.raises(SizeLimit, match="reached through more than 100 nested declarations"):
            run_document(parse_spec(over))


class TestCountableExpansionLimit:
    """Listing the points of a progression, or the pieces of a difference,
    is bounded by the size limit before anything is built."""

    @pytest.mark.parametrize(
        "expr, count",
        [
            ("[0, 1000000000000] & prog(0, 1)", "1000000000001"),
            ("prog(0, 1) \\ {1000000000000}", "1000000000001"),
            ("prog(0, 1) \\ prog(0, 7919) \\ prog(0, 7907)", None),
        ],
        ids=["interval-meet", "far-point", "two-differences"],
    )
    def test_expansion_is_a_size_limit(self, tmp_path, expr, count):
        spec = tmp_path / "wide.spec"
        spec.write_text(f"measure C = counting\ncmd eval C {expr}\n")
        t0 = time.perf_counter()
        out, code = run_capture(spec)
        assert time.perf_counter() - t0 < 10
        match = re.fullmatch(
            r"error: size-limit: countable set would expand into (\d+) points "
            r"and progressions \(limit 65536\)\n", out)
        assert code == 2 and match, out
        assert count is None or match[1] == count

    def test_small_expansion_still_counts(self, tmp_path):
        spec = tmp_path / "small.spec"
        spec.write_text("measure C = counting\ncmd eval C [0, 1000] & prog(0, 1)\n")
        assert run_capture(spec) == ("value = 1001\nclass = finite\n", 0)

    @pytest.mark.parametrize("other, count", [
        (RealSet.interval(Fraction(0), Fraction(160)), "121"),
        (RealSet.line() - RealSet.points([Fraction(200), Fraction(201), Fraction(202)]), None),
    ], ids=["meet", "difference"])
    def test_the_limit_counts_across_progressions(self, monkeypatch, other, count):
        """Three progressions that each list fewer points than the limit,
        but more than it together."""
        monkeypatch.setenv("SIGMA_PRODUCT_SIZE_LIMIT", "100")
        three = RealSet.progression(Fraction(0), Fraction(2)) | RealSet.progression(Fraction(1), Fraction(4))
        assert len(three.included.progressions) == 3
        with pytest.raises(SizeLimit, match=rf"into {count or '1[0-9][0-9]'} points and progressions \(limit 100\)$"):
            three & other


class TestDigitLimit:
    """Numbers past Python's int/str digit limit are a parse-error where
    they are read and a size-limit where they would be printed."""

    def run_both(self, tmp_path, text):
        spec = tmp_path / "digits.spec"
        spec.write_text(text)
        out, code = run_capture(spec)
        jout, jcode = run_capture(spec, "json")
        assert jcode == code == 2
        assert json.loads(jout)["error"] == dict(zip(("kind", "message"), out[len("error: "):-1].split(": ", 1)))
        return out

    @pytest.mark.parametrize("literal, column", [
        ("1{}", 17), ("1/1{}", 19), ("-1{}", 18),
    ], ids=["integer", "denominator", "negative"])
    def test_literal_past_the_limit_is_a_parse_error(self, tmp_path, digit_limit, literal, column):
        number = literal.format("0" * digit_limit)
        out = self.run_both(tmp_path, f"measure L = lebesgue\ncmd eval L [-2, {number}]\n")
        assert out == (f"error: parse-error: line 2, column {column}: "
                       f"integer literal has more than {digit_limit} digits\n")

    def test_literal_at_the_limit_parses(self, tmp_path, digit_limit):
        spec = tmp_path / "digits.spec"
        spec.write_text(f"measure C = counting\ncmd eval C {{{'9' * digit_limit}}}\n")
        assert run_capture(spec) == ("value = 1\nclass = finite\n", 0)

    def test_result_too_long_to_print_is_a_size_limit(self, tmp_path, digit_limit):
        side = "9" * (digit_limit // 2 + 100)
        out = self.run_both(tmp_path, (
            f"measure L = lebesgue\nset S = [0, {side}]\n"
            f"rect R = (S x S)\ncmd product L L R\n"))
        assert out == f"error: size-limit: number has more than {digit_limit} digits to print\n"


# -- the CLI against the library API
#
# Inputs are library objects, rendered into a spec; every success must
# print the library's own answer, and every error carry the kind of the
# exception the library call raises.

LABELS = ("a", "b", "c")
weights = st.sampled_from([ExtNonNeg(0), ExtNonNeg(1), ExtNonNeg(Fraction(5, 2)), INF])
line_measures = st.one_of(
    st.just(LebesgueLine()),
    st.just(CountingLine()),
    rationals.map(DiracAt),
    st.builds(
        lambda points, rules: CountableAtomic(
            points, [(Progression(Fraction(-1, 3), Fraction(1)), rule) for rule in rules]),
        st.lists(st.tuples(st.sampled_from([Fraction(-3), Fraction(5, 2)]), weights),
                 max_size=2, unique_by=lambda pw: pw[0]),
        st.lists(st.one_of(
            weights.map(ConstantWeights),
            st.builds(GeometricWeights, st.sampled_from([Fraction(0), Fraction(3)]),
                      st.sampled_from([Fraction(0), Fraction(1, 2)])),
        ), max_size=1),
    ),
)
tabulated = st.lists(
    st.tuples(st.sampled_from(LABELS), weights), min_size=1, max_size=3, unique_by=lambda lw: lw[0]
).map(lambda entries: FiniteTabulated.power_set(dict(entries)))
library_measures = st.one_of(line_measures, tabulated)


def sets_in(universe):
    if universe[0] == "line":
        return real_sets
    ground = universe[1]
    return st.sets(st.sampled_from(ground)).map(lambda labels: FinSet.of(ground, labels))


@st.composite
def sets_for(draw, measure, foreign=True):
    """A set in ``measure``'s universe; with ``foreign``, one draw in
    eight is a nonempty set from another universe."""
    if foreign and draw(st.integers(0, 7)) == 0:
        other = ("fin", LABELS) if measure.universe[0] == "line" else ("line",)
        return draw(sets_in(other).filter(lambda s: not s.is_empty))
    return draw(sets_in(measure.universe))


def rect_text(pairs):
    return " + ".join(f"({a.render()} x {b.render()})" for a, b in pairs)


coefficients = st.sampled_from([Fraction(1), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(0)])


@st.composite
def cli_cases(draw, command):
    """(spec text, library thunk) for ``command``; the thunk returns the
    output fields and exit code that the CLI must print."""
    ms = [draw(library_measures) for _ in range(2 if command in ("product", "fubini") else 1)]
    lines = [f"measure M{i} = {m.render()}" for i, m in enumerate(ms)]
    named = draw(st.booleans())

    def pairs():
        return draw(st.lists(st.tuples(sets_for(ms[0], False), sets_for(ms[1], False)),
                             min_size=1, max_size=2))

    if command in ("eval", "classify", "component"):
        s = draw(sets_for(ms[0]))
        target = s.render()

        def library():
            m = ms[0].sigma_finite_component() if command == "component" else ms[0]
            if command == "classify":
                return [("class", m.finiteness(s).render())], 0
            value, cls = m.measure(s), m.finiteness(s)
            assert m.evaluate(s) == (value, cls)
            return [("value", str(value)), ("class", cls.render())], 0
    elif command == "product":
        rects = pairs()
        target = rect_text(rects)

        def library():
            value, cls = ProductMeasure(*ms).evaluate(RectUnion(rects))
            return [("value", str(value)), ("class", cls.render())], 0
    elif command == "integrate":
        terms = draw(st.lists(st.tuples(coefficients, sets_for(ms[0])), min_size=1, max_size=3))
        target = " + ".join(f"{render_rational(c)}*ind({s.render()})" for c, s in terms)

        def library():
            f = SimpleFunction(terms, ms[0].universe)
            if f.nonnegative:
                return [("value", str(extended_integral(f, ms[0])))], 0
            return [("value", render_rational(integrate(f, ms[0])))], 0
    else:
        terms = draw(st.lists(st.tuples(coefficients, st.builds(pairs)), min_size=1, max_size=2))
        for i, (_, rects) in enumerate(terms):
            lines.append(f"rect R{i} = {rect_text(rects)}")
        target = " + ".join(f"{render_rational(c)}*ind(R{i})" for i, (c, _) in enumerate(terms))

        def library():
            f = SimpleFunction([(c, RectUnion(rects)) for c, rects in terms],
                               ProductMeasure(*ms).universe)
            report = fubini_check(f, *ms)
            fields = [
                ("product", render_value(report.product_value)),
                ("iterated_sv", render_value(report.iterated_sv)),
                ("iterated_ts", render_value(report.iterated_ts)),
                ("verdict", report.verdict),
            ]
            if report.reason:
                fields.append(("reason", report.reason))
            return fields, (0 if report.all_equal else 1)
    if named:
        kind = {"product": "rect", "integrate": "fn", "fubini": "fn"}.get(command, "set")
        lines.append(f"{kind} T = {target}")
        target = "T"
    lines.append(" ".join(["cmd", command] + [f"M{i}" for i in range(len(ms))] + [target]))
    return "\n".join(lines) + "\n", library


class TestAgreesWithLibrary:
    @pytest.mark.parametrize(
        "command", ["eval", "classify", "component", "product", "integrate", "fubini"])
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_cli_prints_the_library_answer(self, tmp_path_factory, command, data):
        text, library = data.draw(cli_cases(command))
        path = tmp_path_factory.mktemp("spec") / "case.spec"
        path.write_text(text)
        try:
            fields, code = library()
        except SigmaProductError as exc:
            expected = (f"error: {exc.kind}: ", 2)
            got, got_code = run_capture(path)
            assert (got[:len(expected[0])], got_code) == expected, text
        else:
            expected = "".join(f"{key} = {value}\n" for key, value in fields)
            assert run_capture(path) == (expected, code), text
