import io
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sigma_product import cli
from sigma_product.cli import (
    Resolver,
    parse_spec,
    run_document,
    run_file,
)
from sigma_product.errors import ParseError, UniverseMismatch, UnresolvedName
from sigma_product.lineset import RealSet
from sigma_product.measures import CountableAtomic, DiracAt

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
        proc = subprocess.run(
            [sys.executable, "-m", "sigma_product.cli", "run",
             str(GOLDEN / "10_product_finite.spec")],
            capture_output=True,
            text=True,
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
