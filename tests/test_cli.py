import dataclasses
import json
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import veronese.verify as verify_mod
from veronese import bundles, curves, p1split, symlin
from veronese.bundles import VeroneseContext, euler_presentation, normal_presentation
from veronese.cli import main
from veronese.gradedmap import CurveParam
from veronese.p1split import splitting_type
from veronese.poly import HomPoly, render_poly
from veronese.prng import SplitMix64


def _schema_validator(name: str) -> Draft202012Validator:
    schemas = {}
    schema_dir = resources.files("veronese").joinpath("schemas")
    for entry in schema_dir.iterdir():
        if entry.name.endswith(".schema.json"):
            with entry.open() as f:
                blob = json.load(f)
            schemas[blob["$id"]] = blob
    registry = Registry().with_resources(
        (sid, Resource.from_contents(blob)) for sid, blob in schemas.items()
    )
    return Draft202012Validator(schemas[name], registry=registry)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_normal_json_schema(capsys):
    code, payload = _run_json(capsys, ["normal", "--n", "2", "--d", "2"])
    assert code == 0
    _schema_validator("urn:veronese:normal:v1").validate(payload)
    assert payload["rank"] == 3
    assert payload["degree"] == 9
    assert payload["slope"] == "3"
    assert payload["chern"] == ["1", "9", "30"]


def test_normal_rejects_degree_one(capsys):
    code = main(["normal", "--n", "3", "--d", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "isomorphism" in err and "normal bundle is zero" in err


@pytest.mark.parametrize("cmd", ["normal", "restrict", "slopes"])
def test_dimension_below_one_is_refused_by_the_context(capsys, cmd):
    assert main([cmd, "--n", "0", "--d", "2"]) == 2
    assert capsys.readouterr().err == "invalid input: dimension n must be >= 1\n"


def test_normal_slope_n1_d4(capsys):
    code, payload = _run_json(capsys, ["normal", "--n", "1", "--d", "4"])
    assert code == 0
    assert payload["rank"] == 3
    assert payload["degree"] == 18
    assert payload["slope"] == "6"


def test_restrict_line_samples_schema(capsys):
    code, payload = _run_json(
        capsys,
        ["restrict", "--n", "3", "--d", "2", "--curve", "line", "--samples", "5", "--seed", "1"],
    )
    assert code == 0
    _schema_validator("urn:veronese:restrict:v1").validate(payload)
    assert payload["allSamplesIdentical"] is True
    for sample in payload["samples"]:
        assert sample["splitting"]["degrees"] == [4, 3, 3, 2, 2, 2]
        gm = sample["gm"]
        assert gm["spread_ok"] and gm["sum_ok"] and gm["rank_ok"]


def test_restrict_d3_line_degree_sums(capsys):
    code, payload = _run_json(
        capsys,
        ["restrict", "--n", "2", "--d", "3", "--curve", "line", "--samples", "3", "--seed", "1"],
    )
    assert code == 0
    for sample in payload["samples"]:
        assert sample["splitting"]["degree"] == 27
        assert sample["gm"]["spread_ok"] and sample["gm"]["sum_ok"]


def test_restrict_double_line_reports_a_spread_violation(tmp_path, capsys):
    """The unit-spread bound is for general lines: the line Z2 = 0 through
    (s^2, t^2) doubles the line type (4, 3, 2), so the spread is 2, and
    `restrict` reports it and still exits 0."""
    path = tmp_path / "double_line.json"
    path.write_text(json.dumps({"degree": 2, "forms": ["Z0^2", "Z1^2", "0"]}))
    argv = ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    code, payload = _run_json(capsys, argv)
    assert code == 0
    [sample] = payload["samples"]
    assert sample["splitting"]["degrees"] == [8, 6, 4]
    gm = sample["gm"]
    assert not gm["spread_ok"] and gm["sum_ok"] and gm["rank_ok"]
    assert main(argv + ["--format", "table"]) == 0
    assert "  sample 0 (seed None): [8, 6, 4]  gm VIOLATION\n" in capsys.readouterr().out


def test_restrict_rnc_samples(capsys):
    code, payload = _run_json(
        capsys,
        ["restrict", "--n", "2", "--d", "2", "--curve", "rnc", "--samples", "3", "--seed", "0"],
    )
    assert code == 0
    for sample in payload["samples"]:
        assert sample["splitting"]["degrees"] == [6, 6, 6]
    assert payload["allSamplesIdentical"] is True


def test_restrict_curve_file(tmp_path, capsys):
    curve = {"degree": 1, "forms": ["Z0", "Z1", "0"]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve))
    code, payload = _run_json(
        capsys,
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)],
    )
    assert code == 0
    assert payload["samples"][0]["splitting"]["degrees"] == [4, 3, 2]


def test_restrict_curve_file_with_unspaced_minus(tmp_path, capsys):
    """A conic whose third form is written "Z1^2-Z0^2": the parser reads an
    unspaced "-" between terms, and the type is the RNC's at n = 2."""
    path = tmp_path / "conic.json"
    path.write_text(json.dumps({"degree": 2, "forms": ["Z0^2", "Z0*Z1", "Z1^2-Z0^2"]}))
    code, payload = _run_json(
        capsys,
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)],
    )
    assert code == 0
    assert payload["samples"][0]["splitting"]["degrees"] == [6, 6, 6]


def test_restrict_curve_file_with_a_fraction_coefficient(tmp_path, capsys):
    """A twisted cubic with one coefficient 1/2, the parser's Fraction
    branch: it is projectively the integer one, so the types agree."""
    degrees = []
    for first in ("Z0^3", "1/2*Z0^3"):
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps({"degree": 3, "forms": [first, "Z0^2*Z1", "Z0*Z1^2", "Z1^3"]}))
        code, payload = _run_json(
            capsys,
            ["restrict", "--n", "3", "--d", "3", "--curve", "file", "--path", str(path)],
        )
        assert code == 0
        degrees.append(payload["samples"][0]["splitting"]["degrees"])
    assert degrees[0] == degrees[1] == [11] * 8 + [10] * 8


def test_restrict_bad_curve_file_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    ) == 3
    capsys.readouterr()

    path2 = tmp_path / "basepoint.json"
    path2.write_text(json.dumps({"degree": 2, "forms": ["Z0^2", "Z0*Z1", "0"]}))
    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path2)]
    ) == 3
    assert capsys.readouterr().err == "invalid curve: parametrization has base point\n"

    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path",
         str(tmp_path / "missing.json")]
    ) == 3


@pytest.mark.parametrize(
    "blob",
    [
        [1, 2],
        {"degree": 1},
        {"degree": 1, "forms": None},
        {"degree": 1, "forms": [1, 2, 3]},
        {"degree": 1, "forms": ["1/0*Z0", "Z1", "0"]},
        # non-ASCII digits in a coefficient, an index and an exponent
        {"degree": 2, "forms": ["\u0663*Z0^2", "Z0*Z1", "Z1^2"]},
        {"degree": 1, "forms": ["Z0", "Z\u0661", "0"]},
        {"degree": 2, "forms": ["Z0^\u0662", "Z0*Z1", "Z1^2"]},
        {"degree": 2, "forms": ["\uff13*Z0^2", "Z0*Z1", "Z1^2"]},
    ],
)
def test_restrict_malformed_curve_file_exit_3(tmp_path, capsys, blob):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(blob))
    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    ) == 3
    err = capsys.readouterr().err
    assert "invalid curve" in err and "Traceback" not in err


def test_restrict_curve_file_that_does_not_span(tmp_path, capsys):
    """A plane quartic's three forms cannot span the quartics, so the
    Sylvester rank decides its base points.  At d = 2 the restriction of
    N is Sym^2 of the tangent bundle's type along the same curve, for
    every curve; `restrict` computes it that way, so the direct scan of
    the full pullback checks it too.  The same forms times a common
    linear factor are refused."""
    rng = SplitMix64(4)
    forms = [HomPoly(2, 4, {(4 - k, k): rng.next_int(-9, 9) for k in range(5)}) for _ in range(3)]
    curve = CurveParam(4, tuple(forms))
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(curve.to_json()))
    code, payload = _run_json(
        capsys, ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    )
    assert code == 0
    tangent = splitting_type(euler_presentation(2).pullback(curve))
    assert payload["samples"][0]["splitting"]["degrees"] == list(tangent.sym_square().degrees)
    direct = splitting_type(normal_presentation(VeroneseContext(2, 2)).pullback(curve))
    assert payload["samples"][0]["splitting"]["degrees"] == list(direct.degrees)

    factor = HomPoly(2, 1, {(1, 0): 2, (0, 1): -3})
    path.write_text(json.dumps({"degree": 5, "forms": [render_poly(factor * f) for f in forms]}))
    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    ) == 3
    assert capsys.readouterr().err == "invalid curve: parametrization has base point\n"


def test_restrict_deeply_nested_curve_file_exit_3(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(
        ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    ) == 3
    err = capsys.readouterr().err
    assert "cannot load curve" in err and "Traceback" not in err


def _valid_curve_blob(rng) -> dict:
    degree = rng.next_int(1, 3)
    forms = []
    for _ in range(3):
        terms = [
            (rng.next_int(-3, 3), degree - k, k) for k in range(degree + 1)
        ]
        forms.append(" + ".join(f"{c}*Z0^{a}*Z1^{b}" for c, a, b in terms if c) or "0")
    return {"degree": degree, "forms": forms}


def _mutated_curve_texts(count):
    """Seeded curve files for P^2, each a valid blob of degree <= 3 put
    through one mutation; the mutations take turns, so each occurs."""
    rng = SplitMix64(2718)
    junk = [None, True, -1, 0, 2.5, "1", [], {}, [["Z0"]], "Z0"]

    def pick(seq):
        return seq[rng.next_below(len(seq))]

    def garble(text):
        if not text:
            return "*"
        i = rng.next_below(len(text))
        return text[:i] + pick("^*/+-Z019 x(") + text[i + 1:]

    mutations = [
        lambda b: {k: v for k, v in b.items() if k != pick(["degree", "forms"])},
        lambda b: {**b, pick(["extra", "Degree", ""]): pick(junk)},
        lambda b: {**b, "degree": pick(junk + [10**30])},
        lambda b: {**b, "forms": pick(junk)},
        lambda b: {**b, "forms": b["forms"][:-1] + [pick(junk)]},
        lambda b: {**b, "forms": [f[: rng.next_below(len(f) + 1)] for f in b["forms"]]},
        lambda b: {**b, "forms": [garble(f) for f in b["forms"]]},
        lambda b: {**b, "forms": [re.sub(r"^(-?\d+)", r"\1/0", f) for f in b["forms"]]},
        lambda b: {**b, "forms": [f"Z0^{10**rng.next_int(1, 30)}"] + b["forms"][1:]},
        lambda b: {**b, "forms": b["forms"][: rng.next_below(3)] + b["forms"] * rng.next_below(2)},
    ]
    for k in range(count):
        kind = k % (len(mutations) + 2)
        blob = _valid_curve_blob(rng)
        if kind < len(mutations):
            yield json.dumps(mutations[kind](blob))
        elif kind == len(mutations):
            text = json.dumps(blob)
            yield text[: rng.next_below(len(text))]
        else:
            depth = rng.next_int(1, 100000)
            yield "[" * depth + "]" * depth


def test_restrict_fuzzed_curve_files_never_crash(tmp_path, capsys):
    path = tmp_path / "fuzzed.json"
    codes = set()
    for text in _mutated_curve_texts(204):
        path.write_text(text)
        code = main(["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), text[:200]
        assert "Traceback" not in err
        codes.add(code)
    assert codes == {0, 3}


def test_slopes_schema_and_monotonic(capsys):
    code, payload = _run_json(capsys, ["slopes", "--n", "2", "--d", "2"])
    assert code == 0
    _schema_validator("urn:veronese:slopes:v1").validate(payload)
    assert [r["slope"] for r in payload["rows"]] == ["-1", "-2/5", "0"]
    assert payload["monotonic"] is True


def test_slopes_n1_d2(capsys):
    code, payload = _run_json(capsys, ["slopes", "--n", "1", "--d", "2"])
    assert code == 0
    assert [r["slope"] for r in payload["rows"]] == ["-2", "-1", "0"]


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "normal.json"
    code = main(["normal", "--n", "2", "--d", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "normal"


class _ClosedPipe:
    """A stdout whose reader has gone, as under `veronese ... | head -n 1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_3_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(verify_mod, "_CHECKS", [r for r in verify_mod._CHECKS if r[0] == "dual_identity"])
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["verify", "--format", "table"])
    assert code == 3
    assert capsys.readouterr().err == "[Errno 32] Broken pipe\n"


def test_verify_fast_passes(capsys):
    import time

    t0 = time.monotonic()
    code, payload = _run_json(capsys, ["verify", "--scope", "fast"])
    elapsed = time.monotonic() - t0
    assert code == 0
    _schema_validator("urn:veronese:verify:v1").validate(payload)
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "dual_identity" in names and "golden_files" in names
    assert "necessary-condition" in payload["note"]
    # measured well under a second on first implementation; pinned with slack
    assert elapsed < 60


def test_restrict_rejects_zero_samples(capsys):
    assert main(["restrict", "--n", "2", "--d", "2", "--samples", "0"]) == 2


def test_verify_corrupted_golden_exit_1(capsys, monkeypatch):
    real_loader = verify_mod._load_golden

    def corrupted(name):
        blob = real_loader(name)
        if name == "curves_v1.json":
            blob = dict(blob)
            key = next(iter(blob))
            blob[key] = {"degree": 1, "forms": ["Z0", "Z1"]}
        return blob

    monkeypatch.setattr(verify_mod, "_load_golden", corrupted)
    code = main(["verify", "--scope", "fast"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    failing = {c["name"]: c for c in payload["checks"]}
    assert failing["golden_files"]["status"] == "fail"
    assert "curves_v1.json" in failing["golden_files"]["detail"]
    assert "golden_files" in captured.err


def _verify_fails_on(capsys, check: str) -> str:
    """Runs `veronese verify`, asserts exit 1 with `check` failing and named
    on stderr, and returns the check's detail."""
    code = main(["verify", "--scope", "fast"])
    captured = capsys.readouterr()
    assert code == 1
    failing = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert failing[check]["status"] == "fail"
    assert f"verification failed: {check}" in captured.err
    return failing[check]["detail"]


def _corrupt_order(blob):
    return {**blob, "2,1": [[0, 1], [1, 0]]}


def _corrupt_splitting(blob):
    return {**blob, "standard_line_degrees": [5, 5, 4, 4, 3, 3, 4]}


def _unreadable(blob):
    return json.loads("{")


@pytest.mark.parametrize(
    "name, corrupt, detail",
    [
        ("monomial_order_v1.json", _corrupt_order, "monomial_order_v1.json: order mismatch at (2,1)"),
        ("splitting_n2_d3_line_v1.json", _corrupt_splitting, "splitting_n2_d3_line_v1.json: standard line gives"),
        ("monomial_order_v1.json", _unreadable, "monomial_order_v1.json: Expecting property name"),
        ("curves_v1.json", _unreadable, "curves_v1.json: Expecting property name"),
        ("splitting_n2_d3_line_v1.json", _unreadable, "splitting_n2_d3_line_v1.json: Expecting property name"),
    ],
)
def test_verify_names_the_failing_golden_file(capsys, monkeypatch, name, corrupt, detail):
    real_loader = verify_mod._load_golden
    monkeypatch.setattr(
        verify_mod, "_load_golden", lambda n: corrupt(real_loader(n)) if n == name else real_loader(n)
    )
    monkeypatch.setattr(verify_mod, "_CHECKS", [r for r in verify_mod._CHECKS if r[0] == "golden_files"])
    assert _verify_fails_on(capsys, "golden_files").startswith(detail)


def test_verify_reports_a_raising_check_as_failing(capsys, monkeypatch):
    def broken():
        raise RuntimeError("boom")

    checks = [r for r in verify_mod._CHECKS if r[0] == "dual_identity"]
    monkeypatch.setattr(verify_mod, "_CHECKS", checks + [("broken", broken, (), ())])
    assert _verify_fails_on(capsys, "broken") == "exception: RuntimeError('boom')"


def _moved(st):
    """The type with its top degree raised and the next one lowered: the
    same sum, and a gap of at least 2 between them."""
    degs = st.degrees
    if len(degs) < 2:
        return st
    return p1split.SplittingType((degs[0] + 1, degs[1] - 1, *degs[2:]))


def _move_splitting_types(monkeypatch):
    real = p1split.splitting_type
    monkeypatch.setattr(p1split, "splitting_type", lambda pres: _moved(real(pres)))


def _move_restriction_types(monkeypatch):
    real = bundles.restriction_type
    monkeypatch.setattr(bundles, "restriction_type", lambda ctx, curve: _moved(real(ctx, curve)))


def _change_field(name, field, change):
    """Replaces `bundles.<name>` by the real function with `field` of its
    result passed through `change`."""

    def patch(monkeypatch):
        real = getattr(bundles, name)

        def changed(*args):
            result = real(*args)
            return dataclasses.replace(result, **{field: change(getattr(result, field))})

        monkeypatch.setattr(bundles, name, changed)

    return patch


def _never_commute(monkeypatch):
    monkeypatch.setattr(symlin, "check_commute", lambda ses, i: False)


def _rnc_is_a_line(monkeypatch):
    monkeypatch.setattr(curves, "rnc", lambda n, seed: curves.standard_line(n))


def _move_line_multiset(monkeypatch):
    real = verify_mod._line_multiset
    monkeypatch.setattr(
        verify_mod, "_line_multiset", lambda n: _moved(p1split.SplittingType(real(n))).degrees
    )


def _move_balanced_squares(monkeypatch):
    real = p1split.SplittingType.sym_square

    def square(st):
        sq = real(st)
        return _moved(sq) if len(set(st.degrees)) == 1 else sq

    monkeypatch.setattr(p1split.SplittingType, "sym_square", square)


def _plant_a_fault(monkeypatch):
    suites = list(verify_mod._PROPERTY_SUITES)
    name, seed, prop = suites[2]
    suites[2] = (name, seed, lambda rng: prop(rng) or ": planted")
    monkeypatch.setattr(verify_mod, "_PROPERTY_SUITES", tuple(suites))


def _miscount_sections(monkeypatch):
    real = p1split.h0_direct
    monkeypatch.setattr(p1split, "h0_direct", lambda pres, m: real(pres, m) + 1)


def _raise_type_and_sections(monkeypatch):
    """The type and h0_direct raised together by O(1) on the top summand:
    the profiles agree, and only the presentation's Euler characteristic
    sees the extra degree."""
    real = verify_mod._random_p1_presentation
    made = []

    def raised(rng):
        pres, st = real(rng)
        made.append(p1split.SplittingType((st.degrees[0] + 1, *st.degrees[1:])))
        return pres, made[-1]

    monkeypatch.setattr(verify_mod, "_random_p1_presentation", raised)
    monkeypatch.setattr(p1split, "h0_direct", lambda pres, m: made[-1].h0_profile(m, m)[0])


_DUAL_12 = "(n,d)=(1,2): delta^1 = 1 * dual(theta); scalar diagonal = (d-1)!"


def _never_commute_from_the_second_half(monkeypatch):
    """A fault planted from instance count // 2 = 12 of the fast scope's 25
    on, so only the forked half of the commute suite meets it."""
    real = verify_mod._commute_instance

    def instance(k, seed):
        return real(k, seed) or (f"instance {k}: planted" if k >= 12 else None)

    monkeypatch.setattr(verify_mod, "_commute_instance", instance)


_BROKEN_FACTS = [
    ("rnc_balanced", _move_restriction_types, "d=3: got (6, 4)"),
    ("line_restriction_d2", _move_restriction_types, "n=2 sample 0: got (5, 2, 2), want (4, 3, 2)"),
    ("rnc_restriction_d2", _move_restriction_types, "n=2 seed 0: got (7, 6, 5)"),
    ("grauert_mulich_chern", _move_restriction_types, (
        "(n,d)=(2,3) seed 1: {'degrees': [6, 4, 4, 4, 3, 3, 3], 'spread_ok': False, "
        "'sum_ok': True, 'rank_ok': True, 'expected_sum': 27, 'expected_rank': 7}"
    )),
    ("dual_identity", _change_field("verify_dual_identity", "ok", lambda ok: False), _DUAL_12),
    ("dual_identity", _change_field("verify_dual_identity", "is_scalar", lambda s: False), _DUAL_12),
    ("dual_identity", _change_field("verify_dual_identity", "scale", lambda x: x + 1), "(n,d)=(1,2): diagonal 2 != (d-1)!"),
    ("symmetrize_dualize_commute", _never_commute, "instance 0 dims (1, 2, 1) i=1"),
    ("symmetrize_dualize_commute", _never_commute_from_the_second_half, "instance 12: planted"),
    ("k_tower_slopes", _change_field("k_bundle_stats", "slope", lambda x: -x), "(n,d)=(1,2): slopes [2, 1, 0] not increasing"),
    ("k_tower_slopes", _change_field("k_bundle_stats", "slope", lambda x: x + 1), "(n,d)=(1,2): terminal slope 1"),
    ("k_tower_slopes", _change_field("k_bundle_stats", "degree", lambda x: x - 1), "(n,d,i)=(1,2,1): (2,) vs KBundleStats(i=1, rank=1, degree=-3, slope=-2)"),
    ("tangent_restrictions", _move_splitting_types, "n=2 line: (3, 0)"),
    ("tangent_restrictions", _rnc_is_a_line, "n=2 rnc seed 0: (2, 1)"),
    ("tangent_restrictions", _move_line_multiset, "n=2: sym^2 of line tangent mismatch"),
    ("tangent_restrictions", _move_balanced_squares, "n=2: sym^2 of rnc tangent mismatch"),
    ("property_suites", _plant_a_fault, "stratum_functoriality: instance 0: planted"),
    ("property_suites", _miscount_sections, "h0_oracle: instance 0: [0, 0, 2, 4, 6, 8, 10] vs [1, 1, 3, 5, 7, 9, 11]"),
    ("property_suites", _raise_type_and_sections, "h0_oracle: instance 0: chi mismatch at twist 1"),
]


@pytest.mark.parametrize("check, fault, detail", _BROKEN_FACTS)
@pytest.mark.usefixtures("fresh_orbit_memo")
def test_verify_fails_each_check_on_a_broken_fact(capsys, monkeypatch, check, fault, detail):
    """Every failure return of the checks other than `golden_files`, each
    reached by breaking the one fact it compares.  The line and RNC checks
    read `bundles.restriction_type`, the tangent check the direct scan."""
    _only_check_fails_with(capsys, monkeypatch, check, fault, detail)


@pytest.mark.parametrize(
    "check, fault, detail",
    [case for case in _BROKEN_FACTS if case[0] in ("symmetrize_dualize_commute", "property_suites")],
)
def test_split_checks_give_the_serial_detail_on_both_runners(capsys, monkeypatch, verify_runner, check, fault, detail):
    """The two checks that run half their instances in a forked child name
    the failing suite or instance that one serial pass names, whichever
    half meets it (h0_oracle and the second commute half run in the child)."""
    _only_check_fails_with(capsys, monkeypatch, check, fault, detail)


def _only_check_fails_with(capsys, monkeypatch, check, fault, detail):
    monkeypatch.setattr(verify_mod, "_CHECKS", [r for r in verify_mod._CHECKS if r[0] == check])
    fault(monkeypatch)
    assert _verify_fails_on(capsys, check) == detail


def test_verify_corpus_refuses_an_unknown_scope():
    with pytest.raises(ValueError, match="^unknown scope 'bogus'$"):
        verify_mod.corpus("bogus")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "veronese.cli", "slopes", "--n", "2", "--d", "3",
         "--format", "table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "monotonic: pass" in proc.stdout


def test_env_var_seed(capsys, monkeypatch):
    monkeypatch.setenv("VERONESE_SEED", "4")
    code, payload = _run_json(
        capsys, ["restrict", "--n", "2", "--d", "2", "--curve", "line", "--samples", "1"]
    )
    assert code == 0
    assert payload["samples"][0]["seed"] == 4
    assert payload["curve"]["seed"] == 4


def test_env_var_seed_not_integer_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("VERONESE_SEED", "abc")
    assert main(["restrict", "--n", "2", "--d", "2"]) == 3
    assert "VERONESE_SEED is not an integer: 'abc'" in capsys.readouterr().err


def test_file_curve_reads_no_seed(capsys, monkeypatch, tmp_path):
    """A curve file uses no seed, so a malformed VERONESE_SEED changes nothing."""
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"degree": 2, "forms": ["Z0^2", "Z0*Z1", "Z1^2"]}))
    argv = ["restrict", "--n", "2", "--d", "2", "--curve", "file", "--path", str(path)]
    monkeypatch.delenv("VERONESE_SEED", raising=False)
    assert main(argv) == 0
    want = capsys.readouterr()
    monkeypatch.setenv("VERONESE_SEED", "abc")
    assert main(argv) == 0
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, "")


_RECORDED = json.loads((Path(__file__).parent / "data" / "cli_outputs_v1.json").read_text())


@pytest.mark.parametrize(
    "run", _RECORDED["runs"], ids=lambda run: " ".join(run["argv"]).replace("--", "")
)
def test_cli_output_matches_recording(run, capsys, monkeypatch, tmp_path):
    """Byte-identical stdout against the recording in data/cli_outputs_v1.json;
    the file run reads the recorded non-integral curve from the working
    directory, so its path prints as 'curve.json'."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VERONESE_SEED", raising=False)
    (tmp_path / "curve.json").write_text(json.dumps(_RECORDED["curveFile"]))
    assert main(run["argv"]) == run["exit"]
    assert capsys.readouterr().out == run["stdout"]


def _fuzzed_argvs(count, tmp_path):
    """Seeded argument vectors for all four subcommands.  Each starts valid
    and most get one fault: a bad value (non-integer, negative, --d 0 or 1,
    --samples 0, an unknown --format, --curve or --scope, an unreadable
    path), a required flag dropped or left without its value, an unknown
    flag or subcommand, or a stray word.  --curve file comes without --path
    half the time.  Sizes stay at n, d <= 3 and --samples <= 2, and verify
    only ever runs the fast scope."""
    rng = SplitMix64(8128)
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"degree": 1, "forms": ["Z0", "Z1", "Z0 + Z1"]}))
    good = {
        "--n": ["1", "2", "3"],
        "--d": ["2", "3"],
        "--curve": ["line", "rnc", "file"],
        "--samples": ["1", "2"],
        "--seed": ["0", "7", "-3"],
        "--scope": ["fast"],
        "--format": ["json", "table"],
        "--out": [str(tmp_path / "out.txt")],
    }
    bad = {
        "--n": ["0", "-1", "x", "1.5", ""],
        "--d": ["0", "1", "-2", "two"],
        "--curve": ["plane"],
        "--path": [str(tmp_path / "missing.json"), str(tmp_path)],
        "--samples": ["0", "-1", "z"],
        "--seed": ["abc", "1e3"],
        "--scope": ["quick", "FAST"],
        "--format": ["xml", "", "JSON"],
        "--out": [str(tmp_path)],
    }
    flags = {
        "normal": ["--n", "--d", "--format", "--out"],
        "slopes": ["--n", "--d", "--format", "--out"],
        "restrict": ["--n", "--d", "--curve", "--path", "--samples", "--seed", "--format", "--out"],
        "verify": ["--scope", "--format", "--out"],
    }

    def pick(seq):
        return seq[rng.next_below(len(seq))]

    for _ in range(count):
        cmd = pick(list(flags))
        opts = {
            f: pick(good[f])
            for f in flags[cmd]
            if f in ("--n", "--d", "--curve") or f in good and rng.next_below(2)
        }
        if opts.get("--curve") == "file" and rng.next_below(2):
            opts["--path"] = str(curve)
        fault = rng.next_below(10)
        if fault in (3, 4, 5, 6):
            flag = pick(flags[cmd])
            opts[flag] = pick(bad[flag])
            if flag == "--path":
                opts["--curve"] = "file"
        elif fault == 7 and cmd != "verify":
            del opts[pick(["--n", "--d"])]
        argv = [cmd] + [x for item in opts.items() for x in item]
        if fault == 8:
            if rng.next_below(2) and len(argv) > 1:
                argv.pop()
            else:
                argv.insert(rng.next_int(1, len(argv)), pick(["--bogus", "-x", "--samples=", "stray"]))
        elif fault == 9:
            argv[0] = pick(["frobnicate", "", "Normal"])
        yield argv


def test_fuzzed_argument_vectors_never_crash(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("VERONESE_SEED", raising=False)
    outcomes, pairs, messages = set(), set(), []
    for argv in _fuzzed_argvs(150, tmp_path):
        pairs |= set(zip(argv, argv[1:]))
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = "argparse"
        err = capsys.readouterr().err
        assert code in (0, 2, 3, "argparse"), argv
        assert "Traceback" not in err, argv
        outcomes.add(code)
        messages.append(err)
    assert outcomes == {0, 2, 3, "argparse"}
    assert {("--d", "0"), ("--d", "1"), ("--samples", "0"), ("--format", "xml")} <= pairs
    assert any("--curve file requires --path" in err for err in messages)
