"""Command-line surface tests: report formats, exit codes, file handling."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ksets.cli import main
from ksets.setfile import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_catalog_entry(capsys):
    code, out, _ = run(capsys, "verify", "d4-18-9")
    assert code == 0
    assert out.splitlines() == [
        "valid: yes",
        "symbol: 18^1_2 - 9^4_4",
        "mode: full",
        "KS: yes",
        "parity: yes",
        "critical: yes (9/9 removals colorable)",
    ]


def test_verify_colorable_set_prints_witness(capsys, tmp_path):
    path = tmp_path / "basis.ks"
    path.write_text("dim 2\nray a 1 0\nray b 0 1\nctx a b\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    lines = out.splitlines()
    assert "KS: no" in lines
    i = lines.index("witness:")
    assert sorted(lines[i + 1:]) == ["a=1", "b=0"]


def test_verify_context_mode(capsys):
    code, out, _ = run(capsys, "verify", "d3-49-36", "--mode", "context")
    assert code == 0
    assert "mode: context" in out.splitlines()
    assert "critical: yes (36/36 removals colorable)" in out.splitlines()


def test_verify_no_critical_flag(capsys):
    code, out, _ = run(capsys, "verify", "d3-57-40", "--no-critical")
    assert code == 0
    assert not any(line.startswith("critical") for line in out.splitlines())


def test_verify_invalid_file(capsys, tmp_path):
    path = tmp_path / "broken.ks"
    path.write_text("dim 2\nray a 1 0\nctx a\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "error" in err


def test_verify_zero_denominator_scalar(capsys, tmp_path):
    path = tmp_path / "zero.ks"
    path.write_text("dim 2\nray a 1/0 0\nray b 0 1\nctx a b\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "zero denominator" in err


def test_verify_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.ks"
    path.write_bytes("dim 2\n# caf\u00e9\nray a 1 0\nray b 0 1\nctx a b\n".encode("latin-1"))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "UTF-8" in err


def test_verify_file_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.ks"
    path.write_bytes(b"\xef\xbb\xbfdim 2\nray a 1 0\nray b 0 1\nctx a b\n")
    code, out, err = run(capsys, "verify", str(path), "--no-critical")
    assert code == 1, err
    assert out.splitlines()[:5] == [
        "valid: yes", "symbol: 2^1_1 - 1^2_2", "mode: full", "KS: no", "parity: no"]


def test_verify_superscript_dimension(capsys, tmp_path):
    path = tmp_path / "sup.ks"
    path.write_text("dim ²\nray a 1 0\nray b 0 1\nctx a b\n", encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "line 1" in err


def test_python_m_ksets():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ksets", "symbol", "d4-18-9"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["compact: 18-9", "detailed: 18^1_2 - 9^4_4"]


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no-such-thing")
    assert code == 3


def test_verify_directory_is_invalid_input(capsys, tmp_path):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_symbol_command(capsys):
    code, out, _ = run(capsys, "symbol", "d8-30-9")
    assert code == 0
    assert out.splitlines() == [
        "compact: 30-9",
        "detailed: 4^2_2 2^1_4 24^1_2 - 8^8_7 1^8_8",
    ]


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "d3-49-36 d=3 49-36"
    assert lines[2] == "d4-18-9 d=4 18-9"


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "d11-40-12")
    assert code == 0
    lines = out.splitlines()
    assert "dimension: 11" in lines
    assert "critical: yes (context mode)" in lines


def test_catalog_export_parses_back(capsys):
    code, out, _ = run(capsys, "catalog", "export", "d5-29-16")
    assert code == 0
    s = parse(out)
    assert s.n_projectors == 29


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "show", "bogus")
    assert code == 3


def test_construct_scale(capsys):
    code, out, _ = run(capsys, "construct", "scale", "d6-21-7", "2")
    assert code == 0
    s = parse(out)
    assert s.dimension == 12
    assert s.n_projectors == 21


def test_construct_scale_names_its_output(capsys):
    code, out, _ = run(capsys, "construct", "scale", "d6-21-7", "2")
    assert code == 0
    assert out.splitlines()[0] == "# d6-21-7(scale2)"


def test_construct_scale_too_large_is_invalid_input(capsys):
    code, out, err = run(capsys, "construct", "scale", "d4-18-9", "1000000000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: scaling by 1000000000000 makes ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("scale", "d4-18-9", "2"),
    ("ceg", "d6-21-7", "7"),
    ("matsuno", "d4-18-9", "5"),
    ("pz-basic", "d4-18-9", "d6-21-7"),
])
def test_construct_pairing_only_for_pz(capsys, argv):
    code, out, err = run(capsys, "construct", *argv, "--pairing", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: --pairing applies to construct pz only, not {argv[0]}\n"


def test_construct_pz_default_pairing(capsys):
    code, out, _ = run(capsys, "construct", "pz", "d4-18-9", "d6-21-7")
    assert code == 0
    s = parse(out)
    assert (s.n_projectors, s.n_contexts) == (39, 9)


def test_construct_pz_explicit_pairing(capsys):
    code, out, _ = run(
        capsys, "construct", "pz", "d4-18-9", "d6-21-7",
        "--pairing", "1,2,3,4,5,6,7,1,1",
    )
    assert code == 0
    s = parse(out)
    assert (s.n_projectors, s.n_contexts) == (39, 9)


def test_construct_pz_rejects_bad_pairing(capsys):
    code, _, err = run(
        capsys, "construct", "pz", "d4-18-9", "d6-21-7",
        "--pairing", "1,2,3,4,5,6,7,1,2",
    )
    assert code == 3


@pytest.mark.parametrize("pairing", ["", "1,x"])
def test_construct_pz_rejects_malformed_pairing(capsys, pairing):
    code, out, err = run(
        capsys, "construct", "pz", "d4-18-9", "d6-21-7", "--pairing", pairing)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: --pairing takes a comma list of integers, got {pairing!r}\n")


@pytest.mark.parametrize("argv, message", [
    (("scale", "d4-18-9"), "construct scale takes SET N, got 1 argument(s)"),
    (("pz", "d4-18-9"), "construct pz takes SET SET, got 1 argument(s)"),
    (("ceg", "d6-21-7", "7", "8"), "construct ceg takes SET D, got 3 argument(s)"),
    (("scale", "d4-18-9", "x"), "N must be an integer, got 'x'"),
    (("matsuno", "d4-18-9", "5.0"), "D must be an integer, got '5.0'"),
])
def test_construct_checks_its_operands(capsys, argv, message):
    code, out, err = run(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_construct_matsuno(capsys):
    code, out, _ = run(capsys, "construct", "matsuno", "d4-18-9", "5")
    assert code == 0
    s = parse(out)
    assert (s.n_projectors, s.n_contexts) == (29, 16)


def test_construct_ceg(capsys):
    code, out, _ = run(capsys, "construct", "ceg", "d6-21-7", "7")
    assert code == 0
    s = parse(out)
    assert (s.n_projectors, s.n_contexts) == (45, 15)


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "d6-21-7")
    assert code == 0
    s = parse(out)
    assert s.n_contexts == 7


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "10")
    assert code == 0
    lines = out.splitlines()
    assert "d=10 10n general=30-9 rank1=39-9 critical" in lines
    assert all(line.startswith("d=10 ") for line in lines)


def test_table_odd_dimension_rows(capsys):
    code, out, _ = run(capsys, "table", "7")
    lines = out.splitlines()
    assert "d=7 7n general=32-12 rank1=32-12 critical" in lines
    assert "d=7 2n+5 general=45-15 rank1=- noncritical" in lines


def test_export_cnf(capsys):
    code, out, _ = run(capsys, "export-cnf", "d4-18-9")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("c")]
    assert lines[0] == "p cnf 18 72"


def test_export_cnf_context_mode(capsys):
    code, out, _ = run(capsys, "export-cnf", "d4-18-9", "--mode", "context")
    assert code == 0
    assert "p cnf 18 63" in out


def test_pipeline_export_then_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "matsuno", "d6-21-7-basis", "7")
    assert code == 0
    path = tmp_path / "m7.ks"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", str(path), "--no-critical")
    assert code == 0
    assert "KS: yes" in out.splitlines()
