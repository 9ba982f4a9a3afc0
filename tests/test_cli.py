"""CLI subcommands, JSON outputs, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from irredcert.cli import main
from irredcert.reps import load_rep

DATA = str(pathlib.Path(__file__).resolve().parents[1] / "data")


def _f3_doc(entry):
    return {"ring": {"ring": "Fp", "p": 3}, "dim": 2,
            "generators": [[[entry, "0"], ["0", "1"]]]}


# rep documents that once escaped the loaders as TypeError or KeyError
MALFORMED_REPS = {
    "dim_is_a_list": {"ring": "Q", "dim": [2],
                      "generators": [[["1", "0"], ["0", "1"]]]},
    "null_generator": {"ring": "Q", "dim": 2, "generators": [None]},
    "null_entry_f3": _f3_doc(None),
    "true_entry_f3": _f3_doc(True),
    "float_entry_f3": _f3_doc(1.5),
    "bare_fp_ring": {"ring": "Fp", "dim": 1, "generators": [[["1"]]]},
    # exponents above rings.MAX_EXPONENT, which once hung the loader
    "huge_exponent_zt": {"ring": "Z[t]", "dim": 1,
                         "generators": [[["t^1000000"]]]},
    "huge_exponent_qt": {"ring": "Q(t)", "dim": 1,
                         "generators": [[["(1)/(t^1000000+1)"]]]},
    "huge_exponent_fq": {"ring": {"ring": "Fq", "p": 2, "modulus": [1, 1, 1]},
                         "dim": 1, "generators": [[["x^99999999"]]]},
    # integers that int() would once truncate or read as 0 or 1
    "fractional_dim": {"ring": "Q", "dim": 2.5,
                       "generators": [[["1", "0"], ["0", "1"]]]},
    "true_dim": {"ring": "Q", "dim": True, "generators": [[["1"]]]},
    "fractional_p": {"ring": {"ring": "Fp", "p": 7.9}, "dim": 1,
                     "generators": [[["1"]]]},
    "fractional_modulus": {"ring": {"ring": "Fq", "p": 2,
                                    "modulus": [1.9, 1, 1.2]},
                           "dim": 1, "generators": [[["1"]]]},
    "fractional_letter": {"ring": "Q", "dim": 1, "generators": [[["1"]]],
                          "relations": [[[0.9, 1.5]]]},
}
# polynomial text that ends where the grammar needs another token, which
# once escaped the loader as IndexError: over Z[t], Q(t) and F_q, whose
# variable is x
MALFORMED_REPS.update(
    ("truncated_%d_%s" % (i, tag),
     {"ring": ring, "dim": 1, "generators": [[[entry.replace("t", var)]]]})
    for i, entry in enumerate(["t^", "2*", "1/", "t+", "-", "t^2*"])
    for tag, ring, var in (
        ("zt", "Z[t]", "t"), ("qt", {"ring": "Q(t)", "var": "t"}, "t"),
        ("fq", {"ring": "Fq", "p": 2, "modulus": [1, 1, 1]}, "x")))


def _f7_doc(entry):
    """Unitriangular generators over F_7 with the entry above the
    diagonal, beside strings the loader reads in one match."""
    return {"ring": {"ring": "Fp", "p": 7}, "dim": 3,
            "generators": [[["1", entry, "+2"], ["0", "1", " 3"],
                            ["0", "0", "1"]],
                           [["1", "0", "0"], ["1", "1", "0"],
                            ["0", "0", "1"]]]}


# F_p entries as PrimeField.parse reads them: a sign, blanks that strip
# drops (\x1c among them, which int alone does not), any Unicode decimal
# digits; and values mod 7
FP_ACCEPTED = [("+5", 5), ("-0", 0), (" 7 ", 0), ("-1", 6),
               ("\u0663", 3), ("\uff15", 5), ("\x1c4\x1c", 4)]
FP_REJECTED = ["1_0", "", "1.0", "1/2", "0x1", "\u00b2", "1,2", "+-1",
               1.5, True, False, None, [1]]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCertifyCommand:

    def test_s3_certifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"] == "IrreducibleCertified"
        assert doc["rule"] == "RegularOnePrime"

    def test_restricted_primes_inconclusive_exit_2(self, capsys):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json",
                           "--primes", "3")
        assert code == 2
        doc = json.loads(out)
        assert doc["conclusion"] == "Inconclusive"

    def test_prime_spec_strings(self, capsys):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3_qt.json",
                           "--primes", "(t-0)")
        assert code == 0
        assert json.loads(out)["rule"] == "HeightOneFamily"

    def test_maximal_pair_commas_survive_splitting(self, capsys):
        # the pair "(2,t-0)" contains a comma; the list splitter must not
        # cut inside parentheses
        code, out, _ = run(capsys, "certify", f"{DATA}/s3_qt.json",
                           "--primes", "(2,t-0),(3,t-1)")
        assert code == 0
        doc = json.loads(out)
        assert doc["rule"] == "RegularOnePrime"
        assert doc["steps"][0]["prime"] == "(2,t-0)"

    def test_oracle_flag(self, capsys):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"][0]["oracle_count"] == 2

    def test_q8_exit_2(self, capsys):
        code, out, _ = run(capsys, "certify", f"{DATA}/q8.json")
        assert code == 2

    def test_reducible_decided_exit_0(self, capsys, tmp_path):
        rep = {"ring": "Q", "dim": 2,
               "generators": [[["1", "1"], ["0", "1"]]],
               "relations": [], "label": "shear"}
        path = tmp_path / "shear.json"
        path.write_text(json.dumps(rep))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"] == "ReducibleWithWitness"
        assert doc["witness"] == [["1", "0"]]


class TestVerifyCommand:

    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert_path), f"{DATA}/s3.json")
        assert code == 0
        assert json.loads(out)["verified"] is True

    def test_tampered_exit_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json")
        doc = json.loads(out)
        doc["steps"][0]["prime"] = "(7)"
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(cert_path), f"{DATA}/s3.json")
        assert code == 1
        assert json.loads(out)["verified"] is False

    def test_wrong_rep_exit_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", f"{DATA}/s3.json")
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        code, out, _ = run(capsys, "verify", str(cert_path), f"{DATA}/s4.json")
        assert code == 1


class TestReduceCommand:

    def test_mod_three(self, capsys):
        code, out, _ = run(capsys, "reduce", f"{DATA}/s3.json",
                           "--prime", "(3)")
        assert code == 0
        doc = json.loads(out)
        assert doc["ring"] == {"ring": "Fp", "p": 3}
        assert doc["generators"][0] == [["0", "2"], ["1", "2"]]
        assert doc["prime"] == "(3)"

    def test_bad_prime_exit_1(self, capsys):
        code, out, err = run(capsys, "reduce", f"{DATA}/s3.json",
                             "--prime", "(4)")
        assert code == 1
        assert json.loads(err)["error"] == "BadPrime"

    def test_non_unit_determinant_exit_1(self, capsys):
        # sqrt2's generator has determinant -2: no lattice, no reduction
        code, out, err = run(capsys, "reduce", f"{DATA}/sqrt2.json",
                             "--prime", "(3)")
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "IntegralityError",
            "detail": "generator 0 has determinant -2, not \u00b11, so no "
                      "lattice is stable under the group it generates"}

    def test_zt_tower(self, capsys):
        code, out, _ = run(capsys, "reduce", f"{DATA}/s3_qt.json",
                           "--prime", "(2,t-0)")
        assert code == 0
        doc = json.loads(out)
        assert doc["ring"] == {"ring": "Fp", "p": 2}


class TestMeataxeCommand:

    def test_reduced_rep_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", f"{DATA}/s3.json",
                           "--prime", "(3)")
        red = tmp_path / "red.json"
        red.write_text(out)
        code, out, _ = run(capsys, "meataxe", str(red))
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "reducible"
        assert doc["witness"] == [["1", "2"]]

    def test_over_q(self, capsys):
        code, out, _ = run(capsys, "meataxe", f"{DATA}/s3.json")
        assert code == 0
        assert json.loads(out)["status"] == "irreducible"

    def test_inconclusive_exit_2(self, capsys):
        code, out, _ = run(capsys, "meataxe", f"{DATA}/q8.json")
        assert code == 2
        assert json.loads(out)["status"] == "inconclusive"

    @pytest.mark.parametrize("command,key,answer", [
        ("meataxe", "status", "reducible"),
        ("certify", "conclusion", "ReducibleWithWitness"),
    ])
    def test_large_diagonal_over_q(self, tmp_path, command, key, answer):
        # every characteristic polynomial has a 24-digit constant term, on
        # which a rational-root search over its divisors never ends
        diag = ["1000003", "1000033", "1000037", "1000039"]
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({
            "ring": "Q", "dim": 4,
            "generators": [[[a if i == j else "0" for j in range(4)]
                            for i, a in enumerate(diag)]]}))
        proc = subprocess.run([sys.executable, "-m", "irredcert.cli",
                               command, str(path)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[key] == answer


class TestObstructionCommand:

    def test_s3_mod_5(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", f"{DATA}/s3.json",
                           "--prime", "(5)")
        red = tmp_path / "red.json"
        red.write_text(out)
        code, out, _ = run(capsys, "obstruction", str(red))
        assert code == 0
        doc = json.loads(out)
        assert doc["schur_dim"] == 1
        assert doc["d2"] == 0
        assert doc["unobstructed"] is True
        assert doc["universal_deformation_irreducible"] is True

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ["s3", "s3_scaled", "d4", "q8", "s4"])
    def test_corpus_reduced(self, capsys, tmp_path, name, p):
        code, out, _ = run(capsys, "reduce", f"{DATA}/{name}.json",
                           "--prime", "(%d)" % p)
        assert code == 0
        red = tmp_path / "red.json"
        red.write_text(out)
        code, out, _ = run(capsys, "obstruction", str(red))
        assert code == 0
        doc = json.loads(out)
        assert doc["d0"] == doc["schur_dim"]
        if doc["group_order"] % p:
            assert doc["d1"] == doc["d2"] == 0
        if name == "s4":
            # H^2 at p = 2 checked once as H^1(G, CoInd(M)/M)
            expect = {2: (1, 1, 2), 3: (1, 0, 0), 5: (1, 0, 0)}[p]
            assert (doc["d0"], doc["d1"], doc["d2"]) == expect


class TestOracleCommand:

    def test_s3_mod_3(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reduce", f"{DATA}/s3.json",
                           "--prime", "(3)")
        red = tmp_path / "red.json"
        red.write_text(out)
        code, out, _ = run(capsys, "oracle", str(red))
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["irreducible"] is False

    def test_rejects_infinite_field(self, capsys):
        code, out, err = run(capsys, "oracle", f"{DATA}/s3.json")
        assert code == 1
        assert "error" in json.loads(err)


class TestErrorsAndPlumbing:

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "certify", "no/such/file.json")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "certify", str(bad))
        assert code == 1

    @pytest.mark.parametrize("command", ["meataxe", "certify", "obstruction"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_REPS))
    def test_malformed_rep_exit_1(self, capsys, tmp_path, command, case):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(MALFORMED_REPS[case]))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert set(json.loads(err)) == {"error", "detail"}
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("entry,value", FP_ACCEPTED)
    def test_fp_entries_read_as_before(self, capsys, tmp_path, entry, value):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(_f7_doc(entry)))
        gen = load_rep(str(path)).generators[0]
        assert gen.entries == (1, value, 2, 0, 1, 3, 0, 0, 1)
        code, out, err = run(capsys, "meataxe", str(path))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("entry", FP_REJECTED)
    def test_fp_entries_rejected_exit_1(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_f7_doc(entry)))
        code, out, err = run(capsys, "meataxe", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("argv,kind", [
        (["certify", "{deep}"], "representation"),
        (["meataxe", "{deep}"], "representation"),
        (["verify", "{deep}", "{data}/s3.json"], "certificate"),
        (["verify", "{golden}/s3.cert.json", "{deep}"], "representation")])
    def test_deeply_nested_document_exit_1(self, capsys, tmp_path, argv,
                                           kind):
        # json.load raises RecursionError on 100,000 nested brackets
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        golden = pathlib.Path(__file__).resolve().parent / "golden"
        code, out, err = run(capsys, *[a.format(deep=deep, data=DATA,
                                                golden=golden)
                                       for a in argv])
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "detail": "%s document is nested too deeply" % (kind,)}
        assert out == ""

    def test_options_do_not_leak_between_calls(self, capsys):
        # main reuses one parser; each call must start from its defaults
        s3 = f"{DATA}/s3.json"
        code, out, _ = run(capsys, "certify", "--seed", "5", "--budget", "7",
                           "--primes", "5", "--oracle", s3)
        assert code == 0
        assert json.loads(out)["config"] == {
            "budget": 7, "oracle": True, "primes": [5], "seed": 5}
        code, out, _ = run(capsys, "certify", s3)
        assert code == 0
        assert json.loads(out)["config"] == {
            "budget": 200, "oracle": False, "primes": None, "seed": 0}
        code, out, _ = run(capsys, "meataxe", "--seed", "3", s3)
        assert json.loads(out)["transcript"]["seed"] == 3
        code, out, _ = run(capsys, "meataxe", s3)
        assert json.loads(out)["transcript"]["seed"] == 0

    def test_import_leaves_numpy_out(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        code = ("import sys; sys.path.insert(0, %r); "
                "import irredcert, irredcert.cli; "
                "print('numpy' in sys.modules)" % src)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "irredcert.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "irredcert" in proc.stdout
