from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

import pytest

import somos.cli
from somos import SequenceBuffer, emit_bfile, emit_report_json, generate, somos_k_spec
from somos.cli import main

from helpers import first_fractional_index, somos_terms

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "b006721.txt"
FIRST_TWELVE = ["1", "1", "1", "1", "1", "2", "3", "5", "11", "37", "83", "274"]


class TestGenerate:
    def test_default_emits_twelve_terms(self, capsys):
        assert main(["generate"]) == 0
        assert capsys.readouterr().out.split() == FIRST_TWELVE

    def test_count_five(self, capsys):
        assert main(["generate", "--count", "5"]) == 0
        assert capsys.readouterr().out.split() == ["1"] * 5

    def test_somos8_integer_mode_fails_with_witness(self, capsys):
        failing = first_fractional_index(somos_terms(8, 30))
        assert main(["generate", "--k", "8", "--count", "100", "--mode", "integer"]) == 1
        out = capsys.readouterr().out
        assert f"non-integral term at index {failing}" in out
        assert "remainder" in out

    def test_somos8_rational_mode_shows_fraction(self, capsys):
        assert main(["generate", "--k", "8", "--count", "20", "--mode", "rational"]) == 0
        assert "/" in capsys.readouterr().out

    def test_bfile_output_to_file(self, tmp_path, capsys):
        target = tmp_path / "somos5.txt"
        assert main(["generate", "--count", "12", "--format", "bfile", "--output", str(target)]) == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "0 1"
        assert lines[-1] == "11 274"

    def test_json_format(self, capsys):
        assert main(["generate", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "terms"
        assert payload["terms"] == FIRST_TWELVE

    @pytest.mark.parametrize("fmt", ["text", "json", "bfile"])
    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_count_below_the_order_prints_the_first_initials(self, capsys, count, fmt):
        assert main(["generate", "--count", str(count), "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            assert json.loads(captured.out) == {
                "schema_version": "1",
                "kind": "terms",
                "name": "somos-5",
                "start_index": 0,
                "terms": ["1"] * count,
            }
        elif fmt == "bfile":
            assert captured.out == "".join(f"{n} 1\n" for n in range(count))
        else:
            assert captured.out == "1\n" * count

    @pytest.mark.parametrize("fmt", ["text", "json", "bfile"])
    def test_negative_count_is_a_usage_error(self, capsys, fmt):
        assert main(["generate", "--count", "-2", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: count must be non-negative, got -2\n")

    def test_k_below_four_is_usage_error(self, capsys):
        assert main(["generate", "--k", "3"]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_small_range_passes(self, capsys):
        assert main(["verify", "--count", "50"]) == 0
        out = capsys.readouterr().out
        assert "coprime-window" in out and "pass" in out

    def test_depth_one(self, capsys):
        assert main(["verify", "--count", "10", "--depth", "1"]) == 0

    def test_json_report(self, capsys):
        assert main(["verify", "--count", "30", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "verification_report"
        assert payload["passed"] is True

    def test_clean_bfile_input_passes(self, capsys):
        assert main(["verify", "--input", str(FIXTURE), "--count", "100"]) == 0

    def test_corrupted_bfile_fails_with_witness(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        index, value = lines[40].split()
        lines[40] = f"{index} {int(value) + 1}"
        corrupted = tmp_path / "corrupted.txt"
        corrupted.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", "--input", str(corrupted), "--count", "100"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "first failure" in out

    def test_nonstandard_order_notes_scope_and_reports_honestly(self, capsys):
        # the coprimality claim is specific to order 5: somos-6 has
        # gcd(a_8, a_6) = 3, so the verifier must flag scope AND fail loudly
        assert main(["verify", "--k", "6", "--count", "40"]) == 1
        captured = capsys.readouterr()
        assert "note:" in captured.err
        assert "first failure" in captured.out
        # every CLI spec has all-ones initials, so order 5 is in scope
        assert main(["verify", "--k", "5", "--count", "40"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "name, argv",
        [
            (None, ["--count", "30", "--depth", "0"]),
            ("tail", ["--count", "30", "--depth", "0"]),
            ("empty", ["--depth", "-2"]),
        ],
        ids=["generated", "tail-30", "empty"],
    )
    def test_depth_below_one_is_a_usage_error(self, tmp_path, capsys, name, argv):
        # On "tail" with --count 30 no window runs, and depth 0 used to pass.
        source = [] if name is None else ["--input", TestCrosscheck._write_input(tmp_path, name)]
        depth = argv[argv.index("--depth") + 1]
        assert main(["verify"] + source + argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: depth must be at least 1, got {depth}\n")

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        assert main(["verify", "--input", str(tmp_path / "absent.txt")]) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_range_below_window_start_is_empty(self, capsys, fmt):
        assert main(["verify", "--count", "6", "--depth", "10", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["start"], payload["stop"], payload["checked"]) == (6, 6, 0)
            assert payload["passed"] is True
        else:
            assert out == (
                "note: range below coprime window start (n = 10); zero windows\n"
                "coprime-window over n in [6, 6): 0 checked, pass\n"
            )

    @pytest.mark.parametrize("count", ["0", "3", "4", "5"])
    @pytest.mark.parametrize("extra", [[], ["--depth", "1"], ["--format", "json"]])
    def test_count_below_the_order_matches_the_fixture(self, capsys, count, extra):
        # Generated input covers n < count as the fixture does, even below the order.
        outputs = []
        for source in ([], ["--input", str(FIXTURE)]):
            assert main(["verify", "--count", count] + source + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if not extra and count != "5":
            assert outputs[0] == (
                "note: range below coprime window start (n = 4); zero windows\n"
                f"coprime-window over n in [{count}, {count}): 0 checked, pass\n"
            )

    @pytest.mark.parametrize("count", ["-1", "-5"])
    def test_negative_count_is_a_usage_error(self, capsys, count):
        assert main(["verify", "--count", count]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: count must be non-negative, got {count}\n")

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["--count", "300"], 0, "43ebe5bb8cf865606a712ae11c7186d2ed05abe3be31d628a90509d10f50376c"),
            (
                ["--count", "300", "--format", "json"],
                0,
                "99a3102ffbbf9be0a01f094c6df3d310e30b1eb42cd5e7b7854326ee9aa75f6a",
            ),
            (
                ["--count", "300", "--depth", "1"],
                0,
                "020ef4b13b6604402e4d2ed0bcbdce2b9d7f30bbac742a9fb00a800b6deb68a5",
            ),
            (
                ["--count", "300", "--depth", "2"],
                0,
                "b623cd6a08a42efb208b91cecf306a67b3186bb32190c9a1e5e708c836591a5d",
            ),
            (
                ["--count", "300", "--depth", "5"],
                0,
                "2ccbf8efbf34d3192cb1732732a14f81a40fe2fa21d05ef1be4d0800b3627d66",
            ),
            (
                ["--count", "300", "--k", "4"],
                0,
                "43ebe5bb8cf865606a712ae11c7186d2ed05abe3be31d628a90509d10f50376c",
            ),
            (
                ["--count", "300", "--k", "6"],
                1,
                "f9af2aed504ebf86d7ec257edef03fbf5e3d026a96f71140040b3eeb339951ae",
            ),
            (["--input", "fixture"], 0, "b327afa52591c4000e52f797803e360a8dea72ea6ca41f129518a05997cb87e8"),
            (["--input", "corrupted"], 1, "4839a714d8284b4fefea5c22ec02975048d6233c7c78c250d3e6a5fedc41cc48"),
            (
                ["--input", "tail", "--format", "json"],
                0,
                "2a089eb867e6dcf53aed5346f037081dccf6783051ceec4c493a72297537df99",
            ),
        ],
    )
    def test_output_is_byte_stable(self, tmp_path, capsys, argv, code, digest):
        # SHA-256 of stdout, frozen from windows that compute every gcd.
        # "corrupted" adds 1 to the fixture's a_40; "tail" starts it at n = 50.
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        index, value = lines[40].split()
        files = {
            "fixture": lines,
            "corrupted": lines[:40] + [f"{index} {int(value) + 1}"] + lines[41:],
            "tail": lines[50:],
        }
        if "--input" in argv:
            name = argv[1]
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(files[name]) + "\n", encoding="utf-8")
            argv = ["--input", str(path)] + argv[2:]
        assert main(["verify"] + argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_report_equals_the_two_stage_composition(self, tmp_path, capsys, two_stage_verify, k):
        spec = somos_k_spec(k)
        clean = generate(spec, 60).values()
        path = tmp_path / "terms.txt"
        for m, start in ((None, 0), (7, 0), (33, 0), (33, 20), (59, 41)):
            values = list(clean)
            if m is not None:
                values[m] += 1
            buffer = SequenceBuffer(values[start:], start_index=start)
            path.write_text(emit_bfile(buffer), encoding="utf-8")
            for depth in (1, 4, 6, 10):
                argv = ["verify", "--k", str(k), "--input", str(path), "--depth", str(depth)]
                code = main(argv + ["--format", "json"])
                expected = two_stage_verify(buffer, spec, depth)
                assert capsys.readouterr().out == emit_report_json(expected) + "\n"
                assert code == (0 if expected.passed else 1)

    def test_identity_violation_outranks_an_earlier_window_failure(self, tmp_path, capsys):
        # Somos-6 windows first fail at n = 8 (gcd(a_8, a_6) = 3)
        values = generate(somos_k_spec(6), 40).values()
        values[30] += 1
        path = tmp_path / "somos6.txt"
        path.write_text(emit_bfile(SequenceBuffer(values)), encoding="utf-8")
        assert main(["verify", "--k", "6", "--input", str(path)]) == 1
        assert capsys.readouterr().out == (
            "recurrence-identity over n in [6, 40): 25 checked, FAIL; "
            "first failure at n = 30 (a_n * a_{n-k} != bilinear sum)\n"
        )

    def test_identity_count_on_a_negative_start_index(self, tmp_path, capsys):
        # The fixture's first 60 terms re-indexed from -7, with the term
        # at n = 23 tripled: the identity is walked from n = 5, so the
        # failure at n = 23 is the 19th index checked.
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()[:60]
        values = [int(line.split()[1]) for line in lines]
        values[23 + 7] *= 3
        path = tmp_path / "negative.txt"
        path.write_text("".join(f"{m - 7} {v}\n" for m, v in enumerate(values)), encoding="utf-8")
        assert main(["verify", "--input", str(path)]) == 1
        assert capsys.readouterr().out == (
            "recurrence-identity over n in [5, 53): 19 checked, FAIL; "
            "first failure at n = 23 (a_n * a_{n-k} != bilinear sum)\n"
        )


class TestCertify:
    def test_single_certificate_range(self, capsys):
        assert main(["certify", "--count", "11"]) == 0
        out = capsys.readouterr().out
        assert "1 checked" in out and "pass" in out

    def test_below_start_is_a_note_not_an_error(self, capsys):
        assert main(["certify", "--count", "9"]) == 0
        out = capsys.readouterr().out
        assert "range below certificate start" in out
        assert "0 checked" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_range_below_start_is_clamped_to_stop(self, capsys, fmt):
        assert main(["certify", "--count", "3", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["start"], payload["stop"], payload["checked"]) == (3, 3, 0)
            assert payload["passed"] is True
        else:
            assert out == (
                "note: range below certificate start (n = 10); zero certificates\n"
                "certificate over n in [3, 3): 0 checked, pass\n"
            )

    @pytest.mark.parametrize("argv", [["--count", "-5"], ["--count", "-1", "--format", "json"]])
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        assert main(["certify"] + argv) == 2
        captured = capsys.readouterr()
        count = argv[1]
        assert (captured.out, captured.err) == ("", f"error: count must be non-negative, got {count}\n")

    def test_single_index_json(self, capsys):
        assert main(["certify", "--index", "10", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["index"] == 10

    def test_moderate_range(self, capsys):
        assert main(["certify", "--count", "60"]) == 0
        assert "50 checked" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "index, digest",
        [
            (10, "c5249cf108052f155b077148fb15257fdcc35de44be4eacbd17d356201cd1da3"),
            (57, "6d50df455600b81e7a51b78dd0d321abc1f6a1faf6849c4db6cc6d2b3651dac1"),
            (200, "9c7d1cef991f76b47d75e392c7b223c9a2b3e5ebe011f670c78cfbc43330bf9b"),
        ],
    )
    def test_single_index_json_is_byte_stable(self, capsys, index, digest):
        # SHA-256 of stdout, frozen from the term-by-term chain evaluation.
        assert main(["certify", "--index", str(index), "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestLemmas:
    def test_default_seed_passes(self, capsys):
        assert main(["lemmas", "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert out.count("0 counterexamples") == 4

    def test_zero_samples_vacuous(self, capsys):
        assert main(["lemmas", "--samples", "0"]) == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--samples", "-1"], "samples must be non-negative, got -1"),
            (["--bound", "0"], "bound must be at least 1, got 0"),
        ],
    )
    def test_no_sample_can_be_drawn_is_a_usage_error(self, capsys, argv, message):
        assert main(["lemmas"] + argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_json_format(self, capsys):
        assert main(["lemmas", "--samples", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_seeded_output_reproduces(self, capsys):
        assert main(["lemmas", "--samples", "200", "--seed", "9", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["lemmas", "--samples", "200", "--seed", "9", "--format", "json"]) == 0
        assert capsys.readouterr().out == first


class TestScan:
    def test_somos4_clean(self, capsys):
        assert main(["scan", "--k", "4", "--count", "60"]) == 0
        out = capsys.readouterr().out
        assert "all terms integral" in out

    def test_somos8_breakdown_exits_1(self, capsys):
        assert main(["scan", "--k", "8", "--count", "50"]) == 1
        assert "non-integral term at index" in capsys.readouterr().out

    def test_integrality_only(self, capsys):
        assert main(["scan", "--k", "8", "--count", "50", "--depth", "0"]) == 1

    def test_json_format(self, capsys):
        assert main(["scan", "--k", "5", "--count", "50", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "breakdown_report"

    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["scan", "--k", "5", "--count", "40", "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: depth must be at least 1, got -1\n")

    @pytest.mark.parametrize("count, k", [("3", "5"), ("-1", "5"), ("6", "7")])
    def test_count_below_the_order_names_the_flag(self, capsys, count, k):
        assert main(["scan", "--k", k, "--count", count]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: --count must be at least the order {k}, got {count}\n",
        )


class TestCrosscheck:
    def test_fixture_matches(self, capsys):
        assert main(["crosscheck", "--input", str(FIXTURE), "--count", "200"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_truncated_fixture_passes_over_overlap(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()[:50]
        partial = tmp_path / "partial.txt"
        partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["crosscheck", "--input", str(partial), "--count", "200"]) == 0

    def test_altered_digit_fails_at_index(self, tmp_path, capsys):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        index, value = lines[25].split()
        lines[25] = f"{index} {int(value) + 1}"
        altered = tmp_path / "altered.txt"
        altered.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["crosscheck", "--input", str(altered)]) == 1
        assert "first failure at n = 25" in capsys.readouterr().out

    def test_empty_fixture(self, tmp_path, capsys):
        # An empty file is the empty range [0, 0), reported like any other range.
        empty = self._write_input(tmp_path, "empty")
        for count in ([], ["--count", "0"], ["--count", "30"]):
            assert main(["crosscheck", "--input", empty] + count) == 0
            assert capsys.readouterr().out == "crosscheck over n in [0, 0): 0 checked, pass\n"
            assert main(["crosscheck", "--input", empty, "--format", "json"] + count) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["kind"] == "verification_report"
            assert (payload["check"], payload["start"], payload["stop"]) == ("crosscheck", 0, 0)
            assert (payload["checked"], payload["passed"]) == (0, True)

    @staticmethod
    def _write_input(tmp_path, name):
        # "altered" adds 1 to the fixture's a_25; "tail" starts it at n = 50;
        # "negative" re-indexes its first six terms from -2; "empty" has no entry.
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        index, value = lines[25].split()
        files = {
            "fixture": lines,
            "altered": lines[:25] + [f"{index} {int(value) + 1}"] + lines[26:],
            "tail": lines[50:],
            "negative": [f"{m - 2} {line.split()[1]}" for m, line in enumerate(lines[:6])],
            "empty": ["# nothing"],
        }
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(files[name]) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (
                ["fixture", "--count", "200"],
                0,
                "c8c06d2d8508ba9f9e2cdea22f7dfe9b7a2a3c89e143dc94282262b10a437fd9",
            ),
            (
                ["fixture", "--count", "200", "--format", "json"],
                0,
                "cda59a9da830cf9e87881b699c942431f98e9eaccf4501dd4b60585832d4a52b",
            ),
            (["altered"], 1, "fe0704a1a381590907b9b92387108d458d908557b132423c61cc0e49f7bfefef"),
            (
                ["altered", "--format", "json"],
                1,
                "1f00aef8e755151ca8dd00bc4162e4e434e387e91ee704b7954332b5f85f3d78",
            ),
            (["tail"], 0, "c1afe834b817036753f3c8996dd0546eeb966063500b7cd4cce462caa174fd13"),
            (["negative"], 1, "3bbbfa9def6613b72e8b3e8e1872ed51e926009e9fe33e3018bfa50e207095d1"),
        ],
    )
    def test_output_is_byte_stable(self, tmp_path, capsys, argv, code, digest):
        # SHA-256 of stdout, frozen from the entry-by-entry comparison loop.
        path = self._write_input(tmp_path, argv[0])
        assert main(["crosscheck", "--input", path] + argv[1:]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, count, generated",
        [
            ("fixture", [], 200),
            ("fixture", ["--count", "900"], 200),
            ("fixture", ["--count", "3"], 3),
            ("tail", ["--count", "80"], 80),
            ("tail", ["--count", "30"], 30),
        ],
    )
    def test_generates_only_up_to_the_compared_stop(
        self, tmp_path, capsys, monkeypatch, name, count, generated
    ):
        # A --count past the end of the file compares nothing more, so it
        # generates nothing more.
        counts = []
        original = somos.cli.generate
        monkeypatch.setattr(
            somos.cli, "generate", lambda spec, n, mode: counts.append(n) or original(spec, n, mode)
        )
        assert main(["crosscheck", "--input", self._write_input(tmp_path, name)] + count) == 0
        assert counts == [generated]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_file_past_the_count_is_clamped_to_stop(self, tmp_path, capsys, fmt):
        path = self._write_input(tmp_path, "tail")
        assert main(["crosscheck", "--input", path, "--count", "30", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["start"], payload["stop"], payload["checked"]) == (30, 30, 0)
            assert payload["passed"] is True
        else:
            assert out == "crosscheck over n in [30, 30): 0 checked, pass\n"


class TestCountOnBfileInput:
    """--count bounds the indices n < count in verify and crosscheck alike."""

    @pytest.mark.parametrize(
        "name, count, verify_out, crosscheck_out",
        [
            (
                "tail",
                "30",
                "note: range below coprime window start (n = 54); zero windows\n"
                "coprime-window over n in [30, 30): 0 checked, pass\n",
                "crosscheck over n in [30, 30): 0 checked, pass\n",
            ),
            (
                "tail",
                "52",
                "note: range below coprime window start (n = 54); zero windows\n"
                "coprime-window over n in [52, 52): 0 checked, pass\n",
                "crosscheck over n in [50, 52): 2 checked, pass\n",
            ),
            (
                "tail",
                "80",
                "coprime-window over n in [54, 80): 26 checked, pass\n",
                "crosscheck over n in [50, 80): 30 checked, pass\n",
            ),
            (
                "fixture",
                "3",
                "note: range below coprime window start (n = 4); zero windows\n"
                "coprime-window over n in [3, 3): 0 checked, pass\n",
                "crosscheck over n in [0, 3): 3 checked, pass\n",
            ),
        ],
        ids=["tail-30", "tail-52", "tail-80", "fixture-3"],
    )
    def test_count_is_an_index_bound(self, tmp_path, capsys, name, count, verify_out, crosscheck_out):
        # "tail" is the fixture from n = 50 on; the note names its first window
        # whether or not the file starts past the count.
        path = TestCrosscheck._write_input(tmp_path, name)
        for command, expected in (("verify", verify_out), ("crosscheck", crosscheck_out)):
            assert main([command, "--input", path, "--count", count]) == 0
            assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name", ["tail", "fixture", "empty"])
    def test_negative_count_is_a_usage_error(self, tmp_path, capsys, name):
        path = TestCrosscheck._write_input(tmp_path, name)
        for command in ("verify", "crosscheck"):
            assert main([command, "--input", path, "--count", "-5"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: count must be non-negative, got -5\n")


SOMOS8_AT_30 = {
    "generate": ["generate", "--k", "8", "--count", "30"],
    "verify": ["verify", "--k", "8", "--count", "30"],
    "crosscheck": ["crosscheck", "--k", "8", "--input", str(FIXTURE)],
}


class TestNonIntegralWitness:
    """Somos-8's first non-integral term, a_17 = 420514/7, exits 1 with its witness."""

    @pytest.mark.parametrize("command", sorted(SOMOS8_AT_30))
    def test_json_format_prints_the_event_as_json(self, capsys, command):
        assert main(SOMOS8_AT_30[command] + ["--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "schema_version": "1",
            "kind": "non_integral_event",
            "index": 17,
            "numerator": "420514",
            "denominator": "7",
            "remainder": "3",
        }

    @pytest.mark.parametrize(
        "command,fmt",
        [("crosscheck", "text"), ("generate", "bfile"), ("generate", "text"), ("verify", "text")],
    )
    def test_other_formats_print_the_text_line(self, capsys, command, fmt):
        assert main(SOMOS8_AT_30[command] + ["--format", fmt]) == 1
        assert capsys.readouterr().out == (
            "non-integral term at index 17: numerator 420514, denominator 7, remainder 3\n"
        )


SOMOS8_EVENT = "non-integral term at index 17: numerator 420514, denominator 7, remainder 3\n"


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["generate", "--k", "8", "--count", "30"], 1, SOMOS8_EVENT),
        (["verify", "--count", "40"], 0, "coprime-window over n in [4, 40): 36 checked, pass\n"),
        (
            ["verify", "--k", "6", "--count", "40"],
            1,
            "coprime-window over n in [4, 40): 5 checked, FAIL; "
            "first failure at n = 8 (gcd(a_8, a_6) = 3)\n",
        ),
        (["certify", "--count", "12"], 0, "certificate over n in [10, 12): 2 checked, pass\n"),
        (
            ["certify", "--index", "10"],
            0,
            "certificate n = 10: valid (precondition gcd 1, residue 0)\n",
        ),
        (
            ["lemmas", "--samples", "300", "--seed", "4"],
            0,
            "product: 300 samples, 0 counterexamples\n"
            "pairwise: 300 samples, 0 counterexamples\n"
            "shift: 300 samples, 0 counterexamples\n"
            "cancellation: 300 samples, 0 counterexamples\n",
        ),
        (
            ["scan", "--k", "5", "--count", "40"],
            0,
            "scanned somos-5 for 40 terms\n"
            "all terms integral\n"
            "no common factors up to depth 4\n",
        ),
        (
            ["scan", "--k", "6", "--count", "40"],
            1,
            "scanned somos-6 for 40 terms\n"
            "all terms integral\n"
            "first common factor at index 8, offset 2: gcd = 3\n",
        ),
        (
            ["scan", "--k", "8", "--count", "30"],
            1,
            "scanned somos-8 for 18 terms\n"
            + SOMOS8_EVENT
            + "first common factor at index 14, offset 3: gcd = 25\n",
        ),
        (
            ["crosscheck", "--input", str(FIXTURE), "--count", "20"],
            0,
            "crosscheck over n in [0, 20): 20 checked, pass\n",
        ),
    ],
    ids=[
        "generate-k8",
        "verify",
        "verify-k6",
        "certify-range",
        "certify-index",
        "lemmas",
        "scan-k5",
        "scan-k6",
        "scan-k8",
        "crosscheck",
    ],
)
def test_text_lines_are_byte_stable(capsys, argv, code, out):
    # Every text form main prints, pinned byte for byte with its exit code.
    assert main(argv) == code
    assert capsys.readouterr().out == out


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "somos" in capsys.readouterr().out


def test_main_alone_prints_results_and_maps_exit_codes():
    # Each cmd_* returns (result, passed); only main emits and picks the code.
    tree = ast.parse(Path(somos.cli.__file__).read_text(encoding="utf-8"))
    commands = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert len(commands) == 6
    named = {
        f"{command.name}: {node.id}"
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Name)
        and (node.id in ("emit_report_json", "emit_report_text") or node.id.startswith("EXIT_"))
    }
    assert not named
