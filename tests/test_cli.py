import hashlib
import inspect
import json
import os
import subprocess
import sys
import time

import click
import pytest
from click.testing import CliRunner

import nullcover.cli as cli
from nullcover import cover as cov
from nullcover.errors import PAST_DIGIT_LIMIT, VerificationFailed


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    result = runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)
    return result


def run_json(runner, args):
    result = run(runner, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def leaf_commands(group=cli.main, path=()):
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from leaf_commands(command, path + (name,))
        else:
            yield path + (name,), command


SPEC = json.dumps(cov.build_nullset(cov.plan_blocks_padic(2, 1)).to_json())
COVER = ["cover", "padic", "--p", "2", "--depth", "1", "--seed", "0"]
# self-contained cover runs, after "cover"
PADIC_RUN = ["padic", "--p", "2", "--depth", "2"]
PRODUCT_RUN = ["product", "--orders", "2", "--cycle", "--depth", "2"]
CUBE = '{"plan":{"mode":"padic","p":2,"boundaries":[0,3]},"family":[]}'
# stdout of the deepest covers, after "cover"
DEEP_BUNDLE_SHA256 = {
    "padic --p 2 --depth 850 --seed 1": "ca06068aa1c623c4fa16ad560b3928e4cc61f84bd27cc57fd64a35884d56b585",
    "product --orders 2 --cycle --depth 850 --seed 1": "45d6d2f173b182d34786d77cfafa3989324250e6dde903015bc704631b4dedff",
}
# each integer option on a command that reads it, the value last
INTEGER_OPTIONS = [
    ["ek", "sup", "--depth"],
    ["plan", "padic", "--depth", "1", "--p"],
    ["slalom-gen", "--in", '{"mode":"padic","p":2,"boundaries":[0,3]}', "--seed"],
    ["measure", "--in", SPEC, "--blocks"],
    ["chain", "--orders", "8", "--p", "2", "--depth", "2", "--cap-enum"],
    ["cube-check", "--in", CUBE, "--cap-verify"],
]


class TestPlanAndBuild:
    def test_plan_padic(self, runner):
        payload = run_json(runner, ["plan", "padic", "--p", "2", "--depth", "3"])
        assert payload["boundaries"] == [0, 3, 7, 11]
        assert payload["block_orders"] == [8, 16, 16]

    def test_plan_product_cycle(self, runner):
        payload = run_json(runner, ["plan", "product", "--orders", "2", "--cycle", "--depth", "3"])
        assert payload["boundaries"] == [0, 3, 7, 11]

    def test_build_nullset(self, runner):
        plan = run_json(runner, ["plan", "padic", "--p", "2", "--depth", "1"])
        spec = run_json(runner, ["build-nullset", "--in", json.dumps(plan)])
        assert spec["A"] == [[0, 1, 2, 3, 4, 5]]


class TestCoverRoundTrip:
    def test_padic_cover_feeds_verify(self, runner):
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"])
        assert bundle["certificate"]["verified"] is True
        result = run_json(runner, ["verify", "--in", json.dumps(bundle)])
        assert result["ok"] is True and result["witness"] is None
        assert result["checked_count"] == bundle["certificate"]["checked_count"]

    def test_product_cover_feeds_verify(self, runner):
        bundle = run_json(
            runner,
            ["cover", "product", "--orders", "2,3", "--cycle", "--depth", "3", "--seed", "1"],
        )
        assert bundle["certificate"]["verified"] is True
        result = run_json(runner, ["verify", "--in", json.dumps(bundle)])
        assert result["ok"] is True

    def test_cover_accepts_explicit_inputs(self, runner):
        plan = run_json(runner, ["plan", "padic", "--p", "3", "--depth", "2"])
        spec = run_json(runner, ["build-nullset", "--in", json.dumps(plan)])
        slalom = run_json(
            runner, ["slalom-gen", "--in", json.dumps(plan), "--width", "(n+2)//2", "--seed", "5"]
        )
        bundle = run_json(
            runner,
            ["cover", "padic", "--in", json.dumps({"spec": spec, "slalom": slalom})],
        )
        assert bundle["slalom"] == slalom
        assert bundle["certificate"]["verified"] is True

    @pytest.mark.parametrize(
        "run_args,flags,named",
        [
            (PADIC_RUN, ["--p", "7", "--depth", "9", "--seed", "3"], "--p, --depth, --seed"),
            (PADIC_RUN, ["--seed", "0"], "--seed"),
            (PRODUCT_RUN, ["--orders", "2", "--cycle"], "--orders, --cycle"),
        ],
    )
    def test_cover_payload_refuses_self_contained_flags(self, runner, tmp_path, run_args, flags, named):
        bundle = run_json(runner, ["cover"] + run_args)
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"spec": bundle["spec"], "slalom": bundle["slalom"]}))
        result = run(runner, ["cover", run_args[0], "--in", f"@{payload}"] + flags)
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "SchemaError" and named in error["message"]
        # the payload alone answers as the self-contained run did
        again = run_json(runner, ["cover", run_args[0], "--in", f"@{payload}"])
        assert again == bundle

    @pytest.mark.parametrize(
        "args",
        [
            ["padic", "--p", "2", "--depth", "100"],
            ["product", "--orders", "2", "--cycle", "--depth", "100"],
            ["padic", "--p", "2", "--depth", "850", "--seed", "1"],
            ["product", "--orders", "2", "--cycle", "--depth", "850", "--seed", "1"],
        ],
    )
    def test_deep_covers_need_no_element_cap(self, runner, tmp_path, args):
        # far more than 2^20 slalom elements: the cover and verify commands
        # have no element cap.  The depth-850 bundles are pinned byte for byte
        result = run(runner, ["cover", *args])
        assert result.exit_code == 0
        digest = DEEP_BUNDLE_SHA256.get(" ".join(args))
        if digest is not None:
            assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest
        bundle = tmp_path / "bundle.json"
        bundle.write_bytes(result.stdout_bytes)
        certificate = json.loads(result.stdout)["certificate"]
        assert certificate["verified"] is True and certificate["checked_count"] > cli.DEFAULT_VERIFY_CAP
        result = run_json(runner, ["verify", "--in", f"@{bundle}"])
        assert result["ok"] is True and result["checked_count"] == certificate["checked_count"]

    def test_verify_flags_bad_translate(self, runner):
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "1", "--seed", "0"])
        bad = dict(bundle)
        translate = list(bundle["certificate"]["translate"])
        # value +3 is a breaking corruption at depth one (brute-forced)
        corrupted_value = (sum(d * 2**k for k, d in enumerate(translate)) + 3) % 8
        bad["certificate"] = {
            "translate": [(corrupted_value >> k) & 1 for k in range(3)],
            "verified": False,
            "checked_count": 0,
        }
        result = run_json(runner, ["verify", "--in", json.dumps(bad)])
        assert result["ok"] is False and result["witness"] is not None


class TestEkAndMeasure:
    def test_ek_member(self, runner):
        assert run_json(runner, ["ek", "member", "--num", "1", "--den", "2", "--depth", "20"]) == {
            "verdict": "out"
        }
        assert run_json(runner, ["ek", "member", "--num", "0", "--den", "1", "--depth", "5"]) == {
            "verdict": "in"
        }

    def test_ek_member_digit_arrays(self, runner):
        payload = run_json(
            runner, ["ek", "member", "--num", "1", "--den", "2", "--depth", "6", "--digits"]
        )
        assert payload["greedy"] == {"digits": [1, 0, 0, 0, 0], "tail": "zero"}
        assert payload["alternate"] == {"digits": [0, 2, 3, 4, 5], "tail": "max"}

    def test_ek_measure(self, runner):
        payload = run_json(runner, ["ek", "measure", "--depth", "100"])
        assert payload["value"] == {"num": "1", "den": "100"}

    def test_ek_sup(self, runner):
        payload = run_json(runner, ["ek", "sup", "--depth", "4"])
        assert payload["value"] == {"num": "1", "den": "4"}

    def test_measure_first_below(self, runner):
        payload = run_json(runner, ["measure", "--first-below", "1/10"])
        assert payload["first_n"] == 225

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--blocks", "3"], "--blocks"),
            (["--in", '{"bogus": 1}'], "--in"),
            (["--blocks", "3", "--in", '{"bogus": 1}'], "--in, --blocks"),
        ],
    )
    def test_measure_first_below_refuses_spec_flags(self, runner, flags, named):
        result = run(runner, ["measure", "--first-below", "1/10"] + flags)
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "SchemaError" and named in error["message"]

    def test_measure_of_spec(self, runner):
        plan = run_json(runner, ["plan", "padic", "--p", "2", "--depth", "2"])
        spec = run_json(runner, ["build-nullset", "--in", json.dumps(plan)])
        payload = run_json(runner, ["measure", "--in", json.dumps(spec), "--blocks", "2"])
        assert payload["bound"] == {"num": "35", "den": "48"}
        assert payload["measure"] == {"num": "21", "den": "32"}  # (6/8)*(14/16)


class TestSymbolicCommands:
    def test_dual(self, runner):
        assert run_json(runner, ["dual", "--in", '{"type":"Int"}']) == {"type": "Torus"}
        assert run_json(runner, ["dual", "--in", '{"type":"Quasicyclic","p":5}']) == {
            "type": "Padic",
            "p": 5,
        }

    def test_classify(self, runner):
        payload = run_json(runner, ["classify", "--in", '{"type":"Quasicyclic","p":3}'])
        assert payload == {"case": 3, "witness": {"p": 3}}

    def test_pipeline(self, runner):
        payload = run_json(runner, ["pipeline", "--in", '{"type":"Padic","p":2}'])
        assert payload["verdict"] == "nice"
        assert [step["rule"] for step in payload["trace"]] == ["terminal-padic"]

    def test_chain(self, runner):
        payload = run_json(runner, ["chain", "--orders", "8", "--p", "2", "--depth", "2"])
        assert payload["chain"] == [[4], [2], [1]]
        payload = run_json(runner, ["chain", "--orders", "8", "--p", "2", "--depth", "3"])
        assert payload["chain"] is None

    def test_chain_deeper_than_the_stack(self, runner):
        # multiplication by 2 is a bijection of Z_3, so chains never end
        payload = run_json(runner, ["chain", "--orders", "3", "--p", "2", "--depth", "5000"])
        assert len(payload["chain"]) == 5001

    def test_chain_in_a_large_group(self, runner):
        start = time.perf_counter()
        payload = run_json(runner, ["chain", "--orders", "1048576", "--p", "2", "--depth", "25"])
        assert time.perf_counter() - start < 5
        assert payload["chain"] is None

    def test_chain_above_the_order_cap(self, runner):
        # --cap-enum bounds the chain's entries, not the group order
        payload = run_json(runner, ["chain", "--orders", "2097152", "--p", "2", "--depth", "3"])
        assert payload["chain"] == [[8], [4], [2], [1]]
        result = run(runner, ["chain", "--orders", "8,8", "--p", "2", "--depth", "3", "--cap-enum", "7"])
        assert result.exit_code == 4
        assert json.loads(result.output)["error"]["type"] == "CapExceeded"


class TestCubeCheck:
    def test_small_cube(self, runner):
        plan = run_json(runner, ["plan", "padic", "--p", "2", "--depth", "1"])
        family = [{"width": [8], "sets": [list(range(8))]}]
        payload = run_json(
            runner, ["cube-check", "--in", json.dumps({"plan": plan, "family": family})]
        )
        assert payload == {"covered": True, "witness": None}
        payload = run_json(
            runner, ["cube-check", "--in", json.dumps({"plan": plan, "family": []})]
        )
        assert payload == {"covered": False, "witness": [0]}

    def test_default_cap_is_2_20_points(self, runner):
        # blocks of orders 8, 16, 16, 16, 16 and 32: a cube of 2^24 points
        plan = run_json(runner, ["plan", "padic", "--p", "2", "--depth", "6"])
        result = run(runner, ["cube-check", "--in", json.dumps({"plan": plan, "family": []})])
        assert result.exit_code == 4
        assert json.loads(result.output)["error"]["type"] == "CapExceeded"


class TestErrorChannel:
    def test_schema_error_exits_2(self, runner):
        result = run(runner, ["verify", "--in", "{not json"])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("m", ["2.7", "true"])
    def test_descriptor_integer_fields_are_strict(self, runner, m):
        result = run(runner, ["dual", "--in", f'{{"type":"Cyclic","m":{m}}}'])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    def test_inconsistent_certificate_rejected(self, runner):
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "2", "--seed", "1"])
        bad = dict(bundle)
        bad["certificate"] = dict(bundle["certificate"], checked_count=999)
        result = run(runner, ["verify", "--in", json.dumps(bad)])
        assert result.exit_code == 2

    def test_out_of_range_digits_rejected(self, runner):
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "1", "--seed", "0"])
        bad = dict(bundle)
        bad["certificate"] = {"translate": [2, 0, 0], "verified": False, "checked_count": 0}
        result = run(runner, ["verify", "--in", json.dumps(bad)])
        assert result.exit_code == 3

    def test_missing_input_exits_2(self, runner):
        result = run(runner, ["build-nullset"])
        assert result.exit_code == 2

    def test_precondition_exits_3(self, runner):
        result = run(runner, ["plan", "padic", "--p", "4", "--depth", "2"])
        assert result.exit_code == 3
        assert json.loads(result.output)["error"]["type"] == "PreconditionViolated"

    def test_cap_exceeded_exits_4(self, runner):
        # a cube of 8 points past a cap of 1, and at depth 851 blocks of
        # 1,049,928 elements in all past the enumeration cap
        capped = ["cube-check", "--in", CUBE, "--cap-verify", "1"]
        for args in (capped, ["cover", "padic", "--p", "2", "--depth", "851"]):
            result = run(runner, args)
            assert result.exit_code == 4
            assert json.loads(result.output)["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize(
        "args",
        [
            ["measure", "--first-below", "1/100000"],
            ["ek", "sup", "--depth", "200000"],
            ["plan", "padic", "--p", "2", "--depth", "40000"],
            ["chain", "--orders", "3", "--p", "2", "--depth", "40000"],
            # the plan is within the depth cap, its blocks are not within the enumeration cap
            ["cover", "padic", "--p", "2", "--depth", "4000"],
            ["ek", "member", "--num", "1", "--den", "3", "--depth", "100000000"],
            # one p-adic block too wide to form its order, decided before any power
            ["build-nullset", "--in", '{"mode":"padic","p":2,"boundaries":[0,100000]}'],
            ["build-nullset", "--in", '{"mode":"padic","p":2,"boundaries":[0,1000000000]}'],
        ],
    )
    def test_numeric_depth_cap_exits_4(self, runner, args):
        start = time.perf_counter()
        result = run(runner, args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 4
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize(
        "printable,unprintable",
        [
            (["ek", "sup", "--depth", "1558"], ["ek", "sup", "--depth", "1559"]),
            (["measure", "--first-below", "1/56"], ["measure", "--first-below", "1/57"]),
        ],
    )
    def test_output_past_the_digit_limit_exits_4(self, runner, printable, unprintable):
        # the rational's numerator or denominator passes 4,300 digits one
        # step past the last printable argument
        run_json(runner, printable)
        result = run(runner, unprintable)
        assert result.exit_code == 4
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"] == {"type": "CapExceeded", "message": PAST_DIGIT_LIMIT}

    def test_product_block_past_the_bit_cap_exits_4(self, runner):
        # one block of 800,000 order-2 coordinates, refused by its bits
        # before its order is formed
        plan = json.dumps({"mode": "product", "boundaries": [0, 800_000], "orders": [2] * 800_000})
        start = time.perf_counter()
        result = run(runner, ["build-nullset", "--in", plan])
        assert time.perf_counter() - start < 2
        assert result.exit_code == 4
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize("kept", ["[[0]]", "[[-1]]"])
    def test_message_of_a_block_order_past_the_digit_limit_exits_3(self, runner, kept):
        # a block of order 2^16384, whose window bounds and order have
        # 4,933 digits: the message prints them as powers of two
        spec = '{"plan":{"mode":"padic","p":2,"boundaries":[0,16384]},"A":' + kept + "}"
        result = run(runner, ["measure", "--blocks", "1", "--in", spec])
        assert result.exit_code == 3
        assert result.stdout.count("\n") == 1
        error = json.loads(result.stdout)["error"]
        assert error["type"] == "PreconditionViolated" and "more than 2^16383" in error["message"]

    def test_verify_checks_the_slalom_domains_before_the_count(self, runner):
        # 100,000 sets [0, 1] hold 2^100000 elements, a count of 30,103
        # digits; the depth mismatch is refused first
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "2", "--seed", "1"])
        bundle["slalom"] = {"width": "n+2", "sets": [[0, 1]] * 100_000}
        result = run(runner, ["verify", "--in", json.dumps(bundle)])
        assert result.exit_code == 3
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"] == {
            "type": "PreconditionViolated", "message": "slalom depth 100000 != plan depth 2"
        }

    @pytest.mark.parametrize("command", ["dual", "pipeline", "classify"])
    @pytest.mark.parametrize("depth", [400, 900, 3000])
    def test_deeply_nested_descriptor_exits_2(self, runner, command, depth):
        payload = '{"type":"FiniteSum","parts":[' * depth + '{"type":"Int"}' + "]}" * depth
        result = run(runner, [command, "--in", payload])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize(
        "args",
        [
            ["ek", "member", "--num", "1_0", "--den", " 30", "--depth", "5"],
            ["ek", "member", "--num", "1", "--den", "+3", "--depth", "5"],
            ["plan", "product", "--orders", "2_0, 3", "--depth", "2"],
            ["chain", "--orders", "8,2.0", "--p", "2", "--depth", "2"],
            ["build-nullset", "--in", '{"mode":"padic","p":' + "7" * 5000 + ',"boundaries":[0,3]}'],
        ]
        # a sign "+", surrounding space or an underscore, each of which
        # Python's int() accepts
        + [option + [value] for option in INTEGER_OPTIONS for value in ("+4", " 4", "1_0")],
    )
    def test_integer_arguments_are_strict(self, runner, args):
        result = run(runner, args)
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize(
        "args",
        [
            ["plan", "padic", "--p", "x", "--depth", "1"],
            ["plan", "padic", "--depth", "1"],
            ["frobnicate"],
            ["dual", "--bogus"],
            ["ek", "sup", "--depth", "4", "--format", "xml"],
            ["ek", "sup", "--depth", "1" * 5000],
            # an option of another command
            ["ek", "sup", "--depth", "3", "--seed", "5"],
            ["dual", "--in", '{"type":"Int"}', "--cap-enum", "4"],
            ["plan", "padic", "--p", "2", "--depth", "1", "--cap-verify", "4"],
            # a cover searches any block order, so it has no --cap-enum
            ["cover", "product", "--orders", "2", "--cycle", "--depth", "3", "--cap-enum", "5"],
            # a cap must be positive
            ["chain", "--orders", "8", "--p", "2", "--depth", "2", "--cap-enum", "0"],
            ["cube-check", "--in", CUBE, "--cap-verify", "-1"],
            # a cover check decides every slalom element, so no command but
            # cube-check has --cap-verify
            COVER + ["--cap-verify", "4"],
            ["cover", "product", "--orders", "2", "--cycle", "--depth", "3", "--cap-verify", "4"],
            ["verify", "--in", "{}", "--cap-verify", "4"],
        ],
    )
    def test_usage_error_exits_2_with_one_document(self, runner, args):
        result = run(runner, args)
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "SchemaError"
        # click's usage message still goes to stderr
        assert "Error:" in result.stderr

    @pytest.mark.parametrize("args", [["--help"], ["plan", "padic", "--help"]])
    def test_help_is_unchanged(self, runner, args):
        result = run(runner, args)
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage:") and result.stderr == ""

    @pytest.mark.parametrize(
        "args,code,kind",
        [
            # psi_12 = 399165290221 * 798330580441 passes every prime base up to 37
            (["plan", "padic", "--p", "318665857834031151167461", "--depth", "1"], 3, "PreconditionViolated"),
            (["dual", "--in", '{"type":"Padic","p":"318665857834031151167461"}'], 3, "PreconditionViolated"),
            # psi_13 and past it: beyond the exact range of the primality test
            (["plan", "padic", "--p", "3317044064679887385961981", "--depth", "1"], 4, "CapExceeded"),
            (["plan", "padic", "--p", str(2**89 - 1), "--depth", "1"], 4, "CapExceeded"),
            (["dual", "--in", '{"type":"Quasicyclic","p":"' + str(10**3913 + 7) + '"}'], 4, "CapExceeded"),
        ],
    )
    def test_primes_past_the_test_range(self, runner, args, code, kind):
        start = time.perf_counter()
        result = run(runner, args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == code
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == kind

    def test_threshold_exponent_is_bounded(self, runner):
        # 1e-10000000 would build a ten-million-digit power of ten
        start = time.perf_counter()
        result = run(runner, ["measure", "--first-below", "1e-10000000"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["type"] == "SchemaError"
        assert run_json(runner, ["measure", "--first-below", "1e-1"]) == run_json(
            runner, ["measure", "--first-below", "1/10"]
        )

    def test_slalom_size_is_capped(self, runner):
        plan = '{"mode":"padic","p":2,"boundaries":[0,30]}'
        start = time.perf_counter()
        result = run(runner, ["slalom-gen", "--in", plan, "--width", "[1000000000]"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 4
        assert json.loads(result.output)["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize(
        "command,payload",
        [
            # an array field given as a number, a digit string or an object
            ("build-nullset", '{"mode":"product","boundaries":[0,3],"orders":5}'),
            ("build-nullset", '{"mode":"padic","p":2,"boundaries":"037"}'),
            ("build-nullset", '{"mode":"padic","p":2,"boundaries":[0,3],"block_orders":{"8":1}}'),
            ("measure", '{"plan":{"mode":"padic","p":2,"boundaries":[0,3]},"A":[7]}'),
            ("cube-check", '{"plan":{"mode":"padic","p":2,"boundaries":[0,3]},"family":[{"width":"n+2","sets":[2.5]}]}'),
        ],
    )
    def test_array_fields_are_strict(self, runner, command, payload):
        args = [command, "--in", payload] + (["--blocks", "1"] if command == "measure" else [])
        result = run(runner, args)
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("field,value", [("translate", "000"), ("verified", "yes")])
    def test_certificate_fields_are_strict(self, runner, field, value):
        bundle = run_json(runner, ["cover", "padic", "--p", "2", "--depth", "1", "--seed", "0"])
        bundle["certificate"][field] = value
        result = run(runner, ["verify", "--in", json.dumps(bundle)])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    def test_padic_cover_of_a_product_spec_exits_3(self, runner):
        bundle = run_json(runner, ["cover", "product", "--orders", "2", "--cycle", "--depth", "2"])
        del bundle["certificate"]
        result = run(runner, ["cover", "padic", "--in", json.dumps(bundle)])
        assert result.exit_code == 3
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "PreconditionViolated"

    def test_orders_tokens_are_stripped(self, runner):
        spaced = run_json(runner, ["plan", "product", "--orders", " 2 , 3,", "--cycle", "--depth", "3"])
        assert spaced == run_json(runner, ["plan", "product", "--orders", "2,3", "--cycle", "--depth", "3"])

    @pytest.mark.parametrize("command", ["build-nullset", "slalom-gen"])
    def test_longest_admitted_block_exits_4(self, runner, command):
        # a block of order 2^16384, about 4,900 digits: the cap message
        # must not print the total, and no slalom value can be printed
        result = run(runner, [command, "--in", '{"mode":"padic","p":2,"boundaries":[0,16384]}'])
        assert result.exit_code == 4
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "CapExceeded"

    @pytest.mark.parametrize("width", ["[1.5]", '["x"]', "[true]"])
    def test_slalom_width_table_is_strict(self, runner, width):
        plan = '{"mode":"padic","p":2,"boundaries":[0,3]}'
        result = run(runner, ["slalom-gen", "--in", plan, "--width", width])
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert json.loads(result.output)["error"]["type"] == "SchemaError"

    def test_env_var_overrides_verify_cap(self, runner):
        # cube-check reads the variable; cover and verify have no cap to set
        env = {cli.ENV_CAP_VERIFY: "1"}
        assert run(runner, ["cube-check", "--in", CUBE], env=env).exit_code == 4
        run_args = ["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"]
        for args in (["verify", "--in", json.dumps(run_json(runner, run_args))], run_args):
            unset = run(runner, args)
            result = run(runner, args, env=env)
            assert result.exit_code == unset.exit_code == 0
            assert result.output == unset.output

    @pytest.mark.parametrize("value", [" 1_0", "abc", "0"])
    def test_cap_verify_variable_is_strict(self, runner, value):
        bundle = run(runner, COVER).output
        env = {cli.ENV_CAP_VERIFY: value}
        result = run(runner, ["cube-check", "--in", CUBE], env=env)
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "SchemaError"
        # read only by cube-check, the one command with --cap-verify
        for args in (["verify", "--in", bundle], COVER, ["ek", "sup", "--depth", "4"]):
            result = run(runner, args, env=env)
            assert result.exit_code == 0
            assert result.output == run(runner, args).output

    def test_empty_cap_verify_variable_is_unset(self, runner):
        bundle = run(runner, COVER).output
        for args in (["verify", "--in", bundle], COVER, ["cube-check", "--in", CUBE]):
            unset = run(runner, args)
            empty = run(runner, args, env={cli.ENV_CAP_VERIFY: ""})
            assert empty.exit_code == unset.exit_code == 0
            assert empty.output == unset.output

    def test_internal_failure_exits_10_with_repro(self, runner, monkeypatch):
        def broken(ctx, spec, slalom):
            raise VerificationFailed("synthetic")

        monkeypatch.setattr(cov, "cover_padic_slalom", broken)
        result = run(runner, ["cover", "padic", "--p", "2", "--depth", "1", "--seed", "0"])
        assert result.exit_code == 10
        error = json.loads(result.output)["error"]
        assert error["type"] == "VerificationFailed"
        assert "spec" in error["repro"] and "slalom" in error["repro"]

    def test_other_cover_errors_carry_no_repro(self, runner, tmp_path):
        # one product block of order 2^21: the payload is 12.9 MB, and the
        # p-adic cover's refusal of its mode is said by its message alone
        order = 1 << 21
        hi = cov.kept_window(order, 0)[1]
        spec = cov.NullsetSpec(cov.BlockPlan("product", (0, 21), orders=(2,) * 21), (range(hi),))
        payload = {"spec": spec.to_json(), "slalom": {"width": "n+2", "sets": [[5, order - 3]]}}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert path.stat().st_size > 10**7
        result = run(runner, ["cover", "padic", "--in", f"@{path}"])
        assert result.exit_code == 3
        assert len(result.stdout.encode()) < 1000
        error = json.loads(result.stdout)["error"]
        assert error == {"type": "PreconditionViolated", "message": "cover_padic_slalom needs a padic-mode spec"}


class TestDeterminismAndFormats:
    def test_repeat_runs_identical(self, runner):
        for args in (
            ["cover", "padic", "--p", "3", "--depth", "2", "--seed", "9"],
            ["slalom-gen", "--in", '{"mode":"padic","p":2,"boundaries":[0,3]}', "--seed", "4"],
            ["pipeline", "--in", '{"type":"Torus"}'],
        ):
            first = run(runner, args)
            second = run(runner, args)
            assert first.output == second.output and first.exit_code == second.exit_code == 0

    # sha256 of stdout as recorded before the product translator search
    # moved onto the gap cylinders of the check: not one byte may change
    @pytest.mark.parametrize("args,digest", [
        ("--orders 2 --cycle --depth 100 --seed 0", "7ccf237c8cdb1e6173e6d657e79dde0daa598cae325fc2b9df2811e45ee48d4f"),
        ("--orders 2,3 --cycle --depth 60 --seed 1", "5f19ea6fcf7661492ca2c306822eb3408538cb97e03a9a6568ce77be6051cafe"),
        ("--orders 3,4099 --cycle --depth 3 --seed 2", "fda3a3e6bf06f1958e959e8de185f98c7e02af71662571fecb6103afc786fa7a"),
    ])
    def test_product_cover_bytes_pinned(self, runner, args, digest):
        result = run(runner, ["cover", "product", *args.split()])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_table_format(self, runner):
        # there is no --format: every command writes one JSON document
        for fmt in ("table", "json"):
            result = run(runner, ["ek", "measure", "--depth", "4", "--format", fmt])
            assert result.exit_code == 2
            assert result.stdout.count("\n") == 1
            assert json.loads(result.stdout)["error"]["type"] == "SchemaError"

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "result.json"
        result = run(runner, ["dual", "--in", '{"type":"Int"}', "--out", str(target)])
        assert result.exit_code == 0 and result.output == ""
        assert json.loads(target.read_text()) == {"type": "Torus"}

    # a directory that does not exist, and a directory in place of a file
    @pytest.mark.parametrize("target", ["missing/result.json", "."])
    def test_unwritable_out_exits_2(self, runner, tmp_path, target):
        result = run(runner, ["ek", "sup", "--depth", "3", "--out", str(tmp_path / target)])
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "SchemaError"

    def test_in_file_not_utf8_exits_2(self, runner, tmp_path):
        payload = tmp_path / "plan.json"
        payload.write_bytes(b"\xff\xfe" + b'{"mode":"padic","p":2,"boundaries":[0,3]}')
        result = run(runner, ["build-nullset", "--in", f"@{payload}"])
        assert result.exit_code == 2
        assert result.stdout.count("\n") == 1
        assert json.loads(result.stdout)["error"]["type"] == "SchemaError"


class TestOptionSurface:
    @pytest.mark.parametrize("command", [pytest.param(c, id=" ".join(path)) for path, c in leaf_commands()])
    def test_each_command_takes_only_what_it_reads(self, command):
        # integer options parse strictly, output is always JSON, and every
        # option but --out is an argument of the command's body
        for param in command.params:
            assert not isinstance(param.type, click.types.IntParamType), param.name
            assert "--format" not in param.opts
        body = inspect.signature(command.callback.__wrapped__).parameters
        assert {param.name for param in command.params} - {"out"} == set(body)


# the modules of the package that each command loads besides nullcover,
# nullcover.cli and nullcover.errors, with one run of every command
BUNDLE = CliRunner().invoke(cli.main, COVER).output
PLAN = '{"mode":"padic","p":2,"boundaries":[0,3]}'
DESCRIPTOR = '{"type":"FiniteSum","parts":[{"type":"Torus"},{"type":"Cyclic","m":3}]}'
IMPORT_GRAPH = [
    ((), [["--help"]]),
    (("nullset",), [
        ["ek", "member", "--num", "1", "--den", "3", "--depth", "4"],
        ["ek", "measure", "--depth", "4"],
        ["ek", "sup", "--depth", "4"],
    ]),
    (("groups", "structure"), [
        ["classify", "--in", '{"type":"Int"}'],
        ["dual", "--in", DESCRIPTOR],
        ["pipeline", "--in", DESCRIPTOR],
        ["chain", "--orders", "8", "--p", "2", "--depth", "2"],
    ]),
    (("groups", "cover"), [
        ["plan", "product", "--orders", "2", "--cycle", "--depth", "2"],
        ["plan", "padic", "--p", "2", "--depth", "3"],
        ["build-nullset", "--in", PLAN],
        ["cover"] + PRODUCT_RUN,
        COVER,
        ["verify", "--in", BUNDLE],
        ["slalom-gen", "--in", PLAN],
        ["cube-check", "--in", CUBE],
        ["measure", "--first-below", "1/10"],
        ["measure", "--in", SPEC, "--blocks", "1"],
    ]),
]


def package_modules(args):
    """The modules of the package that a fresh interpreter run with args
    imports, read from its ``-X importtime`` report."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stdout
    names = (line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:"))
    return {name for name in names if name == "nullcover" or name.startswith("nullcover.")}


class TestImportGraph:
    def test_package_root_loads_no_submodule(self):
        assert package_modules(["-c", "import nullcover"]) == {"nullcover"}

    @pytest.mark.parametrize(
        "modules,argv",
        [pytest.param(modules, argv, id=" ".join(argv[:2])) for modules, argvs in IMPORT_GRAPH for argv in argvs],
    )
    def test_command_loads_only_what_it_runs(self, modules, argv):
        expected = {"nullcover", "nullcover.cli", "nullcover.errors"} | {f"nullcover.{m}" for m in modules}
        assert package_modules(["-m", "nullcover", *argv]) == expected

    def test_every_command_is_in_the_graph(self):
        runs = {tuple(argv) for _, argvs in IMPORT_GRAPH for argv in argvs}
        for path, _ in leaf_commands():
            assert any(run[: len(path)] == path for run in runs), path
