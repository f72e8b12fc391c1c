"""The published schemas in docs/schemas/ must accept everything the CLI
emits (and the registered referencing between them must resolve)."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import nullcover.cli as cli
from nullcover import cover as cov
from nullcover import errors
from nullcover.errors import VerificationFailed

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_validator(name: str) -> Draft202012Validator:
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resource = Resource.from_contents(schema)
        resources.append((path.name, resource))
        resources.append((schema["$id"], resource))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / name).read_text())
    return Draft202012Validator(schema, registry=registry)


def emit(args):
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


@pytest.mark.parametrize(
    "schema,args",
    [
        ("blockplan.schema.json", ["plan", "padic", "--p", "2", "--depth", "4"]),
        ("blockplan.schema.json", ["plan", "product", "--orders", "2,3", "--cycle", "--depth", "3"]),
        (
            "nullsetspec.schema.json",
            ["build-nullset", "--in", '{"mode":"padic","p":3,"boundaries":[0,2,4]}'],
        ),
        (
            "slalom.schema.json",
            ["slalom-gen", "--in", '{"mode":"padic","p":2,"boundaries":[0,3,7]}', "--seed", "3"],
        ),
        ("cover-bundle.schema.json", ["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"]),
        (
            "cover-bundle.schema.json",
            ["cover", "product", "--orders", "2", "--cycle", "--depth", "4", "--seed", "2"],
        ),
        ("descriptor.schema.json", ["dual", "--in", '{"type":"SumOmega","parts":[{"type":"Cyclic","m":2}]}']),
        ("trace.schema.json", ["pipeline", "--in", '{"type":"FiniteSum","parts":[{"type":"Int"},{"type":"Torus"}]}']),
        ("rational.schema.json", ["ek", "sup", "--depth", "12"]),
        ("rational.schema.json", ["ek", "measure", "--depth", "10000"]),
    ],
)
def test_cli_output_matches_schema(schema, args):
    payload = emit(args)
    if schema == "rational.schema.json":
        payload = payload["value"]
    load_validator(schema).validate(payload)


def test_certificate_and_verify_result(tmp_path):
    bundle = emit(["cover", "padic", "--p", "5", "--depth", "2", "--seed", "1"])
    load_validator("certificate.schema.json").validate(bundle["certificate"])
    result = emit(["verify", "--in", json.dumps(bundle)])
    load_validator("verify-result.schema.json").validate(result)


def test_schemas_reject_junk():
    validator = load_validator("blockplan.schema.json")
    assert not validator.is_valid({"mode": "padic", "boundaries": [0, 3]})  # missing p
    assert not validator.is_valid({"mode": "product", "boundaries": [0, 3], "p": 2})
    validator = load_validator("slalom.schema.json")
    assert not validator.is_valid({"width": "n+3", "sets": [[0]]})
    assert not validator.is_valid({"width": "n+2", "sets": [[]]})


def fail(args, code):
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert result.stdout.count("\n") == 1
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "args,code",
    [
        (["verify", "--in", "{not json"], 2),
        (["plan", "padic", "--p", "x", "--depth", "1"], 2),
        (["frobnicate"], 2),
        (["plan", "padic", "--p", "4", "--depth", "2"], 3),
        (["classify", "--in", '{"type":"Cyclic","m":4}'], 3),
        (["ek", "sup", "--depth", "200000"], 4),
        (["plan", "padic", "--p", "3317044064679887385961981", "--depth", "1"], 4),
    ],
)
def test_error_documents_match_schema(args, code):
    load_validator("error.schema.json").validate(fail(args, code))


def test_internal_failure_document_matches_schema(monkeypatch):
    def broken(ctx, spec, slalom):
        raise VerificationFailed("synthetic")

    monkeypatch.setattr(cov, "cover_padic_slalom", broken)
    document = fail(["cover", "padic", "--p", "2", "--depth", "2", "--seed", "0"], 10)
    load_validator("error.schema.json").validate(document)
    assert "repro" in document["error"]


# plans that carry the other mode's field as well, null included
PLANS_WITH_BOTH_FIELDS = [
    {"mode": "padic", "boundaries": [0, 3], "p": 2, "orders": [2, 2, 2]},
    {"mode": "padic", "boundaries": [0, 3], "p": 2, "orders": None},
    {"mode": "product", "boundaries": [0, 3], "orders": [2, 2, 2], "p": 2},
    {"mode": "product", "boundaries": [0, 3], "orders": [2, 2, 2], "p": None},
]


@pytest.mark.parametrize("plan", PLANS_WITH_BOTH_FIELDS)
def test_plan_with_both_mode_fields_is_refused(plan):
    # the schema and the CLI refuse the same documents
    assert not load_validator("blockplan.schema.json").is_valid(plan)
    document = fail(["build-nullset", "--in", json.dumps(plan)], 2)
    assert document["error"]["type"] == "SchemaError"


def test_error_schema_rejects_junk():
    validator = load_validator("error.schema.json")
    assert not validator.is_valid({"error": {"type": "SchemaError"}})
    assert not validator.is_valid({"error": {"type": "KeyError", "message": "x"}})
    assert not validator.is_valid({"error": {"type": "SchemaError", "message": "x"}, "ok": True})


# where a bundle gets a key its schema does not list, the schema of the
# object there, and the key with a value
UNKNOWN_KEYS = [
    ((), "cover-bundle.schema.json", "note", "x"),
    (("spec",), "nullsetspec.schema.json", "B", []),
    (("spec", "plan"), "blockplan.schema.json", "bloc_orders", [9]),
    (("slalom",), "slalom.schema.json", "widths", "n+2"),
    (("certificate",), "certificate.schema.json", "verifed", True),
]


@pytest.mark.parametrize("path,schema,key,value", UNKNOWN_KEYS)
def test_unknown_keys_are_refused(path, schema, key, value):
    # the schemas and the CLI refuse the same documents, and the error
    # names the key
    bundle = emit(["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"])
    part = bundle
    for name in path:
        part = part[name]
    part[key] = value
    assert not load_validator(schema).is_valid(part)
    assert not load_validator("cover-bundle.schema.json").is_valid(bundle)
    commands = [["verify", "--in", json.dumps(bundle)]]
    if path[:1] != ("certificate",):   # a cover reads no certificate
        commands.append(["cover", "padic", "--in", json.dumps(bundle)])
    if path == ("spec",):
        commands.append(["measure", "--in", json.dumps(part), "--blocks", "1"])
    if path == ("spec", "plan"):
        commands += [["build-nullset", "--in", json.dumps(part)],
                     ["slalom-gen", "--in", json.dumps(part), "--width", "n+2"]]
    for args in commands:
        document = fail(args, 2)
        assert document["error"]["type"] == "SchemaError"
        assert repr(key) in document["error"]["message"]


def test_misspelt_verified_no_longer_skips_the_count_check():
    bundle = emit(["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"])
    bundle["certificate"] = {"translate": bundle["certificate"]["translate"], "verifed": True, "checked_count": 5}
    assert "'verifed'" in fail(["verify", "--in", json.dumps(bundle)], 2)["error"]["message"]
    bundle["certificate"]["verified"] = bundle["certificate"].pop("verifed")
    assert "claims 5 checked elements" in fail(["verify", "--in", json.dumps(bundle)], 2)["error"]["message"]


@pytest.mark.parametrize("kept", [("verified", "checked_count"), ("translate", "checked_count"),
                                  ("translate", "verified"), ("translate",)],
                         ids=["no-translate", "no-verified", "no-checked_count", "translate-only"])
def test_certificate_must_carry_its_claims(kept):
    # a certificate that drops a claim no longer defaults it to false or 0,
    # which skipped the count check
    bundle = emit(["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"])
    certificate = {key: bundle["certificate"][key] for key in kept}
    missing = next(key for key in ("translate", "verified", "checked_count") if key not in kept)
    bundle["certificate"] = certificate
    assert not load_validator("certificate.schema.json").is_valid(certificate)
    assert not load_validator("cover-bundle.schema.json").is_valid(bundle)
    document = fail(["verify", "--in", json.dumps(bundle)], 2)
    assert document["error"]["type"] == "SchemaError"
    assert repr(missing) in document["error"]["message"]


def test_cube_check_payload_refuses_unknown_keys():
    from test_fuzz import DOCUMENTS

    for payload in DOCUMENTS["cube"]:
        load_validator("cube-check.schema.json").validate(payload)
        assert emit(["cube-check", "--in", json.dumps(payload)]) == {"covered": False, "witness": [0, 0]}
        misspelt = dict(payload, famly=[])
        assert not load_validator("cube-check.schema.json").is_valid(misspelt)
        document = fail(["cube-check", "--in", json.dumps(misspelt)], 2)
        assert document["error"]["type"] == "SchemaError"
        assert "'famly'" in document["error"]["message"]


@pytest.mark.parametrize("descriptor,key", [
    ({"type": "Int", "m": 2}, "m"),
    ({"type": "Torus", "parts": []}, "parts"),
    ({"type": "Cyclic", "m": 2, "p": 3}, "p"),
    ({"type": "Padic", "p": 3, "m": 9}, "m"),
    ({"type": "SumOmega", "parts": [{"type": "Cyclic", "m": 2}], "p": 2}, "p"),
    ({"type": "FiniteSum", "parts": [{"type": "Int"}, {"type": "Reals", "m": 2}]}, "m"),
])
def test_descriptor_with_unknown_key_is_refused(descriptor, key):
    assert not load_validator("descriptor.schema.json").is_valid(descriptor)
    for command in ("dual", "classify", "pipeline"):
        document = fail([command, "--in", json.dumps(descriptor)], 2)
        assert document["error"]["type"] == "SchemaError"
        assert repr(key) in document["error"]["message"]


def test_error_schema_names_every_error_type():
    # the error document's type enum and the library's error classes
    # cannot drift apart
    classes = [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.NullcoverError)
        and value is not errors.NullcoverError
    ]
    schema = json.loads((SCHEMA_DIR / "error.schema.json").read_text())
    assert set(schema["properties"]["error"]["properties"]["type"]["enum"]) == {c.__name__ for c in classes}


def test_certificate_count_is_not_negative():
    # a JSON integer escapes the pattern, which applies to strings alone
    bundle = emit(["cover", "padic", "--p", "2", "--depth", "3", "--seed", "7"])
    bundle["certificate"] = dict(bundle["certificate"], verified=False, checked_count=-5)
    assert not load_validator("certificate.schema.json").is_valid(bundle["certificate"])
    assert not load_validator("cover-bundle.schema.json").is_valid(bundle)
    document = fail(["verify", "--in", json.dumps(bundle)], 2)
    assert document["error"] == {"type": "SchemaError", "message": "checked_count must not be negative"}
