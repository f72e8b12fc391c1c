"""A bounded random search over argv and JSON payloads: whatever the input,
the CLI exits 0, 2, 3 or 4 and writes exactly one JSON document to
stdout.

Each example picks a command, passes each of its options with some
probability, and draws every value from a mix of plausible and hostile
values.  A payload is usually a valid document of the kind the command
reads with one subtree replaced by a random JSON value, sometimes a
document of another kind, sometimes random JSON.  The seed option is
passed rarely to every command: most runs keep the default, and a
command that does not take it must refuse it.  ``--cap-enum`` and
``--cap-verify`` are passed rarely too, and every command must refuse
them with exit 2, since every cap is a constant.  Left out on purpose:
``--out`` (it writes a file instead of stdout).
"""

import copy
import json
import time

import click
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nullcover.cli as cli
from nullcover import cover as cov
from nullcover.groups import PadicContext


def _kept_without(order, missing):
    return tuple(i for i in range(order) if i not in missing)


def _bundle(spec, slalom, cert):
    return {"spec": spec.to_json(), "slalom": slalom.to_json(), "certificate": cert.to_json()}


def _documents():
    plan = cov.plan_blocks_padic(2, 2)
    ctx = PadicContext(plan.p, plan.boundaries[-1])
    spec = cov.build_nullset(plan)
    slalom = cov.random_slalom(plan, "(n+2)//2", 1)
    cert = cov.cover_padic_slalom(ctx, spec, slalom)
    product = cov.plan_blocks_product([2, 3, 2, 3, 2, 3], 2)
    product_spec = cov.build_nullset(product)
    product_slalom = cov.random_slalom(product, "n+2", 1)
    product_cert = cov.cover_product_slalom(product_spec, product_slalom)
    # hand-built kept sets of several gaps (blocks of orders 8 and 16, and
    # 12 and 18), so that the translator's sweep and both checks' loops
    # over the gaps run
    gapped = cov.NullsetSpec(plan, (_kept_without(8, {2, 6}), _kept_without(16, {1, 6, 11})))
    product_gapped = cov.NullsetSpec(product, (_kept_without(12, {2, 9}), _kept_without(18, {0, 8, 17})))
    return {
        "plan": [plan.to_json(), product.to_json()],
        "spec": [spec.to_json(), product_spec.to_json()],
        "bundle": [
            _bundle(spec, slalom, cert),
            _bundle(product_spec, product_slalom, product_cert),
            _bundle(gapped, slalom, cov.cover_padic_slalom(ctx, gapped, slalom)),
            _bundle(product_gapped, product_slalom, cov.cover_product_slalom(product_gapped, product_slalom)),
        ],
        "cube": [{"plan": plan.to_json(), "family": [slalom.to_json(), slalom.to_json()]}],
        "descriptor": [
            {"type": "FiniteSum", "parts": [{"type": "Int"}, {"type": "Padic", "p": 3}]},
            {"type": "ProdOmega", "parts": [{"type": "Cyclic", "m": 4}]},
            {"type": "SumOmega", "parts": [{"type": "Cyclic", "m": 2}, {"type": "Quasicyclic", "p": 5}]},
            {"type": "FiniteSum", "parts": [{"type": "Torus"}, {"type": "Reals"}]},
        ],
    }


DOCUMENTS = _documents()

# command -> (its options, the payload kind its --in reads)
COMMANDS = {
    ("plan", "product"): (["--orders", "--cycle", "--depth"], None),
    ("plan", "padic"): (["--p", "--depth"], None),
    ("build-nullset",): (["--in"], "plan"),
    ("cover", "product"): (["--in", "--orders", "--cycle", "--depth", "--seed"], "bundle"),
    ("cover", "padic"): (["--in", "--p", "--depth", "--seed"], "bundle"),
    ("verify",): (["--in"], "bundle"),
    ("measure",): (["--in", "--blocks", "--first-below"], "spec"),
    ("ek", "member"): (["--num", "--den", "--depth", "--digits"], None),
    ("ek", "measure"): (["--depth"], None),
    ("ek", "sup"): (["--depth"], None),
    ("classify",): (["--in"], "descriptor"),
    ("dual",): (["--in"], "descriptor"),
    ("pipeline",): (["--in"], "descriptor"),
    ("chain",): (["--orders", "--p", "--depth"], None),
    ("slalom-gen",): (["--in", "--width", "--seed"], "plan"),
    ("cube-check",): (["--in"], "cube"),
}
# drawn rarely, for the commands that take them and for those that do not
RARE = ["--seed"]
# drawn rarely too, and refused by every command
REFUSED = ["--cap-enum", "--cap-verify"]

small = st.integers(-2, 14)
ints = st.one_of(
    small, small, small,
    st.sampled_from([2**31 - 1, 2**64, -(10**30), 10**30, 318665857834031151167461,
                     3317044064679887385961981]),
)
words = st.text(alphabet="0123456789-+_./,eE[]n() x", max_size=10)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=6), ints.map(str)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10,
)
orders = st.lists(st.one_of(st.integers(-1, 9), ints), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
widths = st.one_of(
    st.sampled_from(["n+2", "(n+2)//2", "n+3"]),
    st.lists(ints, max_size=4).map(json.dumps),
    json_values.map(json.dumps),
)
fractions = st.one_of(
    st.builds("{}/{}".format, ints, ints),
    st.builds("1e{}".format, st.integers(-10**8, 10**8)),
    words,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


@st.composite
def payloads(draw, kind):
    # Hypothesis favours the ends of an integer range, so the rare
    # outcomes sit in its middle
    choice = draw(st.integers(0, 9))
    if choice == 4:
        return json.dumps(draw(json_values))
    if choice == 5 or kind is None:
        kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS[kind])))
    if choice in (3, 6):
        return json.dumps(doc)
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return json.dumps(doc)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options, kind = COMMANDS[command]
    args = list(command)
    for option in options + [option for option in RARE + REFUSED if option not in options]:
        if (draw(st.integers(0, 9)) != 5) == (option in options and option not in RARE):
            if option in ("--cycle", "--digits"):
                args.append(option)
            elif option == "--in":
                args += [option, draw(payloads(kind))]
            elif option == "--orders":
                args += [option, draw(st.one_of(orders, words))]
            elif option == "--width":
                args += [option, draw(widths)]
            elif option == "--first-below":
                args += [option, draw(fractions)]
            elif option in REFUSED:
                args += [option, str(draw(st.integers(-1, 1 << 40)))]
            else:
                args += [option, draw(st.one_of(ints.map(str), ints.map(str), ints.map(str), words))]
    if draw(st.integers(0, 19)) == 7:
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(["--bogus", "bogus", "--in"])))
    return args


def _leaf_commands(group, path=()):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, path + (name,))
        else:
            yield path + (name,), command


def test_command_table_matches_the_cli():
    # every leaf command with exactly the options it declares, so an option
    # that is added or dropped shows here; --out is left out on purpose
    declared = {
        path: sorted(opt for param in command.params if isinstance(param, click.Option)
                     for opt in param.opts if opt != "--out")
        for path, command in _leaf_commands(cli.main)
    }
    assert declared == {command: sorted(options) for command, (options, _) in COMMANDS.items()}


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_input_gets_one_json_document(args):
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exit_code == 2 or not set(REFUSED) & set(args), (args, result.output)
    assert result.stdout.count("\n") == 1 and result.stdout.endswith("\n"), (args, result.stdout)
    document = json.loads(result.stdout)
    assert (result.exit_code == 0) != ("error" in document and len(document) == 1), (args, document)
    # only an internal fault (exit 10) echoes its inputs as a reproduction payload
    assert result.exit_code == 0 or "repro" not in document["error"], (args, document)
    assert time.perf_counter() - start < 5, args
