"""Golden records: one cheap invocation of every CLI action, pinned by digest.

Each digest is the sha256 of the run's stdout records, parsed and
re-serialised with sorted keys, with the timing field `wall_time_s`
removed.  They were recorded before the library's internals were
consolidated and must never be edited: a refactor that changes any
number, field or seeded stream shows up here.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from pathscape import cli, verify

S = ["--seed", "11"]

CASES = {
    "hypercube-count": ["hypercube", "count", "--dim", "8", "--x", "0.1", "--samples", "20", *S],
    "hypercube-count-one": ["hypercube", "count", "--dim", "8", "--x", "0.1", *S],
    "hypercube-exists": ["hypercube", "exists", "--dim", "8", "--x", "0.2", "--samples", "20", *S],
    "hypercube-thetak": [
        "hypercube", "thetak", "--dim", "8", "--x", "0.1", "--k", "2", "--samples", "20", *S
    ],
    "hypercube-thetak-one": ["hypercube", "thetak", "--dim", "8", "--x", "0.1", "--k", "2", *S],
    "tree-sample": ["tree", "sample", "--dim", "7", "--x", "0.1", "--samples", "30", *S],
    "tree-sample-one": ["tree", "sample", "--dim", "7", "--x", "0.1", *S],
    "tree-thetak": ["tree", "thetak", "--dim", "7", "--x", "0.1", "--k", "3", "--samples", "30", *S],
    "tree-thetak-one": ["tree", "thetak", "--dim", "7", "--x", "0.1", "--k", "3", *S],
    "tree-exists": [
        "tree", "exists", "--dim", "9", "--X-scaled", "1", "--samples", "40", "--budget", "3000", *S
    ],
    "moments-first": ["moments", "first", "--dim", "12", "--x", "0.05"],
    "moments-second": ["moments", "second", "--dim", "12", "--X-scaled", "1"],
    "moments-var-star": ["moments", "var-star", "--dim", "40"],
    "moments-cond-var": ["moments", "cond-var", "--dim", "30", "--x", "0.02", "--k", "3"],
    "moments-limits": ["moments", "limits", "--dim", "50", "--logscaled", "0.5"],
    "moments-a-coeff": ["moments", "a-coeff", "--dim", "20", "--q", "4"],
    "moments-q0": ["moments", "q0", "--dim", "100"],
    "moments-pair-tree": ["moments", "pair-tree", "--dim", "10", "--q", "3", "--x", "0.1"],
    "moments-pair-cube": ["moments", "pair-cube", "--dim", "10", "--p", "2", "--q", "3", "--x", "0.1"],
    "moments-bn": ["moments", "bn", "--n", "12"],
    "moments-pstar-bound": ["moments", "pstar-bound", "--dim", "1000"],
    "recursion-gf": ["recursion", "gf", "--mu", "1", "--levels", "40", "--grid", "256", "--at", "0.02"],
    "recursion-pexist": ["recursion", "pexist", "--levels", "40", "--grid", "256", "--at", "0.1"],
    "recursion-fk": ["recursion", "fk", "--k", "4", "--zmax", "5", "--grid", "256", "--at", "1"],
    "recursion-delta-check": ["recursion", "delta-check", "--k", "5", "--zmax", "5", "--grid", "256"],
    "cascade-sample": ["cascade", "sample", "--k", "3", "--delta", "1e-4", "--samples", "50", *S],
    "cascade-sample-one": ["cascade", "sample", "--k", "3", "--delta", "1e-4", *S],
    "cascade-ks": ["cascade", "ks", "--k", "3", "--delta", "1e-4", "--samples", "50", *S],
    "verify-moments": ["verify", "moments", "--scale", "0.001", *S],
    "verify-prop1": ["verify", "prop1", "--scale", "0.001", *S],
    "verify-thm4": ["verify", "thm4", "--scale", "0.001", *S],
}

DIGESTS = {
    "hypercube-count": "7648724a78dcf866b487fb69c56fd5fb6a819af08d166914ccc0d77d41898d06",
    "hypercube-count-one": "edf344c7743db211d71495facd88d2d2d532e73873ba53ae235c684ecec9be03",
    "hypercube-exists": "6b227fb5ded297e222ff93747d62e404097a732a9349bce9b306ccc200efdb0e",
    "hypercube-thetak": "45353142d06ee94c47b1ad650323befbb9d591b7776a71acce7148612aaecbb4",
    "hypercube-thetak-one": "3882a015f6bf9e2a243461d218783ae7d4dd84dc2a04a6939d39f1f7bbe49016",
    "tree-sample": "8834f8b9b3b5662be0f8a5df9fe350523b1707675a203e2c76b394420ee823d4",
    "tree-sample-one": "2ec5087d439433e5ff8ad2016f4879790d131309ffc859be04544dfe5e31f232",
    "tree-thetak": "837f518c12db77dff412ccbe7bbf9ce8ff5aee7487cbcca3f017f02de7673524",
    "tree-thetak-one": "4f3762c3f92b7c8ca152fb1351725aebc0a00cbbdb54eb8c85dddf56691436f0",
    "tree-exists": "7c4d09fcd6f2c783f153f9474964dac5e7796258249ac69c563afbe68fedd08f",
    "moments-first": "5d1b569791c41d0fe705c8003ec0626e966c858cb6c14837d471c51de03284d1",
    "moments-second": "b49c53e4cd09142b8589acab58f6b035f6950ed52a0e9111fcedf09fd21a666d",
    "moments-var-star": "58c394b6693e7d6f45aed33e0b67dced2de8d9d11379ec9599a6210789013ad5",
    "moments-cond-var": "758a531b9e7b2e766dd99a1e22f4894088793eaf513d0a3164fea3d3754d1b53",
    "moments-limits": "cac3e728395625cd78d41590dd36129f0f5bb9756f3b430462c43c91254e8724",
    "moments-a-coeff": "16b51db875c638ab5a3fbe555f2959606a499252db5b1c508587b6037244112a",
    "moments-q0": "7a19f3ef98d7bc9fdabb56efdff191c7514ed002ffc6352f2c48047de018267f",
    "moments-pair-tree": "31d9b6d1a2a9764544a253c61291755c6ed4f100947450d4df294a74cfed77eb",
    "moments-pair-cube": "a2fc381dc6fdbafccc8fb49b0b15e02e549b822aeb31da201b3aa16abe9e8559",
    "moments-bn": "0ebd5faaf30f3722674467ff8b0cb7ffbdef94b48bffd6d1c405a3d0fbe4d991",
    "moments-pstar-bound": "bc98d7a37ea85242948bb9052481a1792e1468b2cfcfc311a88a71db457e50b3",
    "recursion-gf": "92f47b0c579e54eaf98550cc1c250ea932d37480d66f9750bf73ac3c46c0a6d3",
    "recursion-pexist": "f51f66e34f65bb5d0099610eb88ebaf360269b25ec52a8f08b4a76bdf3a242a3",
    "recursion-fk": "89e4db06f4e38ca4307d6b4af079616d66ee445e1cd1653af07c3ce2c8c6db34",
    "recursion-delta-check": "a5ee76febd32e2f54db1ee1df238293bdda5b2882f7fe9f98fb496a767c77280",
    "cascade-sample": "ec30fabdaace0d1b21dd812b107ab3a428b3142ca86fe48040b373edf0e16603",
    "cascade-sample-one": "f5fb9da3b35382a251239dfe65504aaebfbc71a6912eae2e22fca136fdbe2419",
    "cascade-ks": "80ddab2903b91ef004ec2f9d4f37f1e7cbc9b9bc4ea07160708ce9259ddfbfd3",
    "verify-moments": "0c858414afcb2a2f8ce11db85820abaa567432d4fcfff0fbaae50d2e9f27f61a",
    "verify-prop1": "ec8f754898284694e0e2576db56ac3b144338713ffd4c7c584c66806fe6e31be",
    "verify-thm4": "733fdad88cbedb42486dba408204c3ab5329b779d90b5dd90d81683924fc7e18",
}

# a check of `verify thm4` cannot pass on the 100 samples of the smallest scale
EXIT_CODES = {"verify-thm4": 1}


def _digest(capsys, name) -> str:
    code = cli.run(list(CASES[name]))
    assert code == EXIT_CODES.get(name, 0), capsys.readouterr().err
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records
    for rec in records:
        del rec["wall_time_s"]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_every_action_has_a_case():
    parser = cli.build_parser()
    groups = parser._subparsers._group_actions[0].choices
    expected = set()
    for group, sub in groups.items():
        action = next(a for a in sub._actions if a.dest in ("action", "battery"))
        names = ["moments", "prop1", "thm4"] if group == "verify" else action.choices
        expected |= {f"{group}-{name}" for name in names}
    assert expected <= set(CASES)
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_record(capsys, name):
    assert _digest(capsys, name) == DIGESTS[name]


# Criteria 1 and 2 run in no battery: the sha256 of their results, as
# `asdict` with sorted keys, at seed 11 and scale 0.05.
ORACLE_DIGESTS = {
    "check_hypercube_oracle": "c1d719cad0fd992814194a5d99c538011f3aa24639b2b5511295bb48165a911c",
    "check_tree_oracle": "2d37270d710d39c0298a99720bcd4457c37c4c7a85e2e258532755e083aa045c",
}


@pytest.mark.parametrize("name", sorted(ORACLE_DIGESTS))
def test_golden_oracle_check(name):
    results = getattr(verify, name)(seed=11, scale=0.05)
    dump = json.dumps([asdict(r) for r in results], sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == ORACLE_DIGESTS[name]
