"""Golden bytes: the JSON reports of the README commands, and of four more,
hash to frozen values. The extra four cover the Poisson sampler, the
zero-volatility path, and two sample counts cut into four pieces, the last
one short, where the rounding of the per-piece moment merge shows.
Their CSV and text reports, and all three formats of five more commands
(the other three --variance models, and two more sample counts cut into
short last pieces), are frozen too. Each command runs once and its report
is rendered in every format.
Any change to how draws become numbers that moves one byte of a report
fails here; a deliberate move must update the hash and say why.
"""

import functools
import hashlib
import io

import pytest

from bslab.cli import COMMANDS, FORMATS, execute, parse_args

OPTION = ["--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1"]
LADDER = ["--samples", "5000", "--seed", "2024", "--n-ladder", "16,256,4096", "--epsilon", "0.01"]

# command -> sha256 of its --format json report
GOLDEN = {
    "price": (["price", *OPTION, "--vol", "0.15"],
              "efc7f49c364a5c24995fd4ddcf3c28d38cc78374466fcd1a44ed7bba9cd5d9ff"),
    # price 3.00757043189885 from the mode-centred weights and exact sums of
    # bslab.tree (40-digit lattice sum, with p at 40 digits too,
    # 3.0075704318989252). The step probability (exp(r*t/n) - d)/(u - d)
    # cancelled: prob_up was 0.5009583355702923, now 0.5009583355703151 from
    # expm1/sinh, and the price was 3.0075704318807173. The discount moved
    # inside each node, and the price from 3.0075704318988503 to 3.00757043189885
    "tree": (["tree", *OPTION, "--vol", "0.15", "--steps", "10000"],
             "347fdff18b1115c624e01d717e0da393a7733262d2ab12ef9a3e2f57eb0e187a"),
    # each payoff subtracts kappa_lo, the rounded-off rest of the forward strike,
    # too: price 3.0122636161528518 -> 3.012263616152851, std_error
    # 0.004804665292930579 -> 0.004804665292930578
    "mc": (["mc", *OPTION, "--vol", "0.15", "--paths", "1000000", "--seed", "42"],
           "595c1c1a7f9a583351c5b616cff85e1e0f4f280a2f8425b3c9e94a59c5e3443c"),
    "clt_demo_two_point": (
        ["clt-demo", "--model", "two_point", "--variance", "0.0225", *LADDER],
        "a92ffa26ccc44981b6da1e9e7ac6e3fdbc7ed5b1ebec70d4ca79165827e16241"),
    # the lindeberg_source diagnostic is gone: every Lindeberg value is analytic
    "lindeberg_poisson_jump": (
        ["lindeberg", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2",
         "--samples", "100000", "--seed", "42"],
        "e53ec1eec28354358b0dc1824e030f5a3d17d4ce4a7df3454d14b8cbdca000c6"),
    # the fourth moment is two squares, not a fourth power: the last digit
    # of variance_std_error at horizon 0.25 (1.7704595405028295e-05 ->
    # 1.77045954050283e-05) and of intercept_std_error (5.0051926398784384e-05
    # -> 5.005192639878439e-05) moved
    "var_linearity": (
        ["var-linearity", "--model", "normal", "--variance", "0.0225", "--samples", "200000",
         "--seed", "7", "--horizons", "0.25,0.5,1,2"],
        "9e3281aa20aba650937e403867d728e1dbb1b029d168972e85227acafca0c256"),
    "clt_demo_poisson_jump": (
        ["clt-demo", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2", *LADDER],
        "ae0ede591f069a25dfe3a4922097c1917662f00272ad75dac7632adfe5aeafff"),
    "mc_zero_volatility": (
        ["mc", *OPTION, "--vol", "0", "--paths", "1000000", "--seed", "42"],
        "1d4a92275811f97dc23af2b5fcf1de9aef4c4552b4bd021e3652e0d41504407b"),
    # payoffs subtract kappa_lo too: price 2.991917606835092 -> 2.991917606835091,
    # std_error 0.010782923294793986 -> 0.01078292329479398
    "mc_196625_paths": (
        ["mc", *OPTION, "--vol", "0.15", "--paths", "196625", "--seed", "42"],
        "5fb74394bec22e8cf4e69c196fc1243e6eeac602c0022f07cf0dd29fc76755ff"),
    # the lindeberg column is the closed-form tail, no longer the Monte Carlo
    # estimate (0.022327463458216273 -> 0.022417887961715257 at n = 16), and
    # the lindeberg_source diagnostic is gone
    "lindeberg_uniform_200017_samples": (
        ["lindeberg", "--model", "uniform", "--variance", "0.0225", "--samples", "200017",
         "--seed", "42"],
        "72c273fbf881e210abcb59a7e02c5a2e6daa299931f019a684a571c222a5dd09"),
}

# commands hashed in every format below, beside the GOLDEN ones
MORE = {
    "clt_demo_uniform": ["clt-demo", "--model", "uniform", "--variance", "0.0225", *LADDER],
    "clt_demo_centered_exponential": [
        "clt-demo", "--model", "centered_exponential", "--variance", "0.0225", *LADDER],
    "clt_demo_normal": ["clt-demo", "--model", "normal", "--variance", "0.0225", *LADDER],
    "lindeberg_centered_exponential_150001_samples": [
        "lindeberg", "--model", "centered_exponential", "--variance", "0.0225",
        "--samples", "150001", "--seed", "42"],
    "var_linearity_poisson_jump_70000_samples": [
        "var-linearity", "--model", "poisson_jump", "--jump-size", "0.5", "--intensity", "3",
        "--samples", "70000", "--seed", "7"],
}
ARGV = {**{name: argv for name, (argv, _) in GOLDEN.items()}, **MORE}

# (command, format) -> sha256 of that report, for the formats GOLDEN leaves out.
# The uniform and centered_exponential clt-demo and lindeberg reports carry
# the closed-form Lindeberg tails, no longer Monte Carlo estimates (clt-demo
# centered_exponential at n = 4096: 0.0038247959452624215 -> 0.003336963289382497);
# their KS statistics, verdicts and mc_estimate columns keep their bits.
DIGESTS = {
    ("price", "csv"): "6a5294998d1616c46491f325deb1f37ac7394f5fd8ade27e0b15de0e53582710",
    ("price", "text"): "e2b6e96494220fabec60342fed539470e8908d85a0d96b63487e3c8e7b8e06bf",
    # the lattice price with the expm1/sinh step probability (see GOLDEN)
    ("tree", "csv"): "5a4e7386c84e4d2e7de4bf3cfef9ef395757ae638119b474271f1c457f8c8b20",
    ("tree", "text"): "64a84730be7cc734c0b05b14ed4d17a360484fa28442ab5e050d6ac24cd756f5",
    ("mc", "csv"): "abe8c92ea2f2b22dcc425f656f891123e89267097fa0cf96f409033f3fd3ea94",
    ("mc", "text"): "4bb778af8a96df3998583033212551327a516dafca9e44d67c6d1eeace0a7fc6",
    ("clt_demo_two_point", "csv"):
        "7221533fdf006e4c53d45e472e2889157c916f64075078b5a533b7c57fe586cd",
    ("clt_demo_two_point", "text"):
        "bfd5fcb47aa5d934cb3d790b3db15860bc6054efdda041e810f252dd7038f555",
    ("lindeberg_poisson_jump", "csv"):
        "c03b1f97e4c984c34f9c53b0cc7caff5bd8b02a1c960e5103f10dac619a19564",
    ("lindeberg_poisson_jump", "text"):
        "5875dad4f87686a864da1b33df8e2764872dc034b9ac499875cc0f200c1bdf9b",
    ("var_linearity", "csv"): "439fd01111ffe39ca251df4c9e491fd0b70f40b0571a05fe8e481ae5277e58e6",
    ("var_linearity", "text"): "6ca10c721d2fee41a5dbf412493a477c5d29e310aca1d76f4c085f035ce8a4f1",
    ("clt_demo_poisson_jump", "csv"):
        "04ab4c26dcfb4f07e5f6869534e8632c0c3ae6697e6c8ae829c7b8aa27a352d0",
    ("clt_demo_poisson_jump", "text"):
        "5d834b87742a6e9fcfd586fb5573e0a2c2c6e113c27f4a6eda5094203c094864",
    ("mc_zero_volatility", "csv"):
        "8529d012d7e2345fdfb4f8753a3cbc4899ec89df777539a6cd28827d83f68f26",
    ("mc_zero_volatility", "text"):
        "9f3e97a2ff3b514843337e8a5413279a6a94ea9a4686694dee1eccaf4dca0839",
    ("mc_196625_paths", "csv"): "20280d18059ee41918defb2b4851b67b616ca414b1647bd84dcedc24c432d5b2",
    ("mc_196625_paths", "text"):
        "6d4299b6b84136eb116e8bbf6f0c64ee430abe94883dd331e6d3dd5d0dbc7d3e",
    ("lindeberg_uniform_200017_samples", "csv"):
        "69d64d1ece7f6e4a49638ee5b0423b3dd9d348466900f4d96084f1426f7295fe",
    ("lindeberg_uniform_200017_samples", "text"):
        "df364dbb53587044e01acd64fe4599dce34d9627b4e2c321f799d413c1fe77a8",
    ("clt_demo_uniform", "json"):
        "fa741c02824fec974a09173846b7160cf0c98a3302cb78b753d093b2d4cdbf52",
    ("clt_demo_uniform", "csv"):
        "706b63c2f8eed0ac7f75e086af449082e2a95fff2cd2a694caed111f16c3a7b6",
    ("clt_demo_uniform", "text"):
        "f06472b4861fd065497bfb688df502b7557bd74c45c1a374bd5253c7859f07f0",
    ("clt_demo_centered_exponential", "json"):
        "ab4946377b95ed91df2b250675ca32db32f52d071b3b10d25d3b6673e9a7df84",
    ("clt_demo_centered_exponential", "csv"):
        "b9b76906ea58776a47e6d4761a70d72f01900c01f19962ad7467d2c48d9f46cb",
    ("clt_demo_centered_exponential", "text"):
        "2b988d64b029aaef00ebe47635e06fae14cdc977ed286553e67dec0985d5ec7b",
    ("clt_demo_normal", "json"):
        "46b9fe78994a8449083cf3b3bd45ca201b63a631beb244b87d88d070b35189d2",
    ("clt_demo_normal", "csv"): "795c91831c04a052a0e77e7cf00d904447bdc9c8bd9380670b9c46a43617e889",
    ("clt_demo_normal", "text"):
        "3764d7671778576c09cb2246fabcdfd3f209ca8c5ca3976cc5127b7bc3ae3a30",
    ("lindeberg_centered_exponential_150001_samples", "json"):
        "f59906f9e4234926c430c73b241498dbc157578d9069697f60c4783fe8e7ef4c",
    ("lindeberg_centered_exponential_150001_samples", "csv"):
        "cadd6b6bc72e84d0af725c15176c71f1dae1857347b1d6886c92d8bab4f23a3d",
    ("lindeberg_centered_exponential_150001_samples", "text"):
        "92acc5a93ca439fb07dbfa144a29099b3c3605e205b8b1513de6fed86211468a",
    ("var_linearity_poisson_jump_70000_samples", "json"):
        "da05b62564aca8359e439988a9e75f17878d1df6677d5c8c2c693ebebb306b6c",
    ("var_linearity_poisson_jump_70000_samples", "csv"):
        "9a84c83984eccaecc81aab3d4db6a2033c56caf30d26008c06da711af38508b6",
    ("var_linearity_poisson_jump_70000_samples", "text"):
        "0fbe55f521ae35c123d25cd00aa5e289592d453e0d7266a2ca713e94a20feffe",
}


@functools.cache
def _report_digests(name: str) -> dict:
    """sha256 of the command's report in each format, from one run."""
    cfg = parse_args(ARGV[name])
    report = {"command": cfg.command, **COMMANDS[cfg.command].run(**cfg.objects)}
    return {fmt: hashlib.sha256(render(report).encode("utf-8")).hexdigest()
            for fmt, render in FORMATS.items()}


@pytest.mark.parametrize("name", GOLDEN)
def test_json_report_bytes(name):
    argv, digest = GOLDEN[name]
    buf = io.StringIO()
    assert execute(parse_args(argv + ["--format", "json"]), out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name, fmt", DIGESTS)
def test_report_bytes(name, fmt):
    assert _report_digests(name)[fmt] == DIGESTS[name, fmt]
