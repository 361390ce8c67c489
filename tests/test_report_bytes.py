"""Golden bytes: the JSON reports of the README commands, and of four more,
hash to frozen values. The extra four cover the Poisson sampler, the
zero-volatility path, and two sample counts cut into four pieces, the last
one short, where the rounding of the per-piece moment merge shows.
Any change to how draws become numbers that moves one byte of a report
fails here; a deliberate move must update the hash and say why.
"""

import hashlib
import io

import pytest

from bslab.cli import execute, parse_args

OPTION = ["--spot", "50", "--strike", "52", "--rate", "0.04", "--expiry", "1"]
LADDER = ["--samples", "5000", "--seed", "2024", "--n-ladder", "16,256,4096", "--epsilon", "0.01"]

# command -> sha256 of its --format json report
GOLDEN = {
    "price": (["price", *OPTION, "--vol", "0.15"],
              "efc7f49c364a5c24995fd4ddcf3c28d38cc78374466fcd1a44ed7bba9cd5d9ff"),
    # price 3.0075704318807173 from the mode-centred weights and exact sums of
    # bslab.tree (40-digit lattice sum 3.0075704318807124)
    "tree": (["tree", *OPTION, "--vol", "0.15", "--steps", "10000"],
             "87df592c4b94264129257d07c3dd2b3a6e5112e1f9101cee297b935b542ef19d"),
    "mc": (["mc", *OPTION, "--vol", "0.15", "--paths", "1000000", "--seed", "42"],
           "d0ab93dfed49437821a01335abf1e4750e48846dac8a309a187e3c481e73208b"),
    "clt_demo_two_point": (
        ["clt-demo", "--model", "two_point", "--variance", "0.0225", *LADDER],
        "a92ffa26ccc44981b6da1e9e7ac6e3fdbc7ed5b1ebec70d4ca79165827e16241"),
    "lindeberg_poisson_jump": (
        ["lindeberg", "--model", "poisson_jump", "--jump-size", "1", "--intensity", "2",
         "--samples", "100000", "--seed", "42"],
        "0ec9c4a205e6fb1c7990fe8b1c839d0fa20b73730693375b445467ab59fc3f01"),
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
    "mc_196625_paths": (
        ["mc", *OPTION, "--vol", "0.15", "--paths", "196625", "--seed", "42"],
        "a922b939140589e59b46255142dd9909400be47b50a6ffcea602463c9373e031"),
    "lindeberg_uniform_200017_samples": (
        ["lindeberg", "--model", "uniform", "--variance", "0.0225", "--samples", "200017",
         "--seed", "42"],
        "b5adfa08e86ab2caebde6d6916ea9801ab3f3453ef7535f010c2b8e140a14df7"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_json_report_bytes(name):
    argv, digest = GOLDEN[name]
    buf = io.StringIO()
    assert execute(parse_args(argv + ["--format", "json"]), out=buf) == 0
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest
