"""Golden corpus: the sha256 of every subcommand's output on small cases.

Each case runs ``spanflats.cli.main`` in a scratch directory with relative
file names (table params echo input paths) and pins the sha256 of stdout
and, where the case writes one, of the ``--out`` file. Table commands run
in both formats and at ``--jobs`` 1 and 2, and every width must give the
same bytes. A change to any output byte fails here first.
"""

import hashlib

import pytest

from spanflats.cli import main

# non-integer rational coordinates make serialize_rows print non-unit entries
RATIONAL_POINTS = "1/2,0,0\n0,1/3,0\n0,0,2/5\n1,1,1\n-3/4,2,1/7\n0,0,0\n1/2,1/3,0\n"
SERIES = "# x count\n8 200\n16 1700\n32 13000\n64 110000\n"
# two skew 3-point lines and one more point: two lines (dimension sum 2) cover
# 6 of the 7, and a third line covers them all, so the set is 4-degenerate
# but not 3-degenerate
DEGENERATE_POINTS = "0,0,0\n1,0,0\n2,0,0\n0,1,1\n0,2,1\n0,3,1\n5,7,3\n"
# E^4 with two repeated points, three collinear points and six coplanar ones
# (x_3 = x_4 = 0), so many hyperplane walks meet points already on the
# codim-2 flat of their prefix
POINTS_D4 = (
    "0,0,0,0\n1,0,0,0\n2,0,0,0\n0,1,0,0\n1,1,0,0\n-1,3,0,0\n0,0,1,0\n0,0,0,1\n"
    "1,2,3,4\n0,0,0,0\n-1,1/2,2,3\n3,-1,0,2\n1/2,0,1,0\n1,0,0,0\n"
)

CONSTRUCT_BICHROMATIC = (
    "construct", "bichromatic", "--d", "3", "--n", "10", "--k", "5", "--m", "30", "--c0", "3/2",
)
CONSTRUCT_THETAMK = ("construct", "thetamk", "--d", "3", "--n", "8", "--k", "3", "--m", "4")

# id -> (setup argv lists, argv, --out file name or None)
CASES = {
    "enumerate-emit-json-f2": ((), ("enumerate", "--points", "pts.txt", "--f", "2", "--emit-json"), None),
    "enumerate-emit-json-f1": ((), ("enumerate", "--points", "pts.txt", "--f", "1", "--emit-json"), None),
    "enumerate-out-f1": ((), ("enumerate", "--points", "pts.txt", "--f", "1", "--out", "spanned.json"), "spanned.json"),
    "enumerate-d4-emit-json-f3": ((), ("enumerate", "--points", "pts4.txt", "--f", "3", "--emit-json"), None),
    "enumerate-d4-emit-json-f2": ((), ("enumerate", "--points", "pts4.txt", "--f", "2", "--emit-json"), None),
    "enumerate-d4-out-f3": ((), ("enumerate", "--points", "pts4.txt", "--f", "3", "--out", "spanned.json"), "spanned.json"),
    "enumerate-d4-out-f2": ((), ("enumerate", "--points", "pts4.txt", "--f", "2", "--out", "spanned.json"), "spanned.json"),
    "construct-erdos2d": ((), ("construct", "erdos2d", "--r", "3", "--s", "4"), None),
    # x denominators 1, 2 and 3: the vertex order is taken over L = 6
    "construct-erdos2d-r4-s6": ((), ("construct", "erdos2d", "--r", "4", "--s", "6"), None),
    "construct-bichromatic": ((), CONSTRUCT_BICHROMATIC, None),
    "construct-thetamk": ((), CONSTRUCT_THETAMK, None),
    "construct-purdy": ((), ("construct", "purdy", "--d", "4", "--k", "2", "--seed", "1"), None),
    "construct-purdy-d7": ((), ("construct", "purdy", "--d", "7", "--k", "2"), None),
    "incidences-envelope-bichromatic": (
        (CONSTRUCT_BICHROMATIC + ("--out", "arr.json"),),
        ("incidences", "--arrangement", "arr.json", "--envelope", "--out", "inc.json"),
        "inc.json",
    ),
    "incidences-envelope-thetamk": (
        (CONSTRUCT_THETAMK + ("--out", "arr.json"),),
        ("incidences", "--arrangement", "arr.json", "--envelope", "--out", "inc.json"),
        "inc.json",
    ),
}

TABLES = {
    "verify-purdy": ("verify-purdy", "--d-range", "4", "--k-range", "2:3"),
    "fit": ("fit", "--series", "series.txt"),
    "envelope-sweep-bichromatic": (
        "envelope-sweep", "--construction", "bichromatic", "--d", "3", "--n0", "8", "--doublings", "2",
    ),
    "envelope-sweep-thetamk": (
        "envelope-sweep", "--construction", "thetamk", "--d", "3", "--n0", "8", "--doublings", "2",
    ),
    # two skipped rungs (k >= n, then too few grid vertices) before one ok rung
    "envelope-sweep-skipped": (
        "envelope-sweep", "--construction", "bichromatic", "--d", "3", "--n0", "2", "--doublings", "2",
    ),
    "beck3-mix": ("beck3", "--n-list", "10", "--k-list", "3", "--seeds", "2", "--plant", "mix"),
    "conjecture-search": ("conjecture-search", "--d", "3", "--n", "6", "--samples", "4"),
    "conjecture-search-r4": ("conjecture-search", "--d", "3", "--n", "7", "--samples", "6", "--r", "4"),
    # any 4 points lie on two lines (dimensions sum 2 < r = 3), so every
    # sample is degenerate and every row keeps the column table's fallbacks
    "conjecture-search-degenerate": ("conjecture-search", "--d", "3", "--n", "4", "--samples", "2"),
    "conjecture-search-points-r3": ("conjecture-search", "--d", "3", "--points", "deg.txt", "--r", "3"),
    "conjecture-search-points-r4": ("conjecture-search", "--d", "3", "--points", "deg.txt", "--r", "4"),
}

# id -> (sha256 of stdout, sha256 of the --out file or None)
GOLDEN = {
    "beck3-mix/csv": ("c9b63b6471efc12ce99802942465e8995d9ad3b33d1fefb908383a61bb62db6b", None),
    "beck3-mix/json": ("942eaa076380da2657e95cf1be08ef5269bd51a501da5e5d8f80b030f58db1f5", None),
    "conjecture-search/csv": ("f02a669ee95ac7fc55751aef47c0db103c0d9c8f53e6f169beeb55932f4538f0", None),
    "conjecture-search/json": ("5266bf2a3e4b352f628bb5ed2ba53e6c0f560e0806b103e4ae4a57d97c32ba44", None),
    "conjecture-search-degenerate/csv": ("316e96e47390b114113bc4208d1eaefe31f53a79cdbee73544d3b0c05c01ef3f", None),
    "conjecture-search-degenerate/json": ("104148cab868a63f15ccc635d9673c920629ce6d7fd330e9d48c484ee799f56c", None),
    "conjecture-search-points-r3/csv": ("0b7db298a4bb1089f74f8d6665d83f377b77e0602ad792c3e191a5bd0db6f38a", None),
    "conjecture-search-points-r3/json": ("a4e4ad314599d07a5a026448764a4c9eab44ce8e38a7dc5ac3dd844dff4c3c07", None),
    "conjecture-search-points-r4/csv": ("e9b0865f2f1acc2e0479b8e0f0a8e1d16bab171fc09a9083fbc898e42572dc33", None),
    "conjecture-search-points-r4/json": ("3834f0ed3fa277bb66cda41936794835fa01274faec6773c5f55700f05721759", None),
    "conjecture-search-r4/csv": ("b04a68870e13c82594119bdee3a76c5e8ee75d29078c7fef1c38b513fb9b2ad2", None),
    "conjecture-search-r4/json": ("4f6fd074c0d01952596b909540a277c718b8a69b99191169f2aedda4cacbe4cd", None),
    "construct-bichromatic": ("d57710fa9f39ffb060991615f30a5bdb50e7d275fae7a4b789cce0344b8d11b8", None),
    "construct-erdos2d": ("21836d8e7881396f2d077a040c7c6d06328929448d9e55e1c02baa497bb1fd15", None),
    "construct-erdos2d-r4-s6": ("66d3af0c57312b60bee6abc699f568b9a4690ba00131665b49bff54abfdf5453", None),
    "construct-purdy": ("296006aa5c1e7d8f4d4e71432190dd707031119bb0b3847f33cf087c8088bb35", None),
    "construct-purdy-d7": ("e402806e9774ccc5b4302230b78a6675289776015b0a66d9be43522ff71de8ca", None),
    "construct-thetamk": ("1e45f7982e7404215a40b6860b580f99d13bd8da17042790d53887fceecfd7d2", None),
    "enumerate-d4-emit-json-f2": ("28178e8a11959f314f8718887920bd9b611e7c47c735fe2cec54a071ab77ede3", None),
    "enumerate-d4-emit-json-f3": ("cff47693e4df84731d34799fb24258999c360e6de25b29e0c1d0c65523ca3839", None),
    "enumerate-d4-out-f2": ("87574c1abffa14d93d932b1f75f4360b83c6d1ccf3e514c6ca4de4081a9fbd31", "628229ca72d6920bc1f0e585e364926bfe26496cfbdec426c3326e270e41d609"),
    "enumerate-d4-out-f3": ("3b2b717b495cea40b7e1adeddc02cb9a68be0e674131fd80bd1f8b159c9dbaff", "cdd9b821224ea4c2b9c4075916bd89ff0ae6bc63cf97287918c2f0fa3bac8a8c"),
    "enumerate-emit-json-f1": ("be8e9a90db67c3827b582ded99e3642706b5b6f355909c6e82b4efe04da5d799", None),
    "enumerate-emit-json-f2": ("72eb694729b777b3a559da8de89ebac0f9cfa8855b7246931f573f1c3a94154f", None),
    "enumerate-out-f1": ("6e2ae11dad0616f66bbb2b6e6556f580bb987fd911d7132aa6bee2bfc7cc7b52", "55775b5f76c3b4ac5840fea661150ad5216c3c3a37c9fc983dc13fae783098f9"),
    "envelope-sweep-bichromatic/csv": ("5557cfcc4af364c62fe069c84718b4f16b0055ae696db3ac02ed138701725aa6", None),
    "envelope-sweep-bichromatic/json": ("a78d51b81ca1f709cf85a69c2b12fc4294f4f2fa4d162f1f2218ba3bb6beb5e2", None),
    "envelope-sweep-skipped/csv": ("91ae37718eb2856e8f6143a10a800473a2c06c1f3cf0e4f5df715a40a0018bc0", None),
    "envelope-sweep-skipped/json": ("3b5db28b8b6505b5a219a69ef93de96a7d520fa0a32c0a9cae8f4007d6b43e62", None),
    "envelope-sweep-thetamk/csv": ("826f8f5767211aefbaefb901d8f0e3a4f3ad79bef718436995e8f0a8438769f8", None),
    "envelope-sweep-thetamk/json": ("ce79b73d610c5af090840d97f7a05ea6b5b7bfa90efec67f8487f0e01956c943", None),
    "fit/csv": ("c59e8cd7b87090c1fefee0075154810cca88b95ecd285236fbabfa1435a3d643", None),
    "fit/json": ("bce2ad1440024ea39ac6cd52cfaad55af89615a500d57779c3c3a333bb265602", None),
    "incidences-envelope-bichromatic": ("673650f936cb3b0a2f93ce09d81be10748b1b203c19e8176b4eefc1964a0cf3a", "4509663c5902caae2759c4523421ba451eb66b04c02a70a047228a4a6d5ea0c3"),
    "incidences-envelope-thetamk": ("a1fb50e6c86fae1679ef3351296fd6713411a08cf8dd1790a4fd05fae8688164", "88ee891b6fc0ddae2bab640473c986b6d84884799e9bbd17a1ed25709680c5cb"),
    "verify-purdy/csv": ("b0b8504af2cd6f69d57fa11fe2af767056e4760b909e070390c672676c332d09", None),
    "verify-purdy/json": ("c9282980e73a3ed193aeb09139d42b738fd7205f7278070e350bd93735b7dea1", None),
}


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_case(setup, argv, out_name, directory, capsys) -> tuple[str, str | None]:
    (directory / "pts.txt").write_text(RATIONAL_POINTS)
    (directory / "series.txt").write_text(SERIES)
    (directory / "deg.txt").write_text(DEGENERATE_POINTS)
    (directory / "pts4.txt").write_text(POINTS_D4)
    for pre in setup:
        assert main(list(pre)) == 0
    capsys.readouterr()
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    out = _sha((directory / out_name).read_text()) if out_name else None
    return _sha(stdout), out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    setup, argv, out_name = CASES[case]
    assert run_case(setup, argv, out_name, tmp_path, capsys) == GOLDEN[case]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_golden_table(table, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    widths = [()] if table == "fit" else [("--jobs", "1"), ("--jobs", "2")]  # fit takes no --jobs
    for jobs in widths:
        argv = TABLES[table] + ("--format", fmt, *jobs)
        assert run_case((), argv, None, tmp_path, capsys) == GOLDEN[f"{table}/{fmt}"]
