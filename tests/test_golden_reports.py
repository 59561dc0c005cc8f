"""Byte-identity of reports on the shipped corpus.

For every ``corpus/*.json`` the SHA-256 of three reports is pinned: the
Auslander verification report, a one-sample certify report at seed 0 and
the ``catres analyze --format json`` output.  Reports are canonicalised as ``scripts/run_corpus.py`` does (JSON with
sorted keys, the ``version`` key dropped), so a change to the arithmetic
carrier, the sampling or the report layout that moves one byte of any
report fails here.

The primitive idempotents of Lambda and of its Auslander algebra T are
pinned the same way on inputs beyond the corpus (``IDEMPOTENT_GOLDEN``).
Lambda's digests were taken with the former splitting route, which
``tests/oracles.py`` keeps.  T takes its idempotents from its local
pieces (``auslander.local_piece_radical``), not from a split; T's digests
equal the split's on the basic inputs whose split lists the pieces in the
same order, and were retaken from the pieces on the others (F_2[S_3],
F_5[C_4] and the matrix algebras).

The set-up of F_3[x]/x^6 (dim T 91) is pinned as well (``SCALE_GOLDEN``):
most of its products take the row-gather route of the int64 product,
which the corpus set-ups are too small to reach; its digests were taken
with the dense product.

The tri-state global dimensions of Lambda and of T are pinned at the
resolution depths where the answer turns from unknown to finite or
infinite (``GLDIM_GOLDEN``); the digests were taken with the former
resolution loop, which ``tests/oracles.py`` keeps.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from catres.auslander import build_auslander, verify_auslander
from catres.certify import CertConfig, certify_resolution, report_to_json_str
from catres.cli import main
from catres.corpus import truncated_poly_algebra
from catres.homology import global_dimension
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec
from catres.modules import context
from test_algebra import idempotent_inputs

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

# file -> (verify_auslander digest, certify_resolution digest, analyze digest)
GOLDEN = {
    "gentle_two_cycle_f2.json": (
        "957e06f93eda2c79437fb58dff4bc7d0ce7879f29ffa81b55ed127d85ecb10e1",
        "9a58cabc3e98809176c0720772c2181edf699b64a9ff0908fb18fc9bcdd0785e",
        "ed28bd387430c36ea269b3865eec49f01dbcef874526ae69dfada89c7507b3a0",
    ),
    "kxk_f5.json": (
        "5baa8fb9cc6297cf1021c5364879abfd2769949861ed376d07fdfa577526ad8a",
        "f539b265bf56ff69fa7e3af2c32ac5b2f5b73488a3907b9ee82e1c1cc4cb7317",
        "659a01327fe056dd439cd19c638297c772afc46cac313f06bd2e8e1eb639103d",
    ),
    "t2_f3.json": (
        "ca581e03c83ae52cc4b8149c8f1c5ce8541b2f7fdbfbb81c4fd63e3f641d9806",
        "7c8f9ea2b12db12f892d3aa4a0dcc1edc1090341f9c22c3d5a9762edb817434d",
        "77d3978cf2bd53475b08714ff1f8840870ac64c657f4d82982f7ff472350914a",
    ),
    "x2_f2.json": (
        "959adda31545a3e9094b79b5659874b4acb7f6053fbcf8e2fb0b64ecc288d8ef",
        "4f10dfd917501b640dcc1c6e0465b542b2b8b1d3e0246ed70049d4fa00e64f8c",
        "22fefd5a4bd35876d77b360d21efb622f233f86fbb5586b6f172f5750d748f64",
    ),
    "x2_f5.json": (
        "959adda31545a3e9094b79b5659874b4acb7f6053fbcf8e2fb0b64ecc288d8ef",
        "27041346ad07c719006e4e152a6b4ef371d6beef807437d420cee84e99805155",
        "c516a59d3e49cd7224b0baa7292e8e382e71fa34954ec564cc138deddb61c139",
    ),
    "x3_f3.json": (
        "6da3c3115380cbb2bc7834dcb97bf61b4f6d71952d0f50ceda46d5be159e1166",
        "c4b7c41cd60a54a2fc7589a11a7da4f064627e8161737f941110db83c3a5d310",
        "4d783fc2825d434ea1abd132148198e1ae7bfc19d815965f2206be4f83650ce7",
    ),
    "x3_f7.json": (
        "6da3c3115380cbb2bc7834dcb97bf61b4f6d71952d0f50ceda46d5be159e1166",
        "4db5382e21d378b1d4f7b9d028773007025e34e2e305f0b8fd6e8bca472bd19d",
        "54ba2a0a5e1d71a328f1c06f26131cda99d7784ee14cb43239202a47674afd76",
    ),
    "x3_q.json": (
        "6da3c3115380cbb2bc7834dcb97bf61b4f6d71952d0f50ceda46d5be159e1166",
        "c4f69dffc54c54d21b10197f686a7f68b5177f8e1b35fd422ae0c4cfd2573ab6",
        "c41541b017fbd98df8fc7be7ec5cd6b5c3e449dfa952852fe7d96b46b96a7ef6",
    ),
}


def _digest(report: dict) -> str:
    canonical = {k: v for k, v in report.items() if k != "version"}
    return hashlib.sha256(report_to_json_str(canonical).encode()).hexdigest()


def test_every_corpus_file_is_pinned():
    assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_are_byte_identical(name):
    lam = parse_algebra_or_quiver(json.loads((CORPUS / name).read_text()))
    verify = verify_auslander(build_auslander(lam))
    certify = certify_resolution(lam, CertConfig(seed=0, samples=1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(CORPUS / name), "--format", "json"]) == 0
    analyze = json.loads(out.getvalue())
    assert (_digest(verify), _digest(certify), _digest(analyze)) == GOLDEN[name]


# -- primitive idempotents of Lambda and of T ----------------------------------
# The splitting of A/J draws from a seeded rng, and T's pieces follow
# Lambda's idempotents; the simples, projectives and resolutions of both
# algebras follow the idempotents, so their exact rows are pinned on inputs
# beyond the corpus.

# label -> (digest of Lambda's idempotents, digest of T's, or None where
# T is too large to build in the suite: dim T of F_3[A_4] is 95)
IDEMPOTENT_GOLDEN = {
    "kQ/J^2 on the 4-cycle over F_2": (
        "1bf48d52a9856cf3f8597bd6dd73e5887c57986992778668cd49cf9231829f81",
        "5d3dba652918ccee23c53b1fcb82c01b5a4a5c5796872fb547ce06d1fb62e5ab",
    ),
    "F_2[S_3]": (
        "e335b84603c200187805cd6aaac229aeefa177cd7e28dcdd303cfe48e2a27df5",
        "2c192468a0a1e8d918f5b38b376ef4f04fe515f1a95517c9b7eb70bb16db0799",
    ),
    "F_3[C_6]": (
        "749e443ce1a79fd86dd2f5d5c64f84089773b0713cc72d5afb28c305cce568b8",
        "2f25e3d71c86b5be0b0989f7720e81b4c9fa19ae675cc3fc5ad7219a195a3d13",
    ),
    "F_5[C_4]": (
        "0db86bad9e9eef56713f310e1f8b326983407d9318cf623f9c49834aa0cc1004",
        "c93eb6e63d5da484ec6e9e20b45deb2c5f345e9887bc7e136a0ad0c508873154",
    ),
    "F_3[x]/x^4": (
        "df57496bcb758c99abc5739bd1f882249ca1f674dc1b82f1787758ed232e8e1d",
        "5aefbfbc96c752b0af9764e55323e248252c7c09ab781bd5cece63b768567516",
    ),
    "M_2(F_3)": (
        "c2dd527f0366f6e670ef4f8339b2d56b36bc040c392f78436c95415d3e8d5436",
        "92ae64e5682eb3f3be6f6163ea1fcb9dcd94ccf613974d1b78abeb0021640851",
    ),
    "M_2(F_5)": (
        "63996c4ad1cb1e7c07d7396f3fde94fb94d2e678df1191c98d8994758a2361b0",
        "645d73c2f37a2689adf8cb322cfe7729d3258ac41e216569e92bd3f6de9da4c8",
    ),
    "M_2(Q)": (
        "101317f0a681cd3e5185b9fe6274e79d42c7802527b1fbfadc4cef40ce529863",
        "9af084b7286b929f2834a1889210e3a38522ac8a56b1306eeac42e0674860e62",
    ),
    "M_2(F_3) x M_2(F_3)": (
        "9f885b14ce781e31cc0c55b5156914b31547d6f3366b255ba6eea9a816f730ef",
        "589d2875934b58fb901d2b7d79e44d586da21f76c6179bba77d2ffc2a74efc66",
    ),
    "F_3[A_4]": (
        "b148856d4270221c0e0fe0b8145db197226958aff8b9cd6bb13cad7304f925c1",
        None,
    ),
}


def _idempotent_digest(A) -> str:
    rows = [e.to_json()[0] for e in context(A).idempotents]
    return hashlib.sha256(report_to_json_str(rows).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(IDEMPOTENT_GOLDEN))
def test_idempotents_are_byte_identical(label):
    lam = idempotent_inputs()[label]()
    lam_digest, tilde_digest = IDEMPOTENT_GOLDEN[label]
    assert _idempotent_digest(lam) == lam_digest
    if tilde_digest is not None:
        assert _idempotent_digest(build_auslander(lam).tilde) == tilde_digest


# -- the set-up at scale -----------------------------------------------------

# digests of the verification report, T's table and T's idempotents
SCALE_GOLDEN = (
    "e55fe9b1f0ff2ce6692b4dbf48e8fcb6a93d55e65107b58b558d8ef75066f6a8",
    "fd55bc4c87ec54b964af25553990800a5bf2161cfc3b7e3c411df459593d1ac5",
    "d30b49d6f2f826d80c3a6ce73454d75a87dde5747d69ead2677b00673e1bdcd8",
)


def test_the_set_up_of_x6_is_byte_identical():
    data = build_auslander(truncated_poly_algebra(FieldSpec("prime", 3), 6))
    verify = _digest(verify_auslander(data))
    table = hashlib.sha256(report_to_json_str(data.tilde.table_matrix().to_json()).encode())
    assert (verify, table.hexdigest(), _idempotent_digest(data.tilde)) == SCALE_GOLDEN


# -- global dimensions at the depth boundaries ------------------------------
# certify resolves to depth >= 10, past every boundary; these digests pin
# the unknown branch and the finite-at-exactly-max_depth branch as well.

GLDIM_DEPTHS = (0, 1, 2, 3, 4, None)

# file -> digest of [global_dimension(A, d).to_json() for A in (Lambda, T)
# for d in GLDIM_DEPTHS]
GLDIM_GOLDEN = {
    "gentle_two_cycle_f2.json": "3299780ca2020d582d00a828db460f679183f8a12ee5edee5cc5e162ab922c83",
    "kxk_f5.json": "9e21394904d9da988a9f77905bbe6dc9c024fd9f6dcf6af7f7dfe6c19cc2894a",
    "t2_f3.json": "219f27fe9294131845236d533cb5ca284ac420a5eed12ec7d8c380330dcb8bbf",
    "x2_f2.json": "de606df9827184e8e1275dfe0d24e5bbe2d88f9a3738a02f42c38dbb9e0b1ef1",
    "x2_f5.json": "de606df9827184e8e1275dfe0d24e5bbe2d88f9a3738a02f42c38dbb9e0b1ef1",
    "x3_f3.json": "3299780ca2020d582d00a828db460f679183f8a12ee5edee5cc5e162ab922c83",
    "x3_f7.json": "3299780ca2020d582d00a828db460f679183f8a12ee5edee5cc5e162ab922c83",
    "x3_q.json": "3299780ca2020d582d00a828db460f679183f8a12ee5edee5cc5e162ab922c83",
}


def test_every_corpus_file_has_pinned_global_dimensions():
    assert sorted(GLDIM_GOLDEN) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GLDIM_GOLDEN))
def test_global_dimensions_are_byte_identical(name):
    lam = parse_algebra_or_quiver(json.loads((CORPUS / name).read_text()))
    tilde = build_auslander(lam).tilde
    dims = [global_dimension(A, d).to_json() for A in (lam, tilde) for d in GLDIM_DEPTHS]
    assert hashlib.sha256(report_to_json_str(dims).encode()).hexdigest() == GLDIM_GOLDEN[name]
