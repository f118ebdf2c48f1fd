"""Byte-identity of CLI output: sha256 digests of the full stdout.

Each command runs in process through ``main(argv)``.  The digests were
taken from the output of the code before the orbit positions moved into
``mmw.orbit``, and the two v=4 lattice digests before the lattice moved
into orbit space, so any change to what these commands print shows here.
The two ``collapse --exhaustive`` digests and the ``classify --v 4`` one
were taken at commit 0a0f86b, before substitutions were stored as their
level-0 maps.  The four ``countermodel`` digests and the two ``frames
--correspondence`` text digests were taken at commit a2c00c9, before
``valid_on_frame`` lost its ``method`` option and ``FrameCondition`` was
read off the star coordinate.  The ``frames --correspondence --v 3``
digest was taken at commit 078a108, before the frame condition was read
from a per-type table.  The ``lattice --v 3`` (text and json) and
``lattice --v 4`` digests were re-taken on the change after commit
a174039, which prints the orbit labels in label order (Vv0, Dd0, Dc1,
Dw1, ...), the order ``collapse``, ``axiom`` and ``system-of`` print,
in place of a sort by prefix; the outputs differ from the old ones only
in that order.
A command given as ``("axiom", ...)`` inside another command's argv is
replaced by the first line that the ``axiom`` command prints (its
defining formula), which reaches coordinates in the middle of the
lattice.
"""

import hashlib

import pytest

from mmw.cli import main

GOLDEN = {
    ("lattice", "--v", "3"):
        "dfc6599437941f96ff552adc07ca948941a41645a74a89c6af2cc673236a9c3b",
    ("lattice", "--v", "3", "--format", "json"):
        "a09b055d3fdbba86bd050b46aece3cc8e3f227a00cbac4c0d166081c08a81150",
    ("lattice", "--v", "2", "--format", "dot"):
        "485fdfab59e0e8cfe7f22964d377e42c0fd1f6e7cc461bcef0b8f05a074673d4",
    ("lattice", "--v", "4"):
        "410e0f8c137728c395aea216aea225fc4d4ff2951c8cd07af227a5300842259e",
    ("lattice", "--v", "4", "--format", "dot"):
        "967bf55a3df4234ef5e109eab67ea6e2a6ca0317fe2217208f1a7d19bc8cb3cb",
    ("orbits", "--v", "3", "--format", "json"):
        "eed23d6bb6e7daefbec992d7d3a91187abaa8c286c839ec971de6fcc43f4d44c",
    ("classify", "--v", "2"):
        "5ac5838e6cff063dd52ca26c01db03f2ba5afaeb3742b794f2e74574d75abdbe",
    ("classify", "--v", "3"):
        "3b9e97d6151659ad49341c59b5550bffbdd4bb76481f2070fe34a44a0e1bf7d9",
    ("frames", "--correspondence", "--v", "2", "--all-coords", "--format", "json"):
        "161c73ab088a07630fe3a14c777cbf1164f648e52a964153d4cc62a11f0110f8",
    ("system-of", "[]p->p"):
        "9dc3e5a8a2f0d00179d3699e6d8f2798739ed45fd57b242afcb288071c81039d",
    ("system-of", "[]p-><>p"):
        "c1ec371e65db28d1e93c5c8152b91d28e47b1ab032beafcfa5181e0465709035",
    ("system-of", "pq<>p<>q-><>(pq)"):
        "13f2f0db83180b293f009ee01a8961f69d9c0b8a1b5801764c889d5e968986c1",
    ("system-of", "pqr->[](pqr)"):
        "922c2a11eff281bf93caee71f827d109f5a6d69dc2a1781425151c17b2c46b51",
    ("system-of", "pqrs->[](pqrs)"):
        "400e69abe7a834cb1f6deb33181a174276f455b91f0e72ee0c5bee39ce1086e9",
    ("system-of", ("axiom", "--plane", "K", "--x", "1", "--y", "2", "--v", "2")):
        "471d59fee6f49738bb9f2f2da38e5aae4622fc6f77ece3a40a4349012babe897",
    ("system-of", ("axiom", "--plane", "D", "--x", "2", "--y", "2", "--v", "3")):
        "4b29bf1e45ccf9e5ebaa1d97a29622967609d5cc3337a6d17438be7e66c969ef",
    ("collapse", "--v", "1", "--format", "json", "[]p->p"):
        "8c405a7a9fadddcf131f8f4ed93398b4f98125df0ae36c93f03efce6f5777506",
    ("collapse", "--v", "2", "--format", "json", "pq<>p<>q-><>(pq)"):
        "0684d43461f91678b211fb75264d19ad7ca613bd4e83a99e77a697ac65f10f79",
    ("collapse", "--v", "3", "--format", "json", "[](p->q)->[]p"):
        "9515383bb497b312cfc23579478dbe60816aecf581048b02e82aed5b9f6bbbf3",
    ("collapse", "--v", "2", "--format", "json",
     ("axiom", "--plane", "D", "--x", "2", "--y", "3", "--v", "2")):
        "536a9ef15f4ad633d13c832985db075178badf56998b794dcb31cfce8ba15fca",
    ("collapse", "--v", "3", "--format", "json",
     ("axiom", "--plane", "K", "--x", "3", "--y", "4", "--v", "3")):
        "56f758cb74e430111280a2d91c104f7f787f961ec5b4494b2df990472aa88c07",
    ("collapse", "--v", "4", "--format", "json", "pqrs->[](pqrs)"):
        "02c816eb9ca191f6a2b8a60bf84a1cd520a12989749f6de06ade371580c8d4e4",
    ("collapse", "--v", "2", "--exhaustive", "p->[]p"):
        "dfe5aac79432219ef477880ce6187e2ba33216460801bd1dee09956852082b38",
    ("collapse", "--v", "2", "--exhaustive", "--format", "json", "pq<>p<>q-><>(pq)"):
        "0684d43461f91678b211fb75264d19ad7ca613bd4e83a99e77a697ac65f10f79",
    ("classify", "--v", "4"):
        "415d476e26bcea6b0f6d43a8310a053937bb06e131a99010d68998911cd87905",
    ("countermodel", "[]p->p", "--max-worlds", "3"):
        "1f1ca502de09127ccaf124e1c7e07bb0c8d96898b2387c10d4d7b3d74df17caf",
    ("countermodel", "--format", "json", "[]p->[][]p"):
        "1539d5c56fe556b33fe7ec9b387c7c68bea016bb4142357568be59db819c4337",
    ("countermodel", "--format", "json", "pq-><>(pq)"):
        "e711fa1018720b42dd56cdfd857fd78b4419e645a78f6e247542cacd728a99c2",
    ("countermodel", "--format", "json", "[](p->q)+[](q->p)+[](p+q)"):
        "eca4934421fb9f230eef8abc51e9fbb6594c1a704e3bae4ae44c40939550eb31",
    ("frames", "--correspondence", "--v", "1", "--plane", "D", "--x", "0", "--y", "*",
     "--max-worlds", "4", "--sample", "200", "--seed", "7"):
        "c813a308e8d2e36e7220f0dfc7278354be37c83441b50d838eeb9ba1db6b690d",
    ("frames", "--correspondence", "--v", "2", "--all-coords"):
        "cc3d683d69257dc85b0f2265f03586e71afe1be1a42d3c2bd35730b58a158569",
    ("frames", "--correspondence", "--v", "3", "--all-coords", "--format", "json"):
        "93ac5d3fa626fe7be57276f2f573e4f272ae55889abdc814d4838bac68a2990b",
}


def stdout_of(capsys, argv) -> str:
    code = main(list(argv))
    out, _ = capsys.readouterr()
    assert code == 0, argv
    return out


def command_id(argv) -> str:
    return " ".join("<" + command_id(a) + ">" if isinstance(a, tuple) else a
                    for a in argv)


@pytest.mark.parametrize("argv", list(GOLDEN), ids=command_id)
def test_cli_output_digest(capsys, argv):
    resolved = [stdout_of(capsys, a).splitlines()[0] if isinstance(a, tuple)
                else a for a in argv]
    out = stdout_of(capsys, resolved)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
