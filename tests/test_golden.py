"""Certifier output pinned byte for byte: a change to what the certifier
prints shows up as a diff of the files under tests/golden/.

After a deliberate output change, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff."""

from pathlib import Path

from mipcert.certifier import solve_and_certify

from helpers import knapsack_problem, set_packing_problem
from test_acceptance import appendix_certificates, lex_certificates
from test_certifier import split_cut_certificate

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_texts():
    """File name -> certificate text, for every pinned certifier output."""
    out = {}
    for option in ("sst", "lex"):
        _, text, _ = solve_and_certify(set_packing_problem(3), **{option: True})
        out[f"set_packing_3_{option}.cert"] = text
    _, text, _ = solve_and_certify(knapsack_problem(), cuts=("cg", "cover"))
    out["knapsack_cg_cover.cert"] = text
    for name, (_, text) in appendix_certificates().items():
        out[f"appendix_{name}.cert"] = text
    for ell, width, *_, text in lex_certificates():
        out[f"lex_{ell}_{width}.cert"] = text
    out["split_cut.cert"] = split_cut_certificate()[1]
    return out


def test_certifier_output_matches_golden_files():
    texts = golden_texts()
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.cert")) == sorted(texts)
    changed = [name for name, text in texts.items()
               if (GOLDEN_DIR / name).read_text(encoding="utf-8") != text]
    assert not changed, f"certifier output differs from tests/golden/ in {changed}"


if __name__ == "__main__":
    for name, text in golden_texts().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
