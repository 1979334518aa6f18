"""Mutation checks: each row breaks the program at one place, in a copy of
the tree, and the tests it names must then fail.

Run from anywhere, with the standard library and pytest only:

    python tests/mutants.py

For each row the whole tree is copied to a temporary directory (the tests
read files outside ``src``, such as ``README.md``), the row's old text must
occur exactly once in its file and is replaced by the new text, and the
row's tests are run there.  A run of the unmutated copy first requires
every named test to pass.  It prints one line per row and exits 1 unless
every mutant is killed: its tests fail, not merely fail to collect.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__")

# (name, file, old text, new text, tests that must fail)
ROWS = [
    (
        "p_relation: D's rotation dropped (e_1 .. e_(n-1), e_0 read as e_0 .. e_(n-1))",
        "src/cf2/theorems.py",
        "for t in steps[1:] + steps[:1]:",
        "for t in steps:",
        ["tests/test_theorems.py::test_relation_from_the_letters_is_the_towers_relation"],
    ),
    (
        "p_relation: t0 = 1/(e_0 + r) without a^2",
        "src/cf2/theorems.py",
        "t0 = F.inv(F.mul(steps[0], F.square((a, 1))))",
        "t0 = F.inv(steps[0])",
        ["tests/test_theorems.py::test_relation_from_the_letters_is_the_towers_relation"],
    ),
    (
        "PTower.det_ratio: step x <- x/e_i without its square",
        "src/cf2/towers.py",
        "ratio = F.square(F.div(ratio, self.eps[i % self.period]))",
        "ratio = F.div(ratio, self.eps[i % self.period])",
        ["tests/test_towers.py::test_exact_det_ratio_is_the_determinant_drift"],
    ),
    (
        "_verdict: degree bound clause removed",
        "src/cf2/theorems.py",
        "ok = ok and tail is None and search.verified and search.found_degree <= bound",
        "ok = ok and tail is None and search.verified",
        ["tests/test_theorems.py::test_a_verified_relation_above_the_bound_fails_the_verdict"],
    ),
    (
        "_div_sparse: each tap shifted one place too far",
        "src/cf2/laurent.py",
        "acc ^= y << i",
        "acc ^= y << (i + 1)",
        ["tests/test_laurent.py"],
    ),
    (
        "frobenius_relation: feedback term t0/rho dropped from the constant",
        "src/cf2/relations.py",
        "F.add(F.square(part[n]), F.mul(top, t0))",
        "F.square(part[n])",
        ["tests/test_relations.py", "tests/test_theorems.py"],
    ),
    (
        "PTower.residue_factor: step scalar read as s_0 instead of s_(j mod n)",
        "src/cf2/towers.py",
        "L_next = F.mul(F.square(self.Ls[j]), self.s[j % self.period])",
        "L_next = F.mul(F.square(self.Ls[j]), self.s[0])",
        ["tests/test_towers.py::test_residue_factor_at_one_period_is_the_tail_shift"],
    ),
    (
        "frobenius_relation: beta left at zero",
        "src/cf2/relations.py",
        "terms[1 << i] = vec[n]",
        "terms[1 << i] = F.zero",
        ["tests/test_theorems.py::test_exact_relation_is_the_searched_relation"],
    ),
    (
        "AlgRelation: content division dropped from __post_init__",
        "src/cf2/relations.py",
        'object.__setattr__(self, "coeffs", _content_normalize(polys))',
        'object.__setattr__(self, "coeffs", tuple(polys))',
        ["tests/test_relations.py::test_relation_is_held_normalized"],
    ),
    (
        "GQuantities.affine_form: one bit flipped in c",
        "src/cf2/towers.py",
        "self.c1.u, self.m1.a, a, self.m1.b, b",
        "(self.c1.u[0] ^ 2, self.c1.u[1]), self.m1.a, a, self.m1.b, b",
        ["tests/test_theorems.py::test_norm_relation_is_the_searched_relation"],
    ),
    (
        "GQuantities.affine_form: one bit flipped in rho",
        "src/cf2/towers.py",
        "return self.shift(one).u,",
        "return (self.shift(one).u[0] ^ 2, self.shift(one).u[1]),",
        ["tests/test_theorems.py::test_norm_relation_is_the_searched_relation"],
    ),
    (
        "GQuantities.affine_form: one bit flipped in a_1, the coefficient of u in A",
        "src/cf2/towers.py",
        "a = [F.mul(t.u, x.a) if t.odd else t.u for t in h]",
        "a = [F.mul(t.u, x.a) if t.odd else t.u for t in h]; a[0] = (a[0][0] ^ 2, a[0][1])",
        ["tests/test_theorems.py::test_norm_relation_is_the_searched_relation"],
    ),
    (
        "norm_relation: span reduction skipped, all k + 1 columns always used",
        "src/cf2/relations.py",
        "if all(S & const for S in states):",
        "if j == k:",
        ["tests/test_theorems.py::test_theorem_g_reduces_a_short_frobenius_span"],
    ),
    (
        "_p_level_pair: c' = c t without its + 1 (det M = 1)",
        "src/cf2/towers.py",
        "c1, s1 = clmul(c, t) ^ 1, clmul(s, t)",
        "c1, s1 = clmul(c, t), clmul(s, t)",
        ["tests/test_towers.py::test_level_pair_is_the_prefix_convergent_pair"],
    ),
    (
        "_p_level_pair: level j + 1 built with e_(j+1) instead of e_j",
        "src/cf2/towers.py",
        "e = eps[(len(levels) - 1) % len(eps)]",
        "e = eps[len(levels) % len(eps)]",
        ["tests/test_towers.py::test_level_pair_is_the_prefix_convergent_pair"],
    ),
    (
        "_p_level_pair: the letter after W_j read as the next level's e_(j+1)",
        "src/cf2/towers.py",
        "pieces += [m, (eps[j % len(eps)], 1, 1, 0)] if n < rest else [m]",
        "pieces += [m, (eps[(j + 1) % len(eps)], 1, 1, 0)] if n < rest else [m]",
        ["tests/test_towers.py::test_level_pair_is_the_prefix_convergent_pair"],
    ),
]


def run_tests(tree: Path, tests: list[str]) -> int:
    # no bytecode cache: a restored file of the mutant's size and second
    # would otherwise load the mutant's cached bytecode
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        named = list(dict.fromkeys(t for row in ROWS for t in row[4]))
        if run_tests(tree, named) != 0:
            print("the unmutated tree fails the named tests; no mutant can be judged")
            return 1
        survivors = 0
        for name, rel, old, new, tests in ROWS:
            path = tree / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"stale  {name}: old text occurs {text.count(old)} times in {rel}")
                survivors += 1
                continue
            path.write_text(text.replace(old, new))
            code = run_tests(tree, tests)
            path.write_text(text)
            killed = code == 1  # 1: tests ran and failed; anything else is not a kill
            survivors += not killed
            print(f"{'killed' if killed else 'ALIVE '} {name}" + ("" if killed else f" (pytest exit {code})"))
    print(f"{len(ROWS) - survivors} of {len(ROWS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
