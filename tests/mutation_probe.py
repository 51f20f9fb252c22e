"""One-token mutation probe of the exact kernels and the identities, run from
a checkout:

    python tests/mutation_probe.py SCRATCH_DIR [--repo TREE]

Each mutant adds one to an integer literal, swaps `+` and `-` or flips a
comparison (< <=, > >=, == !=) in a TARGETS function of a copy of TREE under
SCRATCH_DIR, never in `src/`; the test files of the TARGETS modules, its
module's own first, and `tests/test_guards.py`, which holds the input guards
of those modules, kill it by failing under -x or by running past TIMEOUT
seconds.  A TARGETS name that matches no function or class of its module
stops the probe before any mutant runs."""

import argparse
import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

TARGETS = {
    "hypergeom": "_require_open_region _check_indices _very_well_poised _prefactor "
                 "rahman_coefficient rahman_special dougall_coefficient HypTermSum.__init__ "
                 "HypTermSum.evaluate",
    "exact": "_rising_ratio pochhammer _convolve RationalPolynomial _primitive _sturm_chain "
             "_exact_quotient _sign_variations count_real_roots",
    "jacobi": "CoeffVector _reduced_row _jacobi_row _gencheb_row walk_recurrence "
              "linearize_bruteforce _boundary_ratios gasper_boundary _recursion_weights "
              "theta_iota_kappa linearize_jacobi jacobi_rec_coeffs gencheb_rec_coeffs "
              "_product_step product_triangle",
    "analysis": "_iota_bracket iota_zero_count _pq_limit_parts _odd_scale _odd_scales "
                "_pq_quotients _pq_run pq_values _omega_ratio omega_value pq_inequality_check "
                "phi_sequence _gasper_sides gasper_simplification_values _necessity_sides "
                "necessity_identity_values",
    "cli": "_phi_check _recursion_check _cmd_compare",
    "gencheb": "linearize_gencheb",
    "params": "_gasper_qv classify_region",
}
TIMEOUT = 120
GUARDS = "tests/test_guards.py"
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Lt: "<", ast.LtE: "<=",
          ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
SWAP = dict(zip(SYMBOL, [ast.Sub, ast.Add, ast.LtE, ast.Lt, ast.GtE, ast.Gt, ast.NotEq, ast.Eq]))


def _nodes(node, names: list, prefix=""):
    """Every node inside the functions and classes named in `names`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            yield from ast.walk(child) if name in names else _nodes(child, names, name + ".")


def _defined(node, prefix=""):
    """The dotted names of the functions and classes in `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name
            yield from _defined(child, prefix + child.name + ".")


def stale_targets(src: Path) -> list[str]:
    """The TARGETS names, as module.name, that no function or class of the
    modules under `src` defines."""
    stale = []
    for mod, names in TARGETS.items():
        defined = set(_defined(ast.parse((src / f"{mod}.py").read_text())))
        stale += [f"{mod}.{name}" for name in names.split() if name not in defined]
    return stale


def sites(tree, names: list) -> list:
    """(node, where) per mutant: where is "int", "op" or a comparison index."""
    out = []
    for node in _nodes(tree, names):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, "int"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in (ast.Add, ast.Sub):
            out.append((node, "op"))
        out += [(node, i) for i, op in enumerate(getattr(node, "ops", [])) if type(op) in SWAP]
    return out


def mutate(node, where) -> str:
    if where == "int":
        node.value += 1
        return f"{node.value - 1} -> {node.value}"
    if where == "op":
        old, node.op = node.op, SWAP[type(node.op)]()
    else:
        old, node.ops[where] = node.ops[where], SWAP[type(node.ops[where])]()
    return f"{SYMBOL[type(old)]} -> {SYMBOL[SWAP[type(old)]]}"


def passes(work: Path, first: str) -> bool:
    files = sorted(TARGETS, key=lambda m: m != first)
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        done = subprocess.run(cmd + [f"tests/test_{m}.py" for m in files] + [GUARDS],
                              cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scratch", type=Path, help="directory for the mutated copy")
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    work = args.scratch.resolve() / "tree"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(args.repo, work, ignore=shutil.ignore_patterns("__pycache__", ".*"))
    stale = stale_targets(work / "src" / "jacobilin")
    if stale:
        sys.exit(f"TARGETS names no function: {' '.join(stale)}")
    paths = {mod: work / "src" / "jacobilin" / f"{mod}.py" for mod in TARGETS}
    sources = {mod: path.read_text() for mod, path in paths.items()}
    if not passes(work, ""):
        sys.exit("the tests fail on the unmutated tree")
    results = []
    for mod, names in TARGETS.items():
        for i in range(len(sites(ast.parse(sources[mod]), names.split()))):
            tree = ast.parse(sources[mod])
            node, where = sites(tree, names.split())[i]
            what = mutate(node, where)
            paths[mod].write_text(ast.unparse(tree))
            dead = not passes(work, mod)
            results.append(dead)
            print(f"{'killed' if dead else 'SURVIVED'} {mod}.py:{node.lineno} {what}", flush=True)
        paths[mod].write_text(sources[mod])
    print(f"killed {sum(results)}, survived {results.count(False)} of {len(results)}")


if __name__ == "__main__":
    main()
