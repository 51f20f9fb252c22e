"""The three benchmark workloads: inputs, ops, output checks and work descriptors.

Every workload is single-process, single-threaded and closed-loop: the next op
starts only after the previous one returned.  One op is one unit of user work,
timed on its own; the harness in run.py decides how many passes to run.

* scan   - one op is scan_sign_pattern at one committed grid point for one
           mode, on cold caches.  Dominated by the recursion kernel.
* sweep  - one op is one seeded parameter point: classify_region plus a fixed
           set of Jacobi and gencheb products covering every parity class.
           Caches are never cleared, so they grow over the run.
* audit  - one op is the CLI subcommand set at one committed grid point, each
           invocation through run_command on cold caches.  Dominated by the
           independent routes (brute-force oracle, 9F8 series, Sturm chains).

Only the seed and the committed golden files decide what a run computes.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

from jacobilin import analysis, cli, gencheb, jacobi, params

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# The committed parameter grid of tests/conftest.py with its region classes,
# copied so that editing the tests cannot change what the benchmark measures.
GRID = (
    ("1", "0", "delta_interior"),
    ("1/2", "1/4", "delta_interior"),
    ("2", "1/2", "delta_interior"),
    ("1/4", "-1/4", "delta_interior"),
    ("3", "1", "delta_interior"),
    ("-1/4", "-19/20", "v_interior_not_delta"),
    ("-3/10", "-4/5", "v_interior_not_delta"),
    ("-11/40", "-39/40", "v_interior_not_delta"),
    ("-13/40", "-29/40", "v_interior_not_delta"),
    ("0", "0", "symmetric_boundary"),
    ("1", "1", "symmetric_boundary"),
    ("-1/2", "-1/2", "symmetric_boundary"),
    ("1/2", "1/2", "symmetric_boundary"),
    ("-33/100", "-87/100", "vprime_not_v"),
    ("-13/40", "-7/8", "vprime_not_v"),
    ("-7/20", "-3/4", "vprime_not_v"),
    ("-5/16", "-15/16", "vprime_not_v"),
    ("-1/2", "0", "b_negative"),
    ("0", "1/2", "b_negative"),
    ("1/4", "1/2", "b_negative"),
    ("-1/4", "-1/5", "b_negative"),
    ("-81/200", "-181/200", "below_iota_threshold"),
)

SCAN_DEGREE = 16
SCAN_MODES = ("jacobi_nonneg", "gencheb_all")

# Two sizes of the same subcommand set, so a pass holds 44 ops of two costs.
AUDIT_TIERS = {
    "A": {"compare": 5, "witness": 9, "m": 3, "n": 5},
    "B": {"compare": 7, "witness": 13, "m": 4, "n": 7},
}
AUDIT_PROPERTIES = (
    "pq-inequality",
    "phi-alternation",
    "iota-zeros",
    "recursion-consistency",
    "nec-identities",
)
AUDIT_METHODS = ("brute", "rahman", "dougall")

SWEEP_POINTS_PER_PASS = 48
# (family, m, n): two Jacobi products and one gencheb product per parity class.
SWEEP_PRODUCTS = (
    ("jacobi", 8, 11),
    ("jacobi", 12, 12),
    ("gencheb", 10, 14),
    ("gencheb", 11, 13),
    ("gencheb", 16, 17),
)
SWEEP_CHECK_SHARE = 4  # one sampled product is brute-force checked per 4 points
SWEEP_MAX_DEN = 40


@dataclass(frozen=True)
class Descriptor:
    """The work one op did: exact coefficients produced or checked, and their
    height (bit length of numerator and denominator)."""

    coeffs: int
    height_bits_max: int
    bits_total: int


def describe_values(values) -> Descriptor:
    height, total, count = 0, 0, 0
    for v in values:
        nb, db = v.numerator.bit_length(), v.denominator.bit_length()
        height = max(height, nb, db)
        total += nb + db
        count += 1
    return Descriptor(count, height, total)


def add_descriptors(ds) -> Descriptor:
    ds = list(ds)
    return Descriptor(
        sum(d.coeffs for d in ds),
        max((d.height_bits_max for d in ds), default=0),
        sum(d.bits_total for d in ds),
    )


@dataclass(frozen=True)
class Op:
    """One unit of user work.  `run(prepare)` calls `prepare()` before each
    timed section and returns (output, elapsed_ns); equal keys mean equal
    work and equal expected output."""

    key: str
    run: Callable


def _timed(prepare, fn, *args):
    prepare()
    t0 = perf_counter_ns()
    out = fn(*args)
    return out, perf_counter_ns() - t0


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def scan_entries(p, max_degree: int, mode: str):
    """(m, n, k, value) over the support that scan_sign_pattern examines, in
    its order, recomputed through the public linearize functions."""
    symmetric = p.b == 0
    for n in range(max_degree + 1):
        for m in range(n + 1):
            if mode == "jacobi_nonneg":
                for k, v in jacobi.linearize_jacobi(p, m, n).items():
                    if not (symmetric and (m + n - k) % 2):
                        yield m, n, k, v
            elif mode == "gencheb_all":
                for k, v in gencheb.linearize_gencheb(p, m, n).items():
                    if (m + n - k) % 2 == 0:
                        yield m, n, k, v
            else:
                raise ValueError(f"mode {mode!r} is not benchmarked")


class Workload:
    """Common shape: `cold` says whether every op starts on empty caches;
    `pass_ops(i)` gives the ops of pass i; `describe` and `check` run outside
    the timed section."""

    name = ""
    cold = True

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def describe(self, op: Op, output) -> Descriptor:
        raise NotImplementedError

    def check(self, op: Op, output) -> str | None:
        """None if the output is exact and correct, else the reason."""
        raise NotImplementedError

    def layer_counts(self, output) -> dict[str, int]:
        return {}


class _ShuffledFixedOps(Workload):
    """A fixed op list, visited in a fresh seeded order on every pass."""

    def __init__(self, seed: int, ops: list[Op]):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._ops = ops
        self._orders: list[list[Op]] = []

    def pass_ops(self, index):
        while len(self._orders) <= index:
            order = list(self._ops)
            self._rng.shuffle(order)
            self._orders.append(order)
        return self._orders[index]


class ScanWorkload(_ShuffledFixedOps):
    name = "scan"

    def __init__(self, seed: int, smoke: bool = False):
        self.degree = SCAN_DEGREE
        self.points = {}
        ops = []
        for al, be, _cls in GRID:
            p = params.make_params(Fraction(al), Fraction(be))
            for mode in SCAN_MODES:
                key = f"{al}|{be}|{mode}"
                self.points[key] = (p, mode)
                ops.append(Op(key, self._runner(p, mode)))
        super().__init__(seed, ops[:2] if smoke else ops)
        self._golden = None
        self._oracle: dict[str, str | None] = {}

    def _runner(self, p, mode):
        degree = self.degree
        return lambda prepare: _timed(
            prepare, lambda: analysis.scan_sign_pattern(p, degree, mode)
        )

    def describe(self, op, output):
        # Runs right after the op, so the vectors come from the warm caches.
        p, mode = self.points[op.key]
        return describe_values(v for _m, _n, _k, v in scan_entries(p, self.degree, mode))

    def check(self, op, output):
        # The golden file is read only now, so that parsing it does not
        # raise the memory high-water mark before the ops run.
        if self._golden is None:
            self._golden = load_golden("scan")
        if self._golden["degree"] != self.degree:
            return "golden/scan.json is out of date"
        want = self._golden["results"][op.key]
        got = {
            "verdict": output.verdict,
            "min_value": str(output.min_value),
            "witness": list(output.witness) if output.witness else None,
            "witness_value": None
            if output.witness_value is None
            else str(output.witness_value),
        }
        for field, value in got.items():
            if value != want[field]:
                return f"{field} {value!r} differs from golden {want[field]!r}"
        if op.key not in self._oracle:
            self._oracle[op.key] = self._oracle_check(op.key, want)
        return self._oracle[op.key]

    def _oracle_check(self, key, want):
        """Recompute the minimum and witness entries by the brute-force oracle."""
        p, mode = self.points[key]
        family = jacobi.FAMILY_JACOBI if mode.startswith("jacobi") else jacobi.FAMILY_GENCHEB
        entries = [(want["min_at"], want["min_value"])]
        if want["witness"] is not None:
            entries.append((want["witness"], want["witness_value"]))
        for (m, n, k), value in entries:
            oracle = jacobi.linearize_bruteforce(p, m, n, family)[k]
            if oracle != Fraction(value):
                return f"brute-force oracle gives {oracle} at {(m, n, k)}, golden {value}"
        return None


class AuditWorkload(_ShuffledFixedOps):
    name = "audit"

    def __init__(self, seed: int, smoke: bool = False):
        self.argvs = {}
        ops = []
        for al, be, _cls in GRID:
            for tier in AUDIT_TIERS:
                key = f"{al}|{be}|{tier}"
                self.argvs[key] = audit_invocations(al, be, tier)
                ops.append(Op(key, self._runner(self.argvs[key])))
        super().__init__(seed, ops[:2] if smoke else ops)
        self._golden = None

    @staticmethod
    def _runner(invocations):
        def run(prepare):
            results, total = [], 0
            for argv in invocations:
                prepare()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = perf_counter_ns()
                    code = cli.run_command(argv)
                    total += perf_counter_ns() - t0
                results.append((code, out.getvalue(), err.getvalue()))
            return tuple(results), total

        return run

    def describe(self, op, output):
        parts = []
        for argv, (code, out, _err) in zip(self.argvs[op.key], output):
            if code == 2:
                continue
            record = json.loads(out)
            if argv[0] == "compare":
                parts.append(Descriptor(record["payload"]["entries_checked"], 0, 0))
            elif argv[0] == "linearize":
                parts.append(
                    describe_values(
                        Fraction(r["num"], r["den"])
                        for r in record["payload"]["coefficients"]
                    )
                )
        return add_descriptors(parts)

    def check(self, op, output):
        if self._golden is None:  # read late, as in ScanWorkload.check
            self._golden = load_golden("audit")["results"]
        gold = self._golden[op.key]
        if gold["argv"] != self.argvs[op.key]:
            return "golden/audit.json is out of date"
        for argv, want, (code, out, _err) in zip(gold["argv"], gold["expect"], output):
            # A golden exit 2 is a usage/range refusal; its output is not
            # pinned, so fixing such a refusal is not a failure.
            if want["exit"] == 2:
                continue
            if code != want["exit"]:
                return f"{argv[0]} exited {code}, golden {want['exit']}"
            record = json.loads(out)
            if record != want["record"]:
                return f"{' '.join(argv)}: output differs from golden"
            if argv[0] == "compare" and record.get("verdict") != "agree":
                return "compare does not report agree"
        return None

    def layer_counts(self, output):
        counts: dict[str, int] = {}
        for code, _out, _err in output:
            counts[f"cli.exit_{code}"] = counts.get(f"cli.exit_{code}", 0) + 1
        return counts


def audit_invocations(alpha: str, beta: str, tier: str) -> list[list[str]]:
    size = AUDIT_TIERS[tier]
    point = ["--alpha", alpha, "--beta", beta]
    argvs = [
        ["classify", *point, "--json"],
        ["compare", *point, "--max-degree", str(size["compare"]), "--json"],
    ]
    argvs += [["verify", *point, "--property", prop, "--json"] for prop in AUDIT_PROPERTIES]
    argvs.append(["witness", *point, "--max-degree", str(size["witness"]), "--json"])
    argvs += [
        ["linearize", *point, "--m", str(size["m"]), "--n", str(size["n"]),
         "--method", method, "--format", "json"]
        for method in AUDIT_METHODS
    ]
    return argvs


def sweep_point(rng: random.Random) -> tuple[Fraction, Fraction]:
    """alpha, beta in (-19/20, 3) with a random denominator up to SWEEP_MAX_DEN."""
    lo, hi = Fraction(-19, 20), Fraction(3)

    def draw():
        den = rng.randint(2, SWEEP_MAX_DEN)
        return Fraction(rng.randint(int(lo * den) + 1, int(hi * den) - 1), den)

    return draw(), draw()


class SweepWorkload(Workload):
    name = "sweep"
    cold = False

    def __init__(self, seed: int, smoke: bool = False):
        self._rng = random.Random(f"sweep:{seed}")
        self._check_rng = random.Random(f"sweep-check:{seed}")
        self._seen: set[tuple[Fraction, Fraction]] = set()
        self._per_pass = 3 if smoke else SWEEP_POINTS_PER_PASS
        self._passes: list[list[Op]] = []
        self.sampled: dict[str, int] = {}

    def pass_ops(self, index):
        while len(self._passes) <= index:
            ops = []
            while len(ops) < self._per_pass:
                al, be = sweep_point(self._rng)
                if (al, be) in self._seen:
                    continue  # no work is shared across points
                self._seen.add((al, be))
                key = f"{al}|{be}"
                if self._check_rng.randrange(SWEEP_CHECK_SHARE) == 0:
                    self.sampled[key] = self._check_rng.randrange(len(SWEEP_PRODUCTS))
                ops.append(Op(key, self._runner(params.make_params(al, be))))
            self._passes.append(ops)
        return self._passes[index]

    @staticmethod
    def _runner(p):
        def point(p):
            label = params.classify_region(p).label.value
            vectors = tuple(
                (jacobi.linearize_jacobi if family == "jacobi" else gencheb.linearize_gencheb)(
                    p, m, n
                ).values
                for family, m, n in SWEEP_PRODUCTS
            )
            return label, vectors

        return lambda prepare: _timed(prepare, point, p)

    def describe(self, op, output):
        return describe_values(v for vec in output[1] for v in vec)

    def check(self, op, output):
        if op.key not in self.sampled:
            return None
        index = self.sampled[op.key]
        family, m, n = SWEEP_PRODUCTS[index]
        al, be = (Fraction(x) for x in op.key.split("|"))
        oracle = jacobi.linearize_bruteforce(params.make_params(al, be), m, n, family)
        if oracle.values != output[1][index]:
            return f"{family} ({m}, {n}) differs from the brute-force oracle"
        return None


WORKLOADS = {"scan": ScanWorkload, "sweep": SweepWorkload, "audit": AuditWorkload}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """Input generation: everything a run needs before its first op."""
    workload = WORKLOADS[name](seed, smoke)
    workload.pass_ops(0)
    return workload
